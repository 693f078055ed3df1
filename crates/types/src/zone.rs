//! Geographic zones.
//!
//! Storage rules may restrict the geographic zones where chunks of an object
//! may be placed (Fig. 2 in the paper: "EU, US", "EU", "all"). Providers
//! advertise the zones they operate in (Fig. 3: S3 in "EU, US, APAC", the
//! others in "US").

use std::fmt;

/// A geographic zone where a storage provider operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Zone {
    /// Europe.
    EU,
    /// North America.
    US,
    /// Asia-Pacific.
    APAC,
}

impl Zone {
    /// All known zones.
    pub(crate) const ALL: [Zone; 3] = [Zone::EU, Zone::US, Zone::APAC];
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Zone::EU => write!(f, "EU"),
            Zone::US => write!(f, "US"),
            Zone::APAC => write!(f, "APAC"),
        }
    }
}

/// A set of zones, stored as a small bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ZoneSet(u8);

impl ZoneSet {
    /// The empty zone set.
    pub(crate) const EMPTY: ZoneSet = ZoneSet(0);

    fn bit(zone: Zone) -> u8 {
        match zone {
            Zone::EU => 1,
            Zone::US => 2,
            Zone::APAC => 4,
        }
    }

    /// The set containing every zone ("all" in the paper's rules).
    pub fn all() -> ZoneSet {
        ZoneSet(1 | 2 | 4)
    }

    /// Builds a set from a list of zones.
    pub fn of(zones: &[Zone]) -> ZoneSet {
        let mut s = ZoneSet::EMPTY;
        for &z in zones {
            s = s.with(z);
        }
        s
    }

    /// Returns a copy of the set with `zone` added.
    pub(crate) fn with(self, zone: Zone) -> ZoneSet {
        ZoneSet(self.0 | Self::bit(zone))
    }

    /// The raw bitmask (used to fingerprint rules in cache/group keys).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// The set whose raw bitmask is `bits` (the inverse of [`Self::bits`]).
    pub(crate) fn from_bits(bits: u8) -> ZoneSet {
        ZoneSet(bits)
    }

    /// Returns `true` if the set contains `zone`.
    pub fn contains(self, zone: Zone) -> bool {
        self.0 & Self::bit(zone) != 0
    }

    /// Returns `true` if the two sets share at least one zone.
    pub fn intersects(self, other: ZoneSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the zones contained in the set.
    pub(crate) fn iter(self) -> impl Iterator<Item = Zone> {
        Zone::ALL.into_iter().filter(move |&z| self.contains(z))
    }
}

impl fmt::Display for ZoneSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ZoneSet::all() {
            return write!(f, "all");
        }
        let names: Vec<String> = self.iter().map(|z| z.to_string()).collect();
        write!(f, "{}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership() {
        let s = ZoneSet::of(&[Zone::EU, Zone::US]);
        assert!(s.contains(Zone::EU));
        assert!(s.contains(Zone::US));
        assert!(!s.contains(Zone::APAC));
    }

    #[test]
    fn set_relations() {
        let eu_us = ZoneSet::of(&[Zone::EU, Zone::US]);
        let us = ZoneSet::of(&[Zone::US]);
        let apac = ZoneSet::of(&[Zone::APAC]);
        assert!(eu_us.intersects(us));
        assert!(!eu_us.intersects(apac));
    }

    #[test]
    fn iteration_and_display() {
        let s = ZoneSet::of(&[Zone::US, Zone::EU]);
        let zones: Vec<Zone> = s.iter().collect();
        assert_eq!(zones, vec![Zone::EU, Zone::US]);
        assert_eq!(s.to_string(), "EU, US");
        assert_eq!(ZoneSet::all().to_string(), "all");
        assert_eq!(ZoneSet::of(&[Zone::APAC]).to_string(), "APAC");
    }
}

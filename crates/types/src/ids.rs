//! Identifiers for providers, engines and datacenters.

use std::fmt;

/// Identifier of a storage provider (public cloud or private resource).
///
/// Providers are registered in a catalog; the id is a small integer index so
/// that provider sets can be represented compactly as bitmasks during the
/// combinatorial placement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ProviderId(pub u32);

impl ProviderId {
    /// Creates a provider id from a raw index.
    pub const fn new(id: u32) -> Self {
        ProviderId(id)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProviderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "provider_{}", self.0)
    }
}

/// Identifier of a Scalia engine instance (the stateless proxy component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EngineId(pub u32);

impl EngineId {
    /// Creates an engine id.
    pub const fn new(id: u32) -> Self {
        EngineId(id)
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine_{}", self.0)
    }
}

/// Identifier of a datacenter hosting engines, a cache and a database node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DatacenterId(pub u32);

impl DatacenterId {
    /// Creates a datacenter id.
    pub const fn new(id: u32) -> Self {
        DatacenterId(id)
    }
}

impl fmt::Display for DatacenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc_{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ProviderId::new(3).to_string(), "provider_3");
        assert_eq!(EngineId::new(1).to_string(), "engine_1");
        assert_eq!(DatacenterId::new(0).to_string(), "dc_0");
    }

    #[test]
    fn ordering_and_index() {
        assert!(ProviderId::new(1) < ProviderId::new(2));
        assert_eq!(ProviderId::new(7).index(), 7);
    }
}

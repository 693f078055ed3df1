//! Outage schedules and deterministic fault plans for failure injection.
//!
//! The evaluation's active-repair scenario (§IV-E) takes one provider down
//! between hour 60 and hour 120. An [`OutageSchedule`] expresses such
//! transient failures as a list of half-open time windows and answers the
//! question "is the provider up at time t?".
//!
//! Beyond whole-provider outages, the chaos harness needs *surgical* faults
//! that reproduce bit-for-bit from a seed:
//!
//! * **Crash points** — named code locations (e.g. `journal::logged`) armed
//!   through a [`FaultPlan`]. When execution reaches an armed label the
//!   caller aborts the operation exactly there, simulating a process crash
//!   with no cleanup. Each armed point fires once and records itself in
//!   [`FaultPlan::fired`].
//! * **Transport-error storms** — a provider answers its next *N* requests
//!   with a retryable transport error while nominally up, feeding the
//!   failure detector's count-to-threshold path (injected per backend, see
//!   `SimulatedStore::inject_transport_errors`). A [`FaultPlan`] carries the
//!   storm specs so a whole chaos scenario is described by one plan object.
//! * **Torn operations** — a crash point armed *inside* a multi-step
//!   mutation (between journal apply steps) leaves the operation half done;
//!   recovery must complete or discard it, never leave the torn state.

use parking_lot::Mutex;
use scalia_types::ids::ProviderId;
use scalia_types::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single outage window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct OutageWindow {
    /// Time the provider becomes unreachable.
    pub start: SimTime,
    /// Time the provider recovers.
    pub end: SimTime,
}

/// A schedule of transient outages for one provider.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OutageSchedule {
    windows: Vec<OutageWindow>,
}

impl OutageSchedule {
    /// A schedule with no outages.
    pub(crate) fn always_up() -> Self {
        OutageSchedule::default()
    }

    /// Creates a schedule from a list of `(start_hour, end_hour)` pairs.
    pub fn from_hours(windows: &[(u64, u64)]) -> Self {
        let mut schedule = OutageSchedule::default();
        for &(start, end) in windows {
            schedule.add_window(SimTime::from_hours(start), SimTime::from_hours(end));
        }
        schedule
    }

    /// Adds an outage window. Windows where `end <= start` are ignored.
    pub(crate) fn add_window(&mut self, start: SimTime, end: SimTime) {
        if end > start {
            self.windows.push(OutageWindow { start, end });
        }
    }

    /// Returns `true` if the provider is reachable at `time`.
    pub(crate) fn is_up(&self, time: SimTime) -> bool {
        !self.windows.iter().any(|w| time >= w.start && time < w.end)
    }

    /// Returns `true` if the provider is down at `time`.
    pub fn is_down(&self, time: SimTime) -> bool {
        !self.is_up(time)
    }
}

/// A transport-error storm: one provider fails its next `ops` requests with
/// a retryable error while remaining nominally up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormSpec {
    /// Provider the storm targets.
    pub provider: ProviderId,
    /// Number of consecutive requests that fail.
    pub ops: u32,
}

/// A deterministic chaos plan: armed crash points plus transport-error
/// storms, shared (behind an `Arc`) between the harness and the system under
/// test.
///
/// Crash points are identified by string labels. Arming a label with
/// [`FaultPlan::arm`] makes the next visit fire; [`FaultPlan::arm_after`]
/// skips the first `skip` visits so a later occurrence of the same label can
/// be targeted. A fired point is disarmed (crashes are one-shot) and
/// remembered, so a scenario can assert exactly which faults triggered.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Label → remaining visits to skip before firing (0 = fire next visit).
    armed: Mutex<BTreeMap<String, u32>>,
    /// Labels that fired, in firing order.
    fired: Mutex<Vec<String>>,
    /// Storms to apply to backends before the scenario runs.
    storms: Mutex<Vec<StormSpec>>,
}

impl FaultPlan {
    /// An empty plan: nothing armed, nothing fires.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `label` to fire on its next visit.
    pub fn arm(&self, label: impl Into<String>) {
        self.arm_after(label, 0);
    }

    /// Arms `label` to fire on its `(skip + 1)`-th visit.
    pub fn arm_after(&self, label: impl Into<String>, skip: u32) {
        self.armed.lock().insert(label.into(), skip);
    }

    /// Visits a crash point. Returns `true` exactly when the armed countdown
    /// for `label` reaches zero — the caller must then abandon the operation
    /// in place (no cleanup), simulating a crash. Unarmed labels are free.
    pub fn check(&self, label: &str) -> bool {
        let mut armed = self.armed.lock();
        match armed.get_mut(label) {
            None => false,
            Some(skip) if *skip > 0 => {
                *skip -= 1;
                false
            }
            Some(_) => {
                armed.remove(label);
                self.fired.lock().push(label.to_string());
                true
            }
        }
    }

    /// Labels that fired so far, in order.
    pub fn fired(&self) -> Vec<String> {
        self.fired.lock().clone()
    }

    /// Adds a transport-error storm to the plan.
    pub fn add_storm(&self, provider: ProviderId, ops: u32) {
        self.storms.lock().push(StormSpec { provider, ops });
    }

    /// Drains the planned storms (the harness applies them to backends).
    pub fn take_storms(&self) -> Vec<StormSpec> {
        std::mem::take(&mut *self.storms.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_up_schedule() {
        let s = OutageSchedule::always_up();
        assert!(s.is_up(SimTime::ZERO));
        assert!(s.is_up(SimTime::from_hours(10_000)));
    }

    #[test]
    fn paper_repair_scenario_window() {
        // S3(l) down from hour 60 to hour 120.
        let s = OutageSchedule::from_hours(&[(60, 120)]);
        assert!(s.is_up(SimTime::from_hours(59)));
        assert!(s.is_down(SimTime::from_hours(60)));
        assert!(s.is_down(SimTime::from_hours(119)));
        assert!(s.is_up(SimTime::from_hours(120)));
        assert!(s.is_up(SimTime::from_hours(180)));
    }

    #[test]
    fn multiple_windows_and_transitions() {
        let s = OutageSchedule::from_hours(&[(10, 20), (30, 40)]);
        assert!(s.is_down(SimTime::from_hours(15)));
        assert!(s.is_up(SimTime::from_hours(25)));
        assert!(s.is_down(SimTime::from_hours(35)));
    }

    #[test]
    fn degenerate_windows_are_ignored() {
        let mut s = OutageSchedule::always_up();
        s.add_window(SimTime::from_hours(10), SimTime::from_hours(10));
        s.add_window(SimTime::from_hours(20), SimTime::from_hours(15));
        assert!(s.windows.is_empty());
        assert!(s.is_up(SimTime::from_hours(10)));
    }

    #[test]
    fn boundary_semantics_are_half_open() {
        // [start, end): down at exactly `start`, up at exactly `end`.
        let s = OutageSchedule::from_hours(&[(10, 20)]);
        assert!(s.is_up(SimTime::from_secs(10 * 3600 - 1)));
        assert!(s.is_down(SimTime::from_hours(10)), "t == start is down");
        assert!(s.is_down(SimTime::from_secs(20 * 3600 - 1)));
        assert!(s.is_up(SimTime::from_hours(20)), "t == end is up");
        // A one-second outage still obeys both boundaries.
        let tiny = OutageSchedule::from_hours(&[(5, 5)]);
        assert!(tiny.is_up(SimTime::from_hours(5)), "empty window ignored");
        let mut one_sec = OutageSchedule::always_up();
        one_sec.add_window(SimTime::from_secs(100), SimTime::from_secs(101));
        assert!(one_sec.is_up(SimTime::from_secs(99)));
        assert!(one_sec.is_down(SimTime::from_secs(100)));
        assert!(one_sec.is_up(SimTime::from_secs(101)));
    }

    #[test]
    fn overlapping_windows_union_their_downtime() {
        // (10,30) and (20,40) overlap; (40,50) is adjacent to the union.
        let s = OutageSchedule::from_hours(&[(10, 30), (20, 40), (40, 50)]);
        assert!(s.is_up(SimTime::from_hours(9)));
        for hour in 10..50 {
            assert!(s.is_down(SimTime::from_hours(hour)), "hour {hour}");
        }
        assert!(s.is_up(SimTime::from_hours(50)));
    }

    #[test]
    fn crash_points_fire_once_and_record() {
        let plan = FaultPlan::new();
        plan.arm("journal::logged");
        assert!(!plan.check("journal::applied"), "unarmed label is free");
        assert!(plan.check("journal::logged"), "armed label fires");
        assert!(!plan.check("journal::logged"), "fired label is disarmed");
        assert_eq!(plan.fired(), vec!["journal::logged".to_string()]);
        assert!(plan.armed.lock().is_empty());
    }

    #[test]
    fn arm_after_skips_early_visits() {
        let plan = FaultPlan::new();
        plan.arm_after("put::uploaded", 2);
        assert!(!plan.check("put::uploaded"));
        assert!(!plan.check("put::uploaded"));
        assert!(plan.check("put::uploaded"), "fires on the third visit");
        assert!(plan.fired().contains(&"put::uploaded".to_string()));
    }

    #[test]
    fn storms_accumulate_and_drain() {
        let plan = FaultPlan::new();
        plan.add_storm(ProviderId::new(2), 5);
        plan.add_storm(ProviderId::new(3), 1);
        let storms = plan.take_storms();
        assert_eq!(storms.len(), 2);
        assert_eq!(storms[0].provider, ProviderId::new(2));
        assert_eq!(storms[0].ops, 5);
        assert!(plan.take_storms().is_empty(), "draining empties the plan");
    }

    #[test]
    fn identical_and_nested_windows() {
        // Duplicated and fully-nested windows must not distort the schedule.
        let s = OutageSchedule::from_hours(&[(10, 20), (10, 20), (12, 15)]);
        assert!(s.is_down(SimTime::from_hours(12)));
        assert!(s.is_down(SimTime::from_hours(19)));
        assert!(s.is_up(SimTime::from_hours(20)));
        // A flap: down, up for one hour, down again.
        let flap = OutageSchedule::from_hours(&[(10, 20), (21, 30)]);
        assert!(flap.is_down(SimTime::from_hours(19)));
        assert!(flap.is_up(SimTime::from_hours(20)));
        assert!(flap.is_down(SimTime::from_hours(21)));
    }
}

//! Per-tenant service statistics and the digestable traffic report.
//!
//! Every counter here is driven by the service's deterministic virtual-time
//! executor, so a seeded trace produces a bit-identical report — the
//! [`FrontendReport::digest`] is what the traffic tests pin. The digest deliberately covers only *outcome-level* state
//! (counters, percentiles, bytes). Object version ids are minted from each
//! deployment's own sequence (`Infrastructure::next_version`), so they too
//! repeat for a seeded trace; they stay out of the digest because they name
//! storage, not what a tenant observed.

use scalia_types::latency::LatencyHistogram;
use scalia_types::md5::md5_hex;

/// Accumulating per-tenant statistics (internal to the service).
#[derive(Default)]
pub(crate) struct TenantStats {
    pub submitted: u64,
    pub completed: u64,
    pub rejected_queue: u64,
    pub rejected_deadline: u64,
    pub failed: u64,
    pub sla_violations: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// End-to-end latency (queue wait + service) of completed ops.
    pub latency: LatencyHistogram,
}

/// Snapshot of one tenant's service outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name (as registered).
    pub name: String,
    /// DRR weight.
    pub weight: u32,
    /// Ops submitted (accepted or not).
    pub submitted: u64,
    /// Ops that executed and succeeded.
    pub completed: u64,
    /// Ops refused at admission (queue-depth backpressure).
    pub rejected_queue: u64,
    /// Ops abandoned at dispatch (deadline exceeded in queue).
    pub rejected_deadline: u64,
    /// Ops that executed and returned an engine error.
    pub failed: u64,
    /// Completed ops whose end-to-end latency exceeded the tenant's SLA.
    pub sla_violations: u64,
    /// Payload bytes written.
    pub bytes_in: u64,
    /// Payload bytes read.
    pub bytes_out: u64,
    /// Median end-to-end latency of completed ops, µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency of completed ops, µs.
    pub p99_us: u64,
    /// 99.9th-percentile end-to-end latency of completed ops, µs.
    pub p999_us: u64,
    /// Worst completed-op latency, µs.
    pub max_us: u64,
}

impl TenantReport {
    pub(crate) fn from_stats(name: &str, weight: u32, stats: &TenantStats) -> Self {
        TenantReport {
            name: name.to_string(),
            weight,
            submitted: stats.submitted,
            completed: stats.completed,
            rejected_queue: stats.rejected_queue,
            rejected_deadline: stats.rejected_deadline,
            failed: stats.failed,
            sla_violations: stats.sla_violations,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
            p50_us: stats.latency.percentile_us(50.0),
            p99_us: stats.latency.percentile_us(99.0),
            p999_us: stats.latency.percentile_us(99.9),
            max_us: stats.latency.max_us(),
        }
    }

    /// Ops rejected for any reason (backpressure + deadline).
    pub fn rejected(&self) -> u64 {
        self.rejected_queue + self.rejected_deadline
    }
}

/// Snapshot of the whole service: per-tenant outcomes plus the admission
/// controller's high-water marks.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendReport {
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantReport>,
    /// Virtual time at the snapshot (µs) — the replay horizon.
    pub clock_us: u64,
    /// Most ops ever queued at once (bounded by the admission controller).
    pub peak_queued: usize,
    /// Most lanes ever busy at once (≤ the configured lane count).
    pub peak_in_flight: usize,
}

impl FrontendReport {
    /// Total completed ops across tenants.
    pub fn total_completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total submitted ops across tenants.
    pub fn total_submitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.submitted).sum()
    }

    /// A stable digest of every per-tenant outcome: same seed ⇒ same
    /// digest, across replays and replay-loop chunking. This is what the
    /// traffic tests pin.
    pub fn digest(&self) -> String {
        let mut lines = String::new();
        for t in &self.tenants {
            lines.push_str(&format!(
                "{}|w{}|s{}|c{}|rq{}|rd{}|f{}|v{}|in{}|out{}|p50:{}|p99:{}|p999:{}|max:{}\n",
                t.name,
                t.weight,
                t.submitted,
                t.completed,
                t.rejected_queue,
                t.rejected_deadline,
                t.failed,
                t.sla_violations,
                t.bytes_in,
                t.bytes_out,
                t.p50_us,
                t.p99_us,
                t.p999_us,
                t.max_us,
            ));
        }
        lines.push_str(&format!(
            "clock:{}|peakq:{}|peakf:{}\n",
            self.clock_us, self.peak_queued, self.peak_in_flight
        ));
        md5_hex(lines.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut stats = TenantStats {
            submitted: 10,
            completed: 9,
            rejected_queue: 1,
            ..Default::default()
        };
        stats.latency.record(100);
        stats.latency.record(2_000);
        let report = FrontendReport {
            tenants: vec![TenantReport::from_stats("alpha", 2, &stats)],
            clock_us: 1_000_000,
            peak_queued: 5,
            peak_in_flight: 2,
        };
        let d1 = report.digest();
        assert_eq!(d1, report.clone().digest(), "digest must be deterministic");
        let mut other = report.clone();
        other.tenants[0].completed = 8;
        assert_ne!(d1, other.digest(), "digest must see counter changes");
        assert_eq!(report.tenants[0].rejected(), 1);
    }
}

//! Log collection and aggregation.
//!
//! The paper collects read/write access logs with a distributed, reliable
//! log service (Flume/Scribe): a *log agent* at each engine buffers the
//! operations it served, and *log aggregators* periodically pull those
//! buffers, aggregate them per object and sampling period, and write the
//! result to the statistics database (§III-C2).

use crate::model::Timestamp;
use crate::stats::StatisticsStore;
use parking_lot::Mutex;
use scalia_types::ids::EngineId;
use scalia_types::size::ByteSize;
use scalia_types::stats::PeriodStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The kind of access an engine served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read (GET) of the object.
    Read,
    /// A write (PUT) of the object.
    Write,
}

/// One access-log record emitted by an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessLogRecord {
    /// Engine that served the request.
    pub engine: EngineId,
    /// Metadata row key of the object.
    pub object_row_key: String,
    /// Sampling period in which the access happened.
    pub period: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Bytes transferred to/from the client.
    pub bytes: ByteSize,
    /// Current size of the object (for storage accounting).
    pub object_size: ByteSize,
}

/// A per-engine log agent buffering access records.
#[derive(Debug, Default)]
pub struct LogAgent {
    buffer: Mutex<Vec<AccessLogRecord>>,
}

impl LogAgent {
    /// Creates an empty agent.
    pub(crate) fn new() -> Self {
        LogAgent::default()
    }

    /// Creates an agent wrapped in an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Appends a record to the buffer.
    pub fn log(&self, record: AccessLogRecord) {
        self.buffer.lock().push(record);
    }

    /// Drains the buffer, returning all buffered records.
    pub(crate) fn drain(&self) -> Vec<AccessLogRecord> {
        std::mem::take(&mut *self.buffer.lock())
    }
}

/// A log aggregator pulling from several agents and writing per-object,
/// per-period statistics to the statistics store.
pub struct LogAggregator {
    agents: Vec<Arc<LogAgent>>,
}

impl LogAggregator {
    /// Creates an aggregator over the given agents.
    pub fn new(agents: Vec<Arc<LogAgent>>) -> Self {
        LogAggregator { agents }
    }

    /// Drains every agent, aggregates the records per `(object, period)` and
    /// writes the aggregates to `stats` — each tagged with the object's
    /// class (one point read of the class recorded at insertion, so the
    /// dirty-set index carries the tag and the class-centric optimiser can
    /// group the accessed set with no metadata reads). The same pass folds
    /// the per-object aggregates into **one pre-aggregated delta per
    /// `(class, period)`** (`StatisticsStore::record_class_period`), so a
    /// class's usage series costs O(periods) to read, not
    /// O(members × periods). Returns the number of `(object, period)`
    /// aggregates written.
    ///
    /// The aggregator flushes each sampling period once (the cluster ticks
    /// at period boundaries); a re-flush of the same `(object, period)`
    /// *replaces* the per-object column but *adds* a rollup delta — the
    /// rollup keeps the complete count, the object column the latest flush.
    pub fn flush(&self, stats: &StatisticsStore, timestamp: Timestamp) -> usize {
        let mut grouped: BTreeMap<(String, u64), PeriodStats> = BTreeMap::new();
        for agent in &self.agents {
            for record in agent.drain() {
                let entry = grouped
                    .entry((record.object_row_key.clone(), record.period))
                    .or_insert_with(|| PeriodStats::empty(record.period));
                entry.storage = record.object_size;
                match record.kind {
                    AccessKind::Read => {
                        entry.reads += 1;
                        entry.bw_out += record.bytes;
                    }
                    AccessKind::Write => {
                        entry.writes += 1;
                        entry.bw_in += record.bytes;
                    }
                }
            }
        }
        let mut classes: BTreeMap<String, Option<String>> = BTreeMap::new();
        let mut rollups: BTreeMap<(String, u64), (PeriodStats, u64)> = BTreeMap::new();
        let mut written = 0;
        // Every write of one flush shares the caller's timestamp: each
        // targets a distinct column (rollup column names embed the
        // timestamp), so nothing conflicts — and no timestamp beyond the
        // allocated one is ever fabricated. (The previous scheme stamped
        // `seq + i`, minting marks that post-dated timestamps the clock
        // handed out *later* — the optimiser's `last_run` watermark would
        // then re-admit the whole previous window as freshly accessed.)
        for ((object_row_key, period), period_stats) in &grouped {
            let class = classes
                .entry(object_row_key.clone())
                .or_insert_with(|| stats.object_class(object_row_key));
            if stats
                .record_period_classified(object_row_key, class.as_deref(), period_stats, timestamp)
                .is_ok()
            {
                written += 1;
                if let Some(class_id) = class {
                    let (delta, objects) = rollups
                        .entry((class_id.clone(), *period))
                        .or_insert_with(|| (PeriodStats::empty(*period), 0));
                    delta.storage += period_stats.storage;
                    delta.bw_in += period_stats.bw_in;
                    delta.bw_out += period_stats.bw_out;
                    delta.reads += period_stats.reads;
                    delta.writes += period_stats.writes;
                    *objects += 1;
                }
            }
        }
        for ((class_id, _period), (delta, objects)) in &rollups {
            stats
                .record_class_period(class_id, delta, *objects, timestamp)
                .ok();
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicatedStore;
    use scalia_types::ids::DatacenterId;

    fn stats_store() -> StatisticsStore {
        StatisticsStore::new(
            Arc::new(ReplicatedStore::with_datacenters(1)),
            DatacenterId::new(0),
        )
    }

    fn read_record(object: &str, period: u64, kb: u64) -> AccessLogRecord {
        AccessLogRecord {
            engine: EngineId::new(0),
            object_row_key: object.to_string(),
            period,
            kind: AccessKind::Read,
            bytes: ByteSize::from_kb(kb),
            object_size: ByteSize::from_kb(kb),
        }
    }

    #[test]
    fn agent_buffers_and_drains() {
        let agent = LogAgent::new();
        assert_eq!(agent.buffer.lock().len(), 0);
        agent.log(read_record("obj", 0, 10));
        agent.log(read_record("obj", 0, 10));
        assert_eq!(agent.buffer.lock().len(), 2);
        assert_eq!(agent.drain().len(), 2);
        assert_eq!(agent.buffer.lock().len(), 0);
        assert!(agent.drain().is_empty());
    }

    #[test]
    fn aggregator_groups_by_object_and_period() {
        let stats = stats_store();
        let a1 = LogAgent::shared();
        let a2 = LogAgent::shared();
        // Two reads of obj1 in period 0 from two engines, one write of obj1
        // in period 1, one read of obj2 in period 0.
        a1.log(read_record("obj1", 0, 100));
        a2.log(read_record("obj1", 0, 100));
        a2.log(AccessLogRecord {
            engine: EngineId::new(1),
            object_row_key: "obj1".to_string(),
            period: 1,
            kind: AccessKind::Write,
            bytes: ByteSize::from_kb(100),
            object_size: ByteSize::from_kb(100),
        });
        a1.log(read_record("obj2", 0, 50));

        let aggregator = LogAggregator::new(vec![a1.clone(), a2.clone()]);
        let written = aggregator.flush(&stats, Timestamp::new(3600, 0));
        assert_eq!(written, 3);

        let h1 = stats.history("obj1", 10);
        assert_eq!(h1.len(), 2);
        assert_eq!(h1.records()[0].reads, 2);
        assert_eq!(h1.records()[0].bw_out, ByteSize::from_kb(200));
        assert_eq!(h1.records()[1].writes, 1);
        assert_eq!(h1.records()[1].bw_in, ByteSize::from_kb(100));

        let h2 = stats.history("obj2", 10);
        assert_eq!(h2.len(), 1);
        assert_eq!(h2.records()[0].reads, 1);

        // Agents were drained by the flush.
        assert_eq!(a1.buffer.lock().len(), 0);
        assert_eq!(a2.buffer.lock().len(), 0);
    }

    #[test]
    fn flush_with_no_records_writes_nothing() {
        let stats = stats_store();
        let aggregator = LogAggregator::new(vec![LogAgent::shared()]);
        assert_eq!(aggregator.flush(&stats, Timestamp::new(1, 0)), 0);
    }
}

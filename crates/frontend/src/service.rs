//! The front-end service: S3-flavored request surface, admission control
//! and the deterministic virtual-time executor.
//!
//! See the crate docs for the admission/fairness model. Mechanically the
//! service is a discrete-event simulation driven by one thread:
//!
//! * [`FrontendService::submit`] hands in an op with an explicit virtual
//!   arrival time (non-decreasing). Admission either queues it on its
//!   tenant's FIFO or rejects it ([`ScaliaError::Overloaded`]).
//! * A fixed set of *lanes* models the bounded in-flight ops; each lane has
//!   a `free_at` time. Whenever the earliest-free lane's free time is
//!   reached, the DRR scheduler picks the next tenant, the op executes
//!   against the engine **at that point in the replay** (so engine state
//!   evolves in dispatch order, deterministically), and the lane is charged
//!   the op's virtual service time.
//! * [`FrontendService::drain`] runs the queues dry at the end of a trace.
//!
//! Service time is the engine's recorded virtual chunk-I/O makespan for the
//! op (its parallel fan-out's critical path), or
//! [`FrontendConfig::base_service_us`] when the op touched no provider
//! (cache hit, metadata-only). Deadline rejections consume no lane time —
//! abandoning a request is free, which is exactly why it protects the tail.

use crate::fairness::DrrScheduler;
use crate::multipart::{MultipartRegistry, UploadId};
use crate::stats::{FrontendReport, TenantReport, TenantStats};
use bytes::Bytes;
use scalia_engine::cluster::ScaliaCluster;
use scalia_engine::engine::Engine;
use scalia_providers::backend::StoreOp;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Tuning knobs of the admission controller and scheduler.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Bounded in-flight ops: the number of concurrent service lanes.
    pub lanes: usize,
    /// Global queue-depth bound; an arrival past it is rejected.
    pub max_queue_depth: usize,
    /// Per-tenant queue-depth bound; an arrival past it is rejected. This
    /// is what makes saturated throughput follow DRR weights: each tenant's
    /// admission rate is throttled by its own drain rate, not by a shared
    /// FIFO bound.
    pub max_tenant_queue: usize,
    /// Queue-wait deadline, µs; an op still queued past it is abandoned at
    /// dispatch. `0` disables deadline rejection.
    pub deadline_us: u64,
    /// DRR quantum: ops a tenant may serve per round per unit of weight.
    pub quantum: u64,
    /// Service time charged when the engine recorded no chunk-I/O makespan
    /// for the op (cache hit, metadata-only request), and the floor for
    /// every op's charged service time.
    pub base_service_us: u64,
    /// When true (default), every op's outcome is kept for post-hoc
    /// verification ([`FrontendService::outcomes`]). Disable for
    /// million-op benches where the counters suffice.
    pub record_outcomes: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            lanes: 4,
            max_queue_depth: 1024,
            max_tenant_queue: 256,
            deadline_us: 0,
            quantum: 1,
            base_service_us: 100,
            record_outcomes: true,
        }
    }
}

/// Handle to a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant_{}", self.0)
    }
}

/// One S3-flavored request, as replayed by the traffic harness. Put
/// payloads are synthesized at dispatch (`fill` byte × `size`) so a
/// million-op trace does not hold a million payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S3Op {
    /// `PUT /container/key` — maps onto [`Engine::put`].
    Put {
        /// Object key.
        key: ObjectKey,
        /// Payload size, bytes.
        size: u64,
        /// Deterministic payload fill byte.
        fill: u8,
        /// MIME type (drives usage classification).
        mime: String,
    },
    /// `GET /container/key` — maps onto [`Engine::get`].
    Get {
        /// Object key.
        key: ObjectKey,
    },
    /// `GET` with a `Range` header — maps onto [`Engine::get_range`].
    GetRange {
        /// Object key.
        key: ObjectKey,
        /// First byte of the range.
        offset: u64,
        /// Range length, bytes.
        len: u64,
    },
    /// `DELETE /container/key` — maps onto [`Engine::delete`].
    Delete {
        /// Object key.
        key: ObjectKey,
    },
    /// `GET /container` (list) — maps onto [`Engine::list`].
    List {
        /// Container to list.
        container: String,
    },
}

impl S3Op {
    /// The op's kind tag.
    pub fn kind(&self) -> OpKind {
        match self {
            S3Op::Put { .. } => OpKind::Put,
            S3Op::Get { .. } => OpKind::Get,
            S3Op::GetRange { .. } => OpKind::GetRange,
            S3Op::Delete { .. } => OpKind::Delete,
            S3Op::List { .. } => OpKind::List,
        }
    }

    /// The object key the op addresses (`None` for list).
    pub fn key(&self) -> Option<&ObjectKey> {
        match self {
            S3Op::Put { key, .. }
            | S3Op::Get { key }
            | S3Op::GetRange { key, .. }
            | S3Op::Delete { key } => Some(key),
            S3Op::List { .. } => None,
        }
    }
}

/// Kind tag of an [`S3Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Object write.
    Put,
    /// Whole-object read.
    Get,
    /// Byte-range read.
    GetRange,
    /// Object delete.
    Delete,
    /// Container listing.
    List,
}

/// What happened to one submitted op.
#[derive(Debug, Clone, PartialEq)]
pub enum OpStatus {
    /// Executed and succeeded.
    Completed {
        /// End-to-end latency (queue wait + service), µs.
        latency_us: u64,
        /// Payload bytes returned (reads) — 0 for writes/deletes.
        bytes_out: u64,
    },
    /// Refused at admission: queue depth bound hit.
    RejectedQueue,
    /// Abandoned at dispatch: queued past the deadline.
    RejectedDeadline {
        /// Time spent in queue, µs.
        waited_us: u64,
    },
    /// Executed and returned an engine error.
    Failed {
        /// The engine error.
        error: ScaliaError,
    },
}

/// The recorded outcome of one submitted op.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Submission sequence number (also the dispatch tiebreak).
    pub op_id: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Op kind.
    pub kind: OpKind,
    /// Addressed key (`None` for list).
    pub key: Option<ObjectKey>,
    /// Virtual arrival time, µs.
    pub arrival_us: u64,
    /// What happened.
    pub status: OpStatus,
}

/// Immediate answer of [`FrontendService::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Accepted and queued.
    Queued {
        /// The op's sequence number.
        op_id: u64,
    },
    /// Refused at admission (backpressure); the error carries the depth.
    Rejected {
        /// The op's sequence number.
        op_id: u64,
        /// Why (always [`ScaliaError::Overloaded`] today).
        error: ScaliaError,
    },
}

struct QueuedOp {
    op_id: u64,
    arrival_us: u64,
    op: S3Op,
}

struct Tenant {
    name: String,
    weight: u32,
    sla_us: u64,
    rule: StorageRule,
    queue: VecDeque<QueuedOp>,
    stats: TenantStats,
}

/// The S3-flavored front-end service (see crate docs).
///
/// Not `Sync`: one thread drives the service — that single dispatch order
/// is what makes a seeded replay bit-reproducible. Wrap it in a mutex if a
/// deployment ever wants concurrent clients.
pub struct FrontendService {
    cluster: Arc<ScaliaCluster>,
    config: FrontendConfig,
    tenants: Vec<Tenant>,
    scheduler: DrrScheduler,
    /// `free_at` per lane, µs.
    lanes: Vec<u64>,
    clock_us: u64,
    queued_total: usize,
    peak_queued: usize,
    peak_in_flight: usize,
    next_op_id: u64,
    /// Round-robin engine routing, advanced per dispatched op.
    next_engine: usize,
    outcomes: Vec<OpOutcome>,
    multipart: MultipartRegistry,
}

impl FrontendService {
    /// Creates a service over a cluster.
    pub fn new(cluster: Arc<ScaliaCluster>, config: FrontendConfig) -> Self {
        let lanes = vec![0u64; config.lanes.max(1)];
        FrontendService {
            cluster,
            scheduler: DrrScheduler::new(config.quantum),
            config,
            tenants: Vec::new(),
            lanes,
            clock_us: 0,
            queued_total: 0,
            peak_queued: 0,
            peak_in_flight: 0,
            next_op_id: 0,
            next_engine: 0,
            outcomes: Vec::new(),
            multipart: MultipartRegistry::default(),
        }
    }

    /// Registers a tenant: DRR `weight` (≥ 1), per-op SLA (µs, 0 = none)
    /// and the storage rule its writes use.
    pub fn register_tenant(
        &mut self,
        name: &str,
        weight: u32,
        sla_us: u64,
        rule: StorageRule,
    ) -> TenantId {
        let id = self.scheduler.add_tenant(weight);
        self.tenants.push(Tenant {
            name: name.to_string(),
            weight: weight.max(1),
            sla_us,
            rule,
            queue: VecDeque::new(),
            stats: TenantStats::default(),
        });
        debug_assert_eq!(id + 1, self.tenants.len());
        TenantId(id)
    }

    /// The current virtual time, µs.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// The cluster behind the service.
    pub fn cluster(&self) -> &Arc<ScaliaCluster> {
        &self.cluster
    }

    /// Submits one op arriving at `arrival_us` (non-decreasing across
    /// calls; an earlier time is clamped to the current clock). Everything
    /// dispatchable before the arrival executes first, then admission
    /// decides: queue or reject.
    pub fn submit(&mut self, arrival_us: u64, tenant: TenantId, op: S3Op) -> SubmitOutcome {
        let arrival_us = arrival_us.max(self.clock_us);
        self.dispatch_until(arrival_us);
        self.clock_us = arrival_us;

        let op_id = self.next_op_id;
        self.next_op_id += 1;
        self.tenants[tenant.0].stats.submitted += 1;

        let tenant_depth = self.tenants[tenant.0].queue.len();
        if self.queued_total >= self.config.max_queue_depth
            || tenant_depth >= self.config.max_tenant_queue
        {
            let error = ScaliaError::Overloaded {
                queued: self.queued_total,
                limit: if tenant_depth >= self.config.max_tenant_queue {
                    self.config.max_tenant_queue
                } else {
                    self.config.max_queue_depth
                },
            };
            self.tenants[tenant.0].stats.rejected_queue += 1;
            self.record_outcome(op_id, tenant, &op, arrival_us, OpStatus::RejectedQueue);
            return SubmitOutcome::Rejected { op_id, error };
        }

        self.tenants[tenant.0].queue.push_back(QueuedOp {
            op_id,
            arrival_us,
            op,
        });
        self.queued_total += 1;
        self.peak_queued = self.peak_queued.max(self.queued_total);
        self.scheduler.activate(tenant.0);
        // An idle lane picks the op up immediately.
        self.dispatch_until(arrival_us);
        SubmitOutcome::Queued { op_id }
    }

    /// Advances virtual time to `now_us`, dispatching everything whose lane
    /// frees before it. Use between trace events (outages, ticks) so state
    /// changes land at the right point in the replay.
    pub fn advance_to(&mut self, now_us: u64) {
        self.dispatch_until(now_us);
        self.clock_us = self.clock_us.max(now_us);
    }

    /// Runs every queue dry and advances the clock past the last
    /// completion.
    pub fn drain(&mut self) {
        self.dispatch_until(u64::MAX);
        let busy_until = self.lanes.iter().copied().max().unwrap_or(0);
        self.clock_us = self.clock_us.max(busy_until);
    }

    /// Ops currently queued (all tenants).
    pub fn queued(&self) -> usize {
        self.queued_total
    }

    /// Recorded per-op outcomes (empty when
    /// [`FrontendConfig::record_outcomes`] is off).
    pub fn outcomes(&self) -> &[OpOutcome] {
        &self.outcomes
    }

    /// Snapshot of every tenant's counters and latency percentiles.
    pub fn report(&self) -> FrontendReport {
        FrontendReport {
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantReport::from_stats(&t.name, t.weight, &t.stats))
                .collect(),
            clock_us: self.clock_us,
            peak_queued: self.peak_queued,
            peak_in_flight: self.peak_in_flight,
        }
    }

    // ------------------------------------------------------------------
    // The virtual-time executor
    // ------------------------------------------------------------------

    /// Dispatches queued ops onto lanes for as long as the earliest
    /// dispatch opportunity is ≤ `limit_us`.
    fn dispatch_until(&mut self, limit_us: u64) {
        while self.queued_total > 0 {
            // Earliest-free lane; ties broken by lowest index.
            let (lane_idx, lane_free) = self
                .lanes
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, free)| (free, i))
                .expect("at least one lane");
            // Every queued op arrived ≤ clock, so the dispatch time is the
            // lane's free time, never before the service's current clock.
            let t = lane_free.max(self.clock_us.min(limit_us));
            if t > limit_us {
                break;
            }
            let Some(tid) = ({
                let tenants = &self.tenants;
                self.scheduler.next(|t| tenants[t].queue.len())
            }) else {
                break;
            };
            let queued = self.tenants[tid].queue.pop_front().expect("scheduled op");
            self.queued_total -= 1;

            let waited = t.saturating_sub(queued.arrival_us);
            if self.config.deadline_us > 0 && waited > self.config.deadline_us {
                // Abandon without consuming lane time: the client gave up.
                self.tenants[tid].stats.rejected_deadline += 1;
                self.record_outcome(
                    queued.op_id,
                    TenantId(tid),
                    &queued.op,
                    queued.arrival_us,
                    OpStatus::RejectedDeadline { waited_us: waited },
                );
                continue;
            }

            let (result, service_us) = self.execute(tid, &queued.op);
            self.lanes[lane_idx] = t + service_us;
            let in_flight = self.lanes.iter().filter(|&&free| free > t).count();
            self.peak_in_flight = self.peak_in_flight.max(in_flight);

            let done = t + service_us;
            let latency = done.saturating_sub(queued.arrival_us);
            let stats = &mut self.tenants[tid].stats;
            let status = match result {
                Ok(bytes_out) => {
                    stats.completed += 1;
                    stats.bytes_out += bytes_out;
                    if let S3Op::Put { size, .. } = queued.op {
                        stats.bytes_in += size;
                    }
                    stats.latency.record(latency);
                    let sla = self.tenants[tid].sla_us;
                    if sla > 0 && latency > sla {
                        self.tenants[tid].stats.sla_violations += 1;
                    }
                    OpStatus::Completed {
                        latency_us: latency,
                        bytes_out,
                    }
                }
                Err(error) => {
                    stats.failed += 1;
                    OpStatus::Failed { error }
                }
            };
            self.record_outcome(
                queued.op_id,
                TenantId(tid),
                &queued.op,
                queued.arrival_us,
                status,
            );
        }
    }

    /// Executes one op against the next engine (round-robin, in dispatch
    /// order — deterministic) and returns `(bytes_out, virtual service µs)`.
    fn execute(&mut self, tid: usize, op: &S3Op) -> (Result<u64>, u64) {
        let engines = self.cluster.engines();
        let engine: Arc<Engine> = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        let infra = engine.infra().clone();
        let (result, op_class) = match op {
            S3Op::Put {
                key,
                size,
                fill,
                mime,
            } => {
                let data = Bytes::from(vec![*fill; *size as usize]);
                let rule = self.tenants[tid].rule.clone();
                (
                    engine.put(key, data, mime, rule, None).map(|_| 0u64),
                    Some(StoreOp::Put),
                )
            }
            S3Op::Get { key } => (engine.get(key).map(|b| b.len() as u64), Some(StoreOp::Get)),
            S3Op::GetRange { key, offset, len } => (
                engine.get_range(key, *offset, *len).map(|b| b.len() as u64),
                Some(StoreOp::Get),
            ),
            S3Op::Delete { key } => (engine.delete(key).map(|_| 0u64), Some(StoreOp::Delete)),
            S3Op::List { container } => (Ok(engine.list(container).len() as u64), None),
        };
        let recorded = op_class.and_then(|c| infra.take_last_io_latency(c));
        let service_us = recorded.unwrap_or(0).max(self.config.base_service_us);
        (result, service_us)
    }

    fn record_outcome(
        &mut self,
        op_id: u64,
        tenant: TenantId,
        op: &S3Op,
        arrival_us: u64,
        status: OpStatus,
    ) {
        if !self.config.record_outcomes {
            return;
        }
        self.outcomes.push(OpOutcome {
            op_id,
            tenant,
            kind: op.kind(),
            key: op.key().cloned(),
            arrival_us,
            status,
        });
    }

    // ------------------------------------------------------------------
    // Direct (synchronous) S3 surface
    // ------------------------------------------------------------------

    /// `PUT` an object immediately (no queueing; for interactive callers).
    pub fn put_object(
        &mut self,
        tenant: TenantId,
        key: &ObjectKey,
        data: Bytes,
        mime: &str,
    ) -> Result<ObjectMeta> {
        let rule = self.tenants[tenant.0].rule.clone();
        let engines = self.cluster.engines();
        let engine = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        engine.put(key, data, mime, rule, None)
    }

    /// `GET` an object immediately.
    pub fn get_object(&mut self, key: &ObjectKey) -> Result<Bytes> {
        let engines = self.cluster.engines();
        let engine = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        engine.get(key)
    }

    /// `DELETE` an object immediately.
    pub fn delete_object(&mut self, key: &ObjectKey) -> Result<()> {
        let engines = self.cluster.engines();
        let engine = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        engine.delete(key)
    }

    /// List a container immediately.
    pub fn list_bucket(&mut self, container: &str) -> Vec<ObjectKey> {
        let engines = self.cluster.engines();
        let engine = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        engine.list(container)
    }

    // ------------------------------------------------------------------
    // Multipart surface (see `multipart` module docs for the contract)
    // ------------------------------------------------------------------

    /// Starts a multipart upload for `tenant`; returns the upload id every
    /// later part/complete/abort call must present.
    pub fn create_multipart(
        &mut self,
        tenant: TenantId,
        key: &ObjectKey,
        mime: &str,
        size_hint: Option<ByteSize>,
    ) -> UploadId {
        let rule = self.tenants[tenant.0].rule.clone();
        let engines = self.cluster.engines();
        let engine = engines[self.next_engine % engines.len()].clone();
        self.next_engine += 1;
        self.multipart.create(&engine, key, mime, rule, size_hint)
    }

    /// Uploads one part. Parts are 1-based and strictly consecutive.
    pub fn upload_part(&mut self, id: UploadId, part_number: u64, data: &[u8]) -> Result<()> {
        self.multipart.upload_part(id, part_number, data)
    }

    /// Completes the upload, committing the object; the id is gone
    /// afterwards (a second complete is [`ScaliaError::NoSuchUpload`]).
    pub fn complete_multipart(&mut self, id: UploadId) -> Result<ObjectMeta> {
        self.multipart.complete(id)
    }

    /// Aborts the upload, reclaiming landed chunks; the id is gone
    /// afterwards.
    pub fn abort_multipart(&mut self, id: UploadId) -> Result<()> {
        self.multipart.abort(id)
    }
}

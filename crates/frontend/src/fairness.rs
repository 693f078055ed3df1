//! Weighted deficit round-robin (DRR) across tenant queues.
//!
//! Classic DRR with unit op cost: active tenants sit in a round-robin ring;
//! when a tenant reaches the head of the ring its deficit is replenished by
//! `weight × quantum`, and each op served from its queue spends one unit of
//! deficit. A tenant whose deficit runs dry rotates to the tail; a tenant
//! whose queue empties leaves the ring (and forfeits its remaining deficit,
//! so idle time is not bankable). Under saturation every tenant therefore
//! receives `weight × quantum` servings per round — lane time proportional
//! to its weight, with fairness error bounded by one round.
//!
//! The scheduler does not own the queues: the caller supplies a
//! `queue_len` closure so the same structure schedules whatever the service
//! stores. All state is index-based and iteration order is fixed, so
//! scheduling is deterministic.

use std::collections::VecDeque;

/// Per-tenant scheduling state.
struct TenantSched {
    weight: u32,
    /// Servings left in the tenant's current round.
    deficit: u64,
    /// True when the tenant (re-)entered the ring and its deficit must be
    /// replenished on its next visit to the head.
    fresh: bool,
    /// True while the tenant sits in the active ring.
    in_ring: bool,
}

/// A weighted deficit round-robin scheduler over tenant indices.
pub(crate) struct DrrScheduler {
    quantum: u64,
    tenants: Vec<TenantSched>,
    ring: VecDeque<usize>,
}

impl DrrScheduler {
    /// Creates a scheduler; `quantum` is the per-weight-unit number of ops a
    /// tenant may serve per round (≥ 1).
    pub(crate) fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            tenants: Vec::new(),
            ring: VecDeque::new(),
        }
    }

    /// Registers a tenant with the given weight (≥ 1); returns its index.
    pub(crate) fn add_tenant(&mut self, weight: u32) -> usize {
        self.tenants.push(TenantSched {
            weight: weight.max(1),
            deficit: 0,
            fresh: true,
            in_ring: false,
        });
        self.tenants.len() - 1
    }

    /// Marks a tenant as having queued work. Call on every enqueue; a
    /// tenant already in the ring is left where it is (no queue-jumping by
    /// re-announcing).
    pub(crate) fn activate(&mut self, tenant: usize) {
        let state = &mut self.tenants[tenant];
        if !state.in_ring {
            state.in_ring = true;
            state.fresh = true;
            self.ring.push_back(tenant);
        }
    }

    /// Picks the tenant to serve one op from, spending one unit of its
    /// deficit. `queue_len` reports a tenant's current queue length; the
    /// caller must pop exactly one op from the returned tenant's queue.
    /// Returns `None` when no tenant has queued work.
    pub(crate) fn next(&mut self, queue_len: impl Fn(usize) -> usize) -> Option<usize> {
        // Each iteration either returns, removes a tenant from the ring, or
        // rotates one exhausted tenant to the tail after replenishing the
        // next visit — the loop terminates because every tenant in the ring
        // with work gets a fresh positive deficit at its head visit.
        loop {
            let &tid = self.ring.front()?;
            let state = &mut self.tenants[tid];
            if queue_len(tid) == 0 {
                // Queue drained since activation: leave the ring and forfeit
                // the unused deficit (idle time is not bankable).
                state.in_ring = false;
                state.deficit = 0;
                state.fresh = true;
                self.ring.pop_front();
                continue;
            }
            if state.fresh {
                state.deficit = state.weight as u64 * self.quantum;
                state.fresh = false;
            }
            if state.deficit == 0 {
                // Round exhausted: rotate to the tail, replenish next visit.
                state.fresh = true;
                self.ring.pop_front();
                self.ring.push_back(tid);
                continue;
            }
            state.deficit -= 1;
            return Some(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `rounds` ops from saturated queues and counts per-tenant
    /// servings.
    fn serve_saturated(weights: &[u32], ops: usize) -> Vec<usize> {
        let mut drr = DrrScheduler::new(1);
        for &w in weights {
            let t = drr.add_tenant(w);
            drr.activate(t);
        }
        let mut served = vec![0usize; weights.len()];
        for _ in 0..ops {
            let t = drr.next(|_| usize::MAX).unwrap();
            served[t] += 1;
        }
        served
    }

    #[test]
    fn saturated_tenants_share_by_weight() {
        let served = serve_saturated(&[1, 2, 5], 8_000);
        let total: usize = served.iter().sum();
        assert_eq!(total, 8_000);
        for (i, &w) in [1u32, 2, 5].iter().enumerate() {
            let share = served[i] as f64 / total as f64;
            let want = w as f64 / 8.0;
            assert!(
                (share - want).abs() < 0.01,
                "tenant {i}: share {share:.3} vs weight share {want:.3}"
            );
        }
    }

    #[test]
    fn empty_queue_leaves_the_ring_and_forfeits_deficit() {
        let mut drr = DrrScheduler::new(1);
        let a = drr.add_tenant(10);
        let b = drr.add_tenant(1);
        drr.activate(a);
        drr.activate(b);
        // Tenant a's queue is already empty: every serving goes to b.
        for _ in 0..5 {
            assert_eq!(drr.next(|t| if t == a { 0 } else { 1 }), Some(b));
        }
        // a returns with work later — fresh deficit, no banked backlog.
        drr.activate(a);
        let mut a_served = 0;
        for _ in 0..22 {
            if drr.next(|_| 1) == Some(a) {
                a_served += 1;
            }
        }
        assert_eq!(a_served, 20, "one full round of a's replenished deficit");
    }

    #[test]
    fn no_work_returns_none() {
        let mut drr = DrrScheduler::new(4);
        let t = drr.add_tenant(3);
        assert_eq!(drr.next(|_| 1), None, "inactive tenant is never picked");
        drr.activate(t);
        assert_eq!(drr.next(|_| 0), None, "empty queue is never picked");
        assert_eq!(drr.tenants.len(), 1);
    }
}

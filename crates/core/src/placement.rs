//! Algorithm 1: computing the best provider set for an object.
//!
//! [`PlacementEngine::best_placement`] searches over combinations of the
//! available providers for the cheapest feasible placement: for each
//! candidate set it checks the lock-in constraint, the zone constraint, the
//! durability constraint (via Algorithm 2, which also yields the largest
//! admissible threshold `m`), the availability constraint, and the providers'
//! chunk-size constraints, then prices the candidate with `computePrice` and
//! keeps the cheapest.
//!
//! # Search internals
//!
//! The search is **exact** — it returns the same `(providers, m, cost)` the
//! paper's enumerate-everything Algorithm 1 would — but it is organised as
//! an allocation-free branch-and-bound rather than a materialized sweep:
//!
//! * **Candidate filtering.** Providers that can never appear in a feasible
//!   set are dropped up front: providers outside every allowed zone, and
//!   providers whose chunk-size cap is below `size / |P|` (the smallest
//!   chunk any threshold could produce). This mirrors the seed's behaviour
//!   (such sets were enumerated and rejected) without visiting them.
//!
//! * **Cost-ordered DFS.** Each remaining provider gets an *admissible
//!   per-provider cost lower bound*: its storage + inbound-bandwidth +
//!   write-ops contribution assuming the most favourable threshold
//!   (`m = |P|`, i.e. the smallest possible chunk). Providers are sorted by
//!   that bound and the search walks subsets depth-first in that order, so
//!   cheap sets are found early and the incumbent drops fast.
//!
//! * **Pruning.** A partial set `S` can only grow more expensive: every
//!   completion costs at least `Σ_{p∈S} lb(p)` plus an admissible floor on
//!   the read-path cost. The floor is **read-path-aware**: any completion
//!   through child `i` draws its members from the DFS path plus the sorted
//!   suffix `i..`, so the floor uses `bw_out · min rate + read ops · min
//!   rate` (plus — under a latency-pricing rule — `weight · reads · min
//!   latency-unit` at the smallest possible chunk) minimised over *exactly
//!   that* path ∪ suffix set (suffix minima precomputed, path minima
//!   maintained per depth), never over the whole catalog — strictly
//!   tighter as the DFS descends, and monotone across sorted siblings.
//!   Whenever that optimistic bound exceeds the incumbent, the entire
//!   subtree is skipped; because siblings are sorted by `lb`, the remaining
//!   siblings can be skipped too. Subtrees that cannot reach the rule's
//!   lock-in minimum set size are skipped as well. Bounds are floored (with
//!   a nano-dollar safety margin) so rounding can never prune an optimum,
//!   and pruning is strict (`>` only), so cost *ties* are always explored.
//!
//! * **Pairwise provider dominance.** Before the DFS, every ordered
//!   candidate pair is tested for *strict dominance*: `p` dominates `q`
//!   when their SLAs are identical (so substituting one for the other
//!   leaves every survival distribution — and hence the chosen threshold —
//!   unchanged), `p`'s chunk-size constraint is no stricter, `p`'s
//!   membership term is **strictly** cheaper at every threshold, and — when
//!   the usage has a read path — `p` ranks strictly ahead of `q` with a no-
//!   larger billed read term at every threshold, *and* `p` is
//!   read-coherent against the whole candidate pool (whenever `p` ranks at
//!   or below any third candidate `w`, its read term is also no larger —
//!   this covers the case where substituting `p` displaces `w`, not `q`,
//!   from the read selection). Under those conditions any feasible set
//!   containing `q` but not `p` is *strictly* beaten by the same set with
//!   `p` swapped in, so the DFS never **branches on** `q` unless every
//!   dominator of `q` is already on the path (dominators are restricted to
//!   earlier-sorted candidates, which the ascending-order DFS can actually
//!   have placed on the path). Sets containing both survive — dominance is
//!   a closure rule, not an exclusion — which is what keeps the search
//!   exact, including the lexicographic tie-break: the swap argument is
//!   strict, so no minimum-cost set is ever skipped.
//!
//! * **Tie-breaking.** The seed enumerated subsets in increasing-bitmask
//!   order and kept the first cheapest set. The branch-and-bound tracks the
//!   incumbent as the lexicographically smallest `(cost, bitmask)` pair —
//!   over the *original* catalog positions — which selects exactly the same
//!   winner regardless of visit order.
//!
//! * **Incremental, allocation-free node evaluation.** Candidate sets are
//!   bitmasks plus an insertion-maintained catalog-ordered index list; the
//!   constraint math runs on fixed-size Poisson-binomial arrays
//!   ([`crate::pbinom`]) *extended incrementally* along the DFS path
//!   (`O(n)` per node instead of the seed's nested combination
//!   enumeration); the chunk-size check is an `O(1)` comparison against
//!   the path's maximum per-provider minimum threshold; and pricing uses
//!   per-(provider, threshold) `Money` tables precomputed once per search,
//!   so each node's price is integer additions plus one `O(n)` selection
//!   of the read providers — bit-identical to `computePrice`. The winning
//!   `Placement` is materialized once, at the end, from the best bitmask.
//!
//! Because every feasible subset is still (conceptually) considered, the
//! "inclusion vs exclusion of a chunk-size-constrained provider" comparison
//! the paper describes happens naturally, exactly as before. The
//! seed-equivalent materializing implementation is preserved in
//! [`crate::reference`] and is differential-tested against this one.

use crate::availability::availability_from_distribution;
use crate::combinations::mask_members;
use crate::cost::{compute_price_with_scratch, PredictedUsage, PriceTables};
use crate::durability::threshold_from_distribution;
use crate::pbinom::SurvivalDistribution;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::error::ScaliaError;
use scalia_types::ids::ProviderId;
use scalia_types::money::Money;
use scalia_types::rules::StorageRule;
use scalia_types::time::HOURS_PER_MONTH;
use scalia_types::ErasureParams;
use std::borrow::Borrow;
use std::fmt;

/// A chosen placement: the provider set and the erasure-coding threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The providers that will each hold one chunk.
    pub providers: Vec<ProviderDescriptor>,
    /// The reconstruction threshold `m` (any `m` chunks rebuild the object).
    pub m: u32,
}

impl Placement {
    /// The number of chunks / providers `n`.
    pub fn n(&self) -> u32 {
        self.providers.len() as u32
    }

    /// The erasure-coding parameters of the placement.
    pub fn erasure_params(&self) -> ErasureParams {
        ErasureParams::new(self.m, self.n()).expect("placement always has 0 < m <= n")
    }

    /// The provider ids of the placement, in chunk order.
    pub fn provider_ids(&self) -> Vec<ProviderId> {
        self.providers.iter().map(|p| p.id).collect()
    }

    /// Returns `true` if both placements use the same provider set (order
    /// insensitive) and the same threshold.
    pub fn same_as(&self, other: &Placement) -> bool {
        self.m == other.m
            && self.providers.len() == other.providers.len()
            && self
                .providers
                .iter()
                .all(|p| other.providers.iter().any(|q| q.id == p.id))
    }

    /// A compact human-readable label such as `[S3(h), S3(l), Azu; m:2]`.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self.providers.iter().map(|p| p.name.as_str()).collect();
        format!("[{}; m:{}]", names.join(", "), self.m)
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The result of a successful placement search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// The cheapest feasible placement.
    pub placement: Placement,
    /// Its expected cost over the decision period used for the search.
    pub expected_cost: Money,
}

/// The placement engine front-end.
#[derive(Debug, Clone, Default)]
pub struct PlacementEngine;

impl PlacementEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        PlacementEngine
    }

    /// Algorithm 1: returns the cheapest feasible placement of an object
    /// with storage rule `rule` and predicted usage `usage` over the
    /// available `providers`. The search is an allocation-free
    /// branch-and-bound that returns the same answer as enumerating every
    /// subset (see the module docs for the bound and tie-breaking argument).
    pub fn best_placement(
        &self,
        rule: &StorageRule,
        usage: &PredictedUsage,
        providers: &[ProviderDescriptor],
    ) -> Result<PlacementDecision, ScaliaError> {
        branch_and_bound(rule, usage, providers, true).ok_or_else(|| {
            ScaliaError::NoFeasiblePlacement {
                rule: rule.name.clone(),
            }
        })
    }

    /// Evaluates one candidate provider set against every constraint of the
    /// rule; returns `(threshold, price)` if feasible.
    pub fn evaluate_set(
        rule: &StorageRule,
        usage: &PredictedUsage,
        pset: &[ProviderDescriptor],
    ) -> Option<(u32, Money)> {
        let mut rank_scratch = Vec::new();
        evaluate_candidate(rule, usage, pset, &mut rank_scratch)
    }
}

/// The exact subset search with dominance pruning disabled — identical
/// answers, strictly more nodes visited. Exposed (doc-hidden) for
/// benchmarks and A/B tests that measure the pruning itself.
#[doc(hidden)]
pub fn exhaustive_search_without_dominance(
    rule: &StorageRule,
    usage: &PredictedUsage,
    providers: &[ProviderDescriptor],
) -> Option<PlacementDecision> {
    branch_and_bound(rule, usage, providers, false)
}

/// Evaluates one candidate set over borrowed descriptors with a reusable
/// read-ranking scratch buffer. This is the per-subset step of the search:
/// lock-in, zones, durability (Algorithm 2 via the Poisson-binomial DP),
/// availability (a smaller threshold tolerates more unreachable providers,
/// so the durability-maximal threshold is lowered until the availability
/// requirement is met — the paper's §IV-E fallback behaviour), chunk-size
/// constraints, and finally `computePrice`.
fn evaluate_candidate<P: Borrow<ProviderDescriptor>>(
    rule: &StorageRule,
    usage: &PredictedUsage,
    pset: &[P],
    rank_scratch: &mut Vec<(Money, usize)>,
) -> Option<(u32, Money)> {
    // Lock-in: lockin(pset) = 1/|pset| must not exceed the rule's factor.
    if !rule.lockin_satisfied(pset.len()) {
        return None;
    }
    // Zones: every provider must operate in at least one allowed zone.
    if pset
        .iter()
        .any(|p| !p.borrow().zones.intersects(rule.zones))
    {
        return None;
    }
    // Durability (Algorithm 2): the largest admissible threshold.
    let durability = SurvivalDistribution::from_probabilities(
        pset.iter().map(|p| p.borrow().sla.durability.probability()),
    );
    let max_threshold = threshold_from_distribution(&durability, rule.durability);
    if max_threshold == 0 {
        return None;
    }
    // Availability: lower the threshold until the set is available enough;
    // if even m = 1 is not available enough, the set is infeasible.
    let reachability = SurvivalDistribution::from_probabilities(
        pset.iter()
            .map(|p| p.borrow().sla.availability.probability()),
    );
    let threshold = (1..=max_threshold)
        .rev()
        .find(|&m| availability_from_distribution(&reachability, m).meets(rule.availability))?;
    // Chunk-size constraints: every provider must accept a chunk of
    // size / m bytes.
    let chunk = usage.size.div_ceil(threshold as usize);
    if pset.iter().any(|p| !p.borrow().accepts_chunk(chunk)) {
        return None;
    }
    Some((
        threshold,
        compute_price_with_scratch(pset, threshold, usage, rule.latency_weight, rank_scratch),
    ))
}

/// One provider admitted to the branch-and-bound, with its original catalog
/// position (as a bit), its admissible cost lower bound, and the smallest
/// threshold whose chunk size it accepts.
struct Candidate<'a> {
    provider: &'a ProviderDescriptor,
    orig_bit: u64,
    lower_bound: Money,
    min_m: u32,
    /// The quantized per-read latency penalty at the smallest possible
    /// chunk (`m = n_cand`): this candidate's admissible floor on what it
    /// would bill per read if it ever served reads. `Money::ZERO` when the
    /// rule does not price latency.
    unit_floor: Money,
}

/// Admissible lower bound on what including `provider` adds to any feasible
/// superset's price: storage + inbound bandwidth + write ops, assuming the
/// most favourable threshold `m = n_max` (smallest possible chunk). Floored
/// with a nano-dollar margin so `Money` rounding can never make the bound
/// exceed a true cost.
fn provider_lower_bound(
    provider: &ProviderDescriptor,
    usage: &PredictedUsage,
    n_max: usize,
) -> Money {
    let n = n_max as f64;
    let months = usage.duration_hours / HOURS_PER_MONTH as f64;
    let dollars = provider.pricing.storage_gb_month.dollars() * (usage.size.as_gb() / n) * months
        + provider.pricing.bandwidth_in_gb.dollars() * (usage.bw_in.as_gb() / n)
        + provider.pricing.ops_per_1000.dollars() * (usage.writes as f64 / 1000.0);
    Money::from_nanos(((dollars * 1e9).floor() as i64 - 64).max(0))
}

/// Admissible floor on the read-path cost of any completion of the current
/// DFS node through child `i`: every such set draws its members from the
/// path (the `depth` providers already placed) plus the sorted suffix
/// `i..`, so the whole predicted outbound volume leaves at no less than
/// the cheapest such rate, at least one such provider bills the read
/// operations, and — under a latency-pricing rule — at least one read
/// provider pays a per-read penalty no smaller than the cheapest quantized
/// unit over path ∪ suffix.
///
/// The latency floor is built from the *same quantized per-read unit* the
/// pricer bills ([`crate::cost::per_read_latency_penalty`] rounds to
/// nano-dollars before scaling by `reads`), evaluated at each provider's
/// fastest possible chunk (the `m = n_cand` threshold: expected latency is
/// monotone in payload bytes, observed summaries are payload-independent,
/// and the nano-dollar rounding preserves monotonicity) — a floor computed
/// from the un-quantized f64 product could exceed the billed penalty by up
/// to half a nano-dollar *per read* and prune an optimal subtree.
///
/// The suffix minima shrink toward the identity as `i` grows, so the floor
/// is monotone non-decreasing in `i` — which keeps the sorted-sibling
/// `break` in [`dfs`] admissible.
fn read_floor_at(state: &SearchState<'_>, i: usize, depth: usize) -> Money {
    if !state.has_read_path {
        return Money::ZERO;
    }
    // `i < n_cand` whenever this is called, so the suffix is nonempty and
    // both minima are finite even at depth 0.
    let min_bw = state.path_min_bw[depth].min(state.suffix_min_bw[i]);
    let min_ops = state.path_min_ops[depth].min(state.suffix_min_ops[i]);
    let dollars = min_bw * state.usage_out_gb + min_ops * (state.usage_reads as f64 / 1000.0);
    let mut floor = Money::from_nanos(((dollars * 1e9).floor() as i64 - 64).max(0));
    if state.latency_weight > 0.0 {
        let unit = state.path_min_unit[depth].min(state.suffix_min_unit[i]);
        floor += unit.scale(state.usage_reads as f64);
    }
    floor
}

/// Computes, for each sorted candidate, the bitmask (over *sorted*
/// indices) of earlier-sorted candidates that strictly dominate it — the
/// precomputation behind the closure rule (see the module docs for the
/// exactness argument). Dominators are restricted to earlier-sorted
/// candidates on purpose: the ascending-order DFS can only ever have
/// placed those on the path by the time it considers branching here.
fn compute_dominators(candidates: &[Candidate<'_>], tables: &PriceTables) -> Vec<u64> {
    let n = candidates.len();
    let mut dominators = vec![0u64; n];
    if n < 2 {
        return dominators;
    }
    let n_m = n as u32;
    let has_reads = tables.has_reads();
    // Read coherence of `a` against the whole pool: substituting `a` into
    // a set may displace some *third* member `w` from the read selection —
    // that displacement only provably saves money if, whenever `a` ranks
    // at or below `w`, `a`'s billed read term is also no larger. Without a
    // read path the selection does not exist and coherence is vacuous.
    let coherent: Vec<bool> = (0..n)
        .map(|a| {
            !has_reads
                || (0..n).filter(|&w| w != a).all(|w| {
                    (1..=n_m).all(|m| {
                        tables.rank_term(a, m) > tables.rank_term(w, m)
                            || tables.read_term(a, m) <= tables.read_term(w, m)
                    })
                })
        })
        .collect();
    for b in 1..n {
        for a in 0..b {
            let (pa, pb) = (candidates[a].provider, candidates[b].provider);
            // Identical SLAs keep both survival distributions — and hence
            // the chosen threshold — unchanged under substitution.
            if pa.sla.durability.probability() != pb.sla.durability.probability()
                || pa.sla.availability.probability() != pb.sla.availability.probability()
            {
                continue;
            }
            // `a` must accept every chunk size `b` accepts.
            if candidates[a].min_m > candidates[b].min_m {
                continue;
            }
            if !coherent[a] {
                continue;
            }
            // Strictly cheaper membership term at every threshold — strict
            // so the swap argument beats cost *ties* and the lexicographic
            // tie-break never loses a minimum-cost set.
            if !(1..=n_m).all(|m| tables.base_term(a, m) < tables.base_term(b, m)) {
                continue;
            }
            // Read path: `a` must rank strictly ahead (so it enters the
            // read selection whenever `b` would have) and bill no more.
            if has_reads
                && !(1..=n_m).all(|m| {
                    tables.rank_term(a, m) < tables.rank_term(b, m)
                        && tables.read_term(a, m) <= tables.read_term(b, m)
                })
            {
                continue;
            }
            dominators[b] |= 1u64 << a;
        }
    }
    dominators
}

struct SearchState<'a> {
    rule: &'a StorageRule,
    candidates: Vec<Candidate<'a>>,
    /// Per-(candidate, threshold) price terms; pricing a set is integer
    /// adds plus one selection.
    tables: PriceTables,
    /// Read-path floor ingredients (see [`read_floor_at`]).
    /// `has_read_path` short-circuits the floor to zero for
    /// write/storage-only usage.
    has_read_path: bool,
    usage_out_gb: f64,
    usage_reads: u64,
    latency_weight: f64,
    /// Minima over the sorted suffix `i..` of the outbound-bandwidth rate,
    /// the ops rate, and the quantized per-read latency unit; entry
    /// `n_cand` is the identity (`∞` / `Money::MAX`).
    suffix_min_bw: Vec<f64>,
    suffix_min_ops: Vec<f64>,
    suffix_min_unit: Vec<Money>,
    /// The same minima over the current DFS path, per depth; entry 0 is
    /// the identity. Like the distribution stacks, backtracking needs no
    /// undo — levels above the parent depth are scratch.
    path_min_bw: Vec<f64>,
    path_min_ops: Vec<f64>,
    path_min_unit: Vec<Money>,
    /// `dominators[i]` = bitmask over *sorted* indices of the
    /// earlier-sorted candidates that strictly dominate candidate `i`
    /// (all zeros when dominance pruning is disabled).
    dominators: Vec<u64>,
    min_set: usize,
    /// Required durability probability, for subtree feasibility pruning.
    required_durability: f64,
    /// `suffix_fail[i]` = Π over candidates `i..` of (1 − durability):
    /// the all-lost probability of every provider still eligible.
    suffix_fail: Vec<f64>,
    /// Incrementally maintained survival distributions, one per DFS depth
    /// (index = set size). Entry `d+1` is written from entry `d` on
    /// descend; backtracking just drops back to the parent index.
    dura_stack: Vec<SurvivalDistribution>,
    avail_stack: Vec<SurvivalDistribution>,
    /// Π (1 − durability) over the current path's providers, per depth.
    fail_prod: Vec<f64>,
    /// Max over the current path of each provider's minimum acceptable
    /// threshold, per depth: the chunk-size check in O(1).
    minm_stack: Vec<u32>,
    /// The current set in original catalog order (insertion-maintained):
    /// the bits for positional insertion, the candidate indices for the
    /// price tables.
    current_bits: Vec<u64>,
    current_cands: Vec<usize>,
    rank_scratch: Vec<(Money, usize)>,
    /// Incumbent: lexicographically smallest (price, original-bitmask).
    best_price: Money,
    best_mask: u64,
    best_m: u32,
}

/// The exact branch-and-bound subset search. See the module docs.
/// `use_dominance` toggles the pairwise-dominance closure rule — both
/// settings return identical answers; disabling it only visits more nodes.
fn branch_and_bound(
    rule: &StorageRule,
    usage: &PredictedUsage,
    providers: &[ProviderDescriptor],
    use_dominance: bool,
) -> Option<PlacementDecision> {
    let n_all = providers.len();
    if n_all == 0 {
        return None;
    }
    assert!(n_all < 64, "placement search limited to 63 providers");

    // Filter providers that can never be part of a feasible set: outside
    // every allowed zone, or rejecting even the smallest reachable chunk.
    // A feasible set's threshold never exceeds its size, and its size never
    // exceeds the candidate count — so each removal can strand further
    // providers; iterate to the fixpoint.
    let mut eligible: Vec<(usize, &ProviderDescriptor)> = providers
        .iter()
        .enumerate()
        .filter(|(_, p)| p.zones.intersects(rule.zones))
        .collect();
    loop {
        let n_c = eligible.len();
        if n_c == 0 {
            return None;
        }
        let min_chunk = usage.size.div_ceil(n_c);
        let before = eligible.len();
        eligible.retain(|(_, p)| p.accepts_chunk(min_chunk));
        if eligible.len() == before {
            break;
        }
    }
    let n_cand = eligible.len();
    let min_read_chunk = crate::cost::chunk_bytes_for(usage.size, n_cand as u32);
    let mut candidates: Vec<Candidate<'_>> = eligible
        .into_iter()
        .map(|(i, p)| Candidate {
            provider: p,
            orig_bit: 1u64 << i,
            lower_bound: provider_lower_bound(p, usage, n_all),
            // Smallest threshold whose chunk this provider accepts
            // (monotone: larger m ⇒ smaller chunk). Exists by the filter.
            min_m: (1..=n_cand as u32)
                .find(|&m| p.accepts_chunk(usage.size.div_ceil(m as usize)))
                .expect("filtered providers accept the smallest chunk"),
            unit_floor: if rule.latency_weight > 0.0 {
                crate::cost::per_read_latency_penalty(p, min_read_chunk, rule.latency_weight)
            } else {
                Money::ZERO
            },
        })
        .collect();
    // Cheapest-bound first: cheap sets are explored early, shrinking the
    // incumbent fast and letting the sorted-sibling `break` prune whole
    // suffixes.
    candidates.sort_by(|a, b| {
        a.lower_bound
            .cmp(&b.lower_bound)
            .then(a.orig_bit.cmp(&b.orig_bit))
    });

    // Suffix products of failure probabilities, in the sorted order: used
    // to discard subtrees that cannot meet the durability requirement even
    // with every remaining provider mirrored in.
    let mut suffix_fail = vec![1.0f64; n_cand + 1];
    for i in (0..n_cand).rev() {
        suffix_fail[i] =
            suffix_fail[i + 1] * (1.0 - candidates[i].provider.sla.durability.probability());
    }

    // Suffix minima of the read-path floor ingredients, in sorted order.
    let mut suffix_min_bw = vec![f64::INFINITY; n_cand + 1];
    let mut suffix_min_ops = vec![f64::INFINITY; n_cand + 1];
    let mut suffix_min_unit = vec![Money::MAX; n_cand + 1];
    for i in (0..n_cand).rev() {
        let p = candidates[i].provider;
        suffix_min_bw[i] = suffix_min_bw[i + 1].min(p.pricing.bandwidth_out_gb.dollars());
        suffix_min_ops[i] = suffix_min_ops[i + 1].min(p.pricing.ops_per_1000.dollars());
        suffix_min_unit[i] = suffix_min_unit[i + 1].min(candidates[i].unit_floor);
    }

    let cand_refs: Vec<&ProviderDescriptor> = candidates.iter().map(|c| c.provider).collect();
    let tables = PriceTables::build(&cand_refs, n_cand, usage, rule.latency_weight);
    let dominators = if use_dominance {
        compute_dominators(&candidates, &tables)
    } else {
        vec![0u64; n_cand]
    };
    let mut state = SearchState {
        rule,
        candidates,
        tables,
        has_read_path: usage.reads > 0 || !usage.bw_out.is_zero(),
        usage_out_gb: usage.bw_out.as_gb(),
        usage_reads: usage.reads,
        latency_weight: rule.latency_weight,
        suffix_min_bw,
        suffix_min_ops,
        suffix_min_unit,
        path_min_bw: vec![f64::INFINITY; n_cand + 1],
        path_min_ops: vec![f64::INFINITY; n_cand + 1],
        path_min_unit: vec![Money::MAX; n_cand + 1],
        dominators,
        min_set: rule.min_providers(),
        required_durability: rule.durability.probability(),
        suffix_fail,
        dura_stack: vec![SurvivalDistribution::empty(); n_cand + 1],
        avail_stack: vec![SurvivalDistribution::empty(); n_cand + 1],
        fail_prod: vec![1.0f64; n_cand + 1],
        minm_stack: vec![1u32; n_cand + 1],
        current_bits: Vec::with_capacity(n_cand),
        current_cands: Vec::with_capacity(n_cand),
        rank_scratch: Vec::with_capacity(n_cand),
        best_price: Money::MAX,
        best_mask: u64::MAX,
        best_m: 0,
    };
    dfs(&mut state, 0, Money::ZERO, 0, 0, 0);

    if state.best_mask == u64::MAX {
        return None;
    }
    // Materialize the winner once, in original catalog order (matching the
    // order the seed's materialized enumeration produced).
    let placement = Placement {
        providers: mask_members(providers, state.best_mask).cloned().collect(),
        m: state.best_m,
    };
    Some(PlacementDecision {
        placement,
        expected_cost: state.best_price,
    })
}

fn dfs(
    state: &mut SearchState<'_>,
    start: usize,
    partial_lb: Money,
    mask: u64,
    depth: usize,
    sorted_mask: u64,
) {
    for i in start..state.candidates.len() {
        // Not enough providers left to ever satisfy the lock-in minimum.
        if depth + (state.candidates.len() - i) < state.min_set {
            break;
        }
        // Even mirroring (m = 1) across the whole path plus every provider
        // from `i` on cannot reach the durability requirement: the subtree
        // is infeasible. Later siblings have even fewer providers left, so
        // the loop can stop. (1e-9 of slack keeps boundary cases — which
        // the evaluator might still accept under its own epsilon — alive.)
        let best_durability = 1.0 - state.fail_prod[depth] * state.suffix_fail[i];
        if best_durability + 1e-9 < state.required_durability {
            break;
        }
        // Closure rule: never branch on a dominated candidate unless every
        // one of its (earlier-sorted) dominators already sits on the path
        // — each set completed from such a branch is strictly beaten by
        // the same set with a missing dominator swapped in, and that
        // swapped set lives in a subtree the DFS does visit.
        if state.dominators[i] & !sorted_mask != 0 {
            continue;
        }
        let with_i = partial_lb + state.candidates[i].lower_bound;
        // Admissible optimistic cost of every completion through this
        // child. Strictly greater than the incumbent ⇒ the child subtree
        // cannot contain the optimum (ties are kept, so the bitmask
        // tie-break still sees every minimum-cost set). Siblings are
        // sorted by lower bound and the read floor is monotone in `i`, so
        // the rest of the loop is hopeless too.
        if with_i + read_floor_at(state, i, depth) > state.best_price {
            break;
        }
        let child_mask = mask | state.candidates[i].orig_bit;
        descend(state, i, depth);
        evaluate_node(state, child_mask, depth + 1);
        dfs(
            state,
            i + 1,
            with_i,
            child_mask,
            depth + 1,
            sorted_mask | (1u64 << i),
        );
        backtrack(state, i);
    }
}

/// Pushes candidate `i` onto the DFS path: extends both survival
/// distributions into the next stack level (`O(n)`, no allocation) and
/// inserts the provider into the catalog-ordered current set.
fn descend(state: &mut SearchState<'_>, i: usize, depth: usize) {
    let provider = state.candidates[i].provider;
    let bit = state.candidates[i].orig_bit;

    let (parents, children) = state.dura_stack.split_at_mut(depth + 1);
    parents[depth].pushed_into(provider.sla.durability.probability(), &mut children[0]);
    let (parents, children) = state.avail_stack.split_at_mut(depth + 1);
    parents[depth].pushed_into(provider.sla.availability.probability(), &mut children[0]);
    state.fail_prod[depth + 1] =
        state.fail_prod[depth] * (1.0 - provider.sla.durability.probability());
    state.minm_stack[depth + 1] = state.minm_stack[depth].max(state.candidates[i].min_m);
    state.path_min_bw[depth + 1] =
        state.path_min_bw[depth].min(provider.pricing.bandwidth_out_gb.dollars());
    state.path_min_ops[depth + 1] =
        state.path_min_ops[depth].min(provider.pricing.ops_per_1000.dollars());
    state.path_min_unit[depth + 1] = state.path_min_unit[depth].min(state.candidates[i].unit_floor);

    // Insertion position by original catalog order (bits are monotone in
    // catalog position).
    let pos = state.current_bits.partition_point(|&b| b < bit);
    state.current_bits.insert(pos, bit);
    state.current_cands.insert(pos, i);
}

/// Pops candidate `i` off the DFS path. The distribution stacks need no
/// undo (levels above the parent depth are scratch); only the
/// catalog-ordered current set does.
fn backtrack(state: &mut SearchState<'_>, i: usize) {
    let bit = state.candidates[i].orig_bit;
    let pos = state.current_bits.partition_point(|&b| b < bit);
    debug_assert_eq!(state.current_bits[pos], bit);
    state.current_bits.remove(pos);
    state.current_cands.remove(pos);
}

/// Evaluates the DFS path's current set (already in catalog order) and
/// updates the incumbent.
fn evaluate_node(state: &mut SearchState<'_>, mask: u64, depth: usize) {
    // Lock-in: lockin(pset) = 1/|pset| must not exceed the rule's factor.
    if !state.rule.lockin_satisfied(depth) {
        return;
    }
    // Durability (Algorithm 2) from the incrementally maintained
    // distribution; zones were prefiltered.
    let max_threshold =
        threshold_from_distribution(&state.dura_stack[depth], state.rule.durability);
    if max_threshold == 0 {
        return;
    }
    // Availability: lower the threshold until the requirement is met.
    let reachability = &state.avail_stack[depth];
    let Some(threshold) = (1..=max_threshold)
        .rev()
        .find(|&m| availability_from_distribution(reachability, m).meets(state.rule.availability))
    else {
        return;
    };
    // Chunk-size constraints: some provider on the path rejects chunks of
    // size / threshold iff the path's max per-provider minimum threshold
    // exceeds the threshold.
    if state.minm_stack[depth] > threshold {
        return;
    }
    let price = state
        .tables
        .price(&state.current_cands, threshold, &mut state.rank_scratch);
    if price < state.best_price || (price == state.best_price && mask < state.best_mask) {
        state.best_price = price;
        state.best_mask = mask;
        state.best_m = threshold;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, cheapstor, google, rackspace, s3_high, s3_low};
    use scalia_types::reliability::Reliability;
    use scalia_types::size::ByteSize;
    use scalia_types::zone::{Zone, ZoneSet};

    fn catalog() -> Vec<ProviderDescriptor> {
        vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            rackspace(ProviderId::new(2)),
            azure(ProviderId::new(3)),
            google(ProviderId::new(4)),
        ]
    }

    fn slashdot_rule() -> StorageRule {
        // 1 MB object, availability 99.99, durability 99.999, no lock-in
        // or zone constraint (the Slashdot scenario of §IV-B).
        StorageRule::new(
            "slashdot",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            1.0,
        )
    }

    #[test]
    fn cold_object_prefers_cheap_storage_sets() {
        // No accesses at all: the cheapest feasible set minimises storage.
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        let decision = engine
            .best_placement(&slashdot_rule(), &usage, &catalog())
            .unwrap();
        // Availability 99.99 requires at least two providers; with several
        // providers the threshold grows and the per-provider chunk shrinks,
        // so the larger sets with high m are cheapest for cold data.
        assert!(decision.placement.providers.len() >= 2);
        assert!(decision.placement.m >= decision.placement.n() - 1);
        assert!(decision.expected_cost.is_positive());
    }

    #[test]
    fn hot_object_prefers_mirroring_on_cheap_read_providers() {
        // The Slashdot peak: 1 MB object with ~150 reads/hour. The paper
        // reports the cheapest set becomes [S3(h), S3(l); m:1].
        let engine = PlacementEngine::new();
        let usage = PredictedUsage {
            size: ByteSize::from_mb(1),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_mb(150 * 24),
            reads: 150 * 24,
            writes: 0,
            duration_hours: 24.0,
        };
        let decision = engine
            .best_placement(&slashdot_rule(), &usage, &catalog())
            .unwrap();
        assert_eq!(decision.placement.m, 1, "hot data is mirrored");
        let names: Vec<&str> = decision
            .placement
            .providers
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(decision.placement.providers.len(), 2);
        assert!(names.contains(&"S3(h)"));
        assert!(names.contains(&"S3(l)"));
    }

    #[test]
    fn lockin_constraint_forces_more_providers() {
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(40), 5.0);
        // Lock-in 0.5 → at least 2 providers.
        let rule2 = slashdot_rule().with_lockin(0.5);
        let d2 = engine.best_placement(&rule2, &usage, &catalog()).unwrap();
        assert!(d2.placement.providers.len() >= 2);
        // Lock-in 0.2 → at least 5 providers.
        let rule5 = slashdot_rule().with_lockin(0.2);
        let d5 = engine.best_placement(&rule5, &usage, &catalog()).unwrap();
        assert_eq!(d5.placement.providers.len(), 5);
        // More forced providers can never be cheaper.
        assert!(d5.expected_cost >= d2.expected_cost);
    }

    #[test]
    fn zone_constraint_excludes_us_only_providers() {
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        // EU-only rule: only S3(h) and S3(l) operate in the EU.
        let rule = slashdot_rule()
            .with_zones(ZoneSet::of(&[Zone::EU]))
            .with_availability(Reliability::from_percent(99.99));
        let decision = engine.best_placement(&rule, &usage, &catalog()).unwrap();
        for p in &decision.placement.providers {
            assert!(
                p.zones.contains(Zone::EU),
                "{} is not an EU provider",
                p.name
            );
        }
        assert_eq!(decision.placement.providers.len(), 2);
    }

    #[test]
    fn infeasible_rule_reports_error() {
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        // Availability higher than any combination of 99.9 providers within
        // an EU-only zone set (only two EU providers exist → max 99.9999…)
        // and a durability no set can reach.
        let rule = StorageRule::new(
            "impossible",
            Reliability::ONE,
            Reliability::ONE,
            ZoneSet::of(&[Zone::EU]),
            1.0,
        );
        let err = engine
            .best_placement(&rule, &usage, &catalog())
            .unwrap_err();
        assert!(matches!(err, ScaliaError::NoFeasiblePlacement { .. }));
    }

    #[test]
    fn chunk_size_constraint_excludes_provider_naturally() {
        let engine = PlacementEngine::new();
        // One provider only accepts chunks up to 100 KB; the object is 40 MB,
        // so with small sets (large chunks) that provider is excluded.
        let mut providers = catalog();
        providers[2] = providers[2]
            .clone()
            .with_max_chunk_size(ByteSize::from_kb(100));
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(40), 5.0);
        let rule = slashdot_rule().with_lockin(0.5);
        let decision = engine.best_placement(&rule, &usage, &providers).unwrap();
        // Whatever the winner is, its chunk must fit every chosen provider.
        let chunk = usage.size.div_ceil(decision.placement.m as usize);
        for p in &decision.placement.providers {
            assert!(p.accepts_chunk(chunk));
        }
    }

    #[test]
    fn new_cheap_provider_changes_the_choice() {
        // §IV-D: registering CheapStor changes the cheapest set.
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(40), 5.0);
        let rule = slashdot_rule().with_lockin(0.5);
        let before = engine.best_placement(&rule, &usage, &catalog()).unwrap();
        let mut extended = catalog();
        extended.push(cheapstor(ProviderId::new(5)));
        let after = engine.best_placement(&rule, &usage, &extended).unwrap();
        assert!(after.expected_cost <= before.expected_cost);
        assert!(
            after
                .placement
                .providers
                .iter()
                .any(|p| p.name == "CheapStor"),
            "the cheaper provider should join the optimal set"
        );
    }

    #[test]
    fn placement_accessors() {
        let engine = PlacementEngine::new();
        let usage = PredictedUsage::storage_only(ByteSize::from_mb(1), 24.0);
        let decision = engine
            .best_placement(&slashdot_rule(), &usage, &catalog())
            .unwrap();
        let p = &decision.placement;
        assert_eq!(p.provider_ids().len(), p.providers.len());
        assert_eq!(p.erasure_params().n, p.n());
        assert!(p.label().contains("m:"));
        assert!(p.same_as(&p.clone()));
        let other = Placement {
            providers: vec![s3_high(ProviderId::new(0))],
            m: 1,
        };
        assert!(!p.same_as(&other) || p.providers.len() == 1);
    }
}

//! Oblivious greedy partitioning (§5.2.2, Appendix A).
//!
//! Oblivious places each edge to greedily minimize the replication-factor
//! objective, which devolves into four cases on the already-placed replica
//! sets `A(u)`, `A(v)`:
//!
//! 1. `A(u) ∩ A(v) ≠ ∅` — place on the least-loaded machine in the
//!    intersection.
//! 2. only one endpoint placed — least-loaded machine among its replicas.
//! 3. neither placed — least-loaded machine overall.
//! 4. both placed, disjoint — least-loaded machine in the union.
//!
//! Ties break randomly; "least loaded" counts edges assigned so far.
//!
//! In PowerGraph's distributed ingress, each loading machine keeps **its own**
//! `A(v)` and load table — it is *oblivious* to the other loaders' decisions
//! (§5.2.2). We model exactly that: the edge stream is split into one block
//! per loader and each block is partitioned by an independent instance of the
//! heuristic. With `num_loaders == 1` you get the idealized centralized
//! variant.

use crate::assignment::Assignment;
use crate::partitioner::{loader_ranges, PartitionContext, PartitionOutcome, Partitioner};
use gp_core::{
    for_each_edge, Edge, PartitionId, PartitionSet, Splitmix64, StreamingEdges, VertexId,
};

/// Oblivious greedy vertex-cut partitioner.
#[derive(Debug, Default, Clone)]
pub struct Oblivious;

/// Per-loader greedy state shared by Oblivious and HDRF: replica sets known
/// to this loader, per-partition edge loads, and a tie-break PRNG.
///
/// Replica sets are a dense vertex-indexed table of [`PartitionSet`]
/// bitsets (vertex ids are `0..n` by construction), so the per-edge hot
/// path does two O(1) bit inserts and O(1) membership probes — no hashing,
/// no per-vertex heap lists.
pub(crate) struct GreedyState {
    /// `a[v]` = partitions this loader has placed `v` on.
    pub a: Vec<PartitionSet>,
    /// Edges this loader has assigned to each partition.
    pub load: Vec<u64>,
    /// Tie-break PRNG.
    pub rng: Splitmix64,
    /// Simulated work units burned by this loader.
    pub work: f64,
    /// Edges assigned so far (drives the capacity cap).
    pub assigned: u64,
    /// Load-balance slack: a partition may exceed the running average by at
    /// most this factor. PowerGraph's greedy ingress enforces the same kind
    /// of capacity constraint ("partitions are balanced in order to avoid
    /// overloading individual servers", §1).
    pub balance_slack: f64,
    /// Running replica-state memory estimate, kept formula-compatible with
    /// the historical per-vertex-list accounting (32 bytes per touched
    /// vertex + 4 per replica entry) so ingress memory reports are stable.
    replica_bytes: u64,
}

impl GreedyState {
    pub fn new(num_partitions: u32, num_vertices: u64, seed: u64) -> Self {
        GreedyState {
            a: vec![PartitionSet::new(); num_vertices as usize],
            load: vec![0; num_partitions as usize],
            rng: Splitmix64::new(seed),
            work: 0.0,
            assigned: 0,
            balance_slack: 1.1,
            replica_bytes: 0,
        }
    }

    /// Maximum edges a partition may currently hold.
    #[inline]
    pub fn capacity(&self) -> u64 {
        (self.balance_slack * self.assigned as f64 / self.load.len() as f64) as u64 + 4
    }

    /// Partitions this loader has placed `v` on.
    #[inline]
    pub fn replicas(&self, v: VertexId) -> &PartitionSet {
        &self.a[v.index()]
    }

    /// Record that edge `e` was placed on `p`.
    pub fn commit(&mut self, e: Edge, p: PartitionId) {
        self.load[p.index()] += 1;
        self.assigned += 1;
        for v in [e.src, e.dst] {
            let set = &mut self.a[v.index()];
            if set.insert(p.0) {
                self.replica_bytes += if set.len() == 1 { 36 } else { 4 };
            }
        }
    }

    /// Least-loaded partition over all partitions, ties broken uniformly at
    /// random (one PRNG draw, matching the historical candidate-list code).
    pub fn least_loaded_all(&mut self) -> PartitionId {
        let min = *self.load.iter().min().expect("partitions > 0");
        let tied = self.load.iter().filter(|&&l| l == min).count() as u64;
        let pick = self.rng.next_below(tied);
        let mut seen = 0;
        for (c, &l) in self.load.iter().enumerate() {
            if l == min {
                if seen == pick {
                    return PartitionId(c as u32);
                }
                seen += 1;
            }
        }
        unreachable!("pick < tied count")
    }

    /// Least-loaded partition among the candidate set, ties broken
    /// uniformly at random. Candidates iterate in ascending order (bit
    /// scan), so tie-breaking is identical to the historical sorted-list
    /// scan. The set must be non-empty.
    pub fn least_loaded_in(&mut self, candidates: &PartitionSet) -> PartitionId {
        let min = candidates
            .iter()
            .map(|c| self.load[c as usize])
            .min()
            .expect("non-empty candidate set");
        let tied = candidates
            .iter()
            .filter(|&c| self.load[c as usize] == min)
            .count() as u64;
        let pick = self.rng.next_below(tied);
        let mut seen = 0;
        for c in candidates.iter() {
            if self.load[c as usize] == min {
                if seen == pick {
                    return PartitionId(c);
                }
                seen += 1;
            }
        }
        unreachable!("pick < tied count")
    }

    /// Approximate bytes of loader state (for ingress memory accounting).
    pub fn state_bytes(&self) -> u64 {
        self.replica_bytes + 8 * self.load.len() as u64
    }
}

/// Appendix A's case analysis, shared with HDRF's candidate enumeration.
/// The preferred candidate set is overridden by the global least-loaded
/// machine when every preferred machine is at capacity.
pub(crate) fn oblivious_choose(state: &mut GreedyState, e: Edge) -> PartitionId {
    // Inline bitset copies (no heap traffic for ≤256 partitions); the
    // intersection/union cases are word-wise AND/OR.
    let au = state.replicas(e.src).clone();
    let av = state.replicas(e.dst).clone();
    let inter = au.intersection(&av);
    let choice = if !inter.is_empty() {
        // Case 1: replicas of both already co-located somewhere.
        state.least_loaded_in(&inter)
    } else if au.is_empty() && av.is_empty() {
        // Case 3: fresh edge.
        state.least_loaded_all()
    } else if av.is_empty() {
        // Case 2: only u placed.
        state.least_loaded_in(&au)
    } else if au.is_empty() {
        // Case 2 (symmetric): only v placed.
        state.least_loaded_in(&av)
    } else {
        // Case 4: both placed, disjoint — least loaded in the union.
        state.least_loaded_in(&au.union(&av))
    };
    if state.load[choice.index()] >= state.capacity() {
        state.least_loaded_all()
    } else {
        choice
    }
}

impl Partitioner for Oblivious {
    fn name(&self) -> &'static str {
        "Oblivious"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let blocks = loader_ranges(graph.num_edges(), ctx.num_loaders);
        // Loaders are independent by design (each is "oblivious" to the
        // others), so they can run on real parallel threads. The determinism
        // unit is the *block* — block boundaries and per-block seeds depend
        // only on `num_loaders`, never on the thread count — so the bounded
        // ordered pool returns byte-identical results at any `--threads N`.
        let tasks: Vec<_> = blocks
            .into_iter()
            .enumerate()
            .map(|(i, block)| {
                move || {
                    let mut state = GreedyState::new(
                        ctx.num_partitions,
                        graph.num_vertices(),
                        ctx.seed ^ (0x0b11 + i as u64),
                    );
                    let mut parts = Vec::with_capacity(block.len());
                    for_each_edge(graph, block, |e| {
                        let candidates = state.replicas(e.src).len() + state.replicas(e.dst).len();
                        state.work += ctx.cost.parse_edge
                            + ctx.cost.heuristic_base
                            + ctx.cost.heuristic_per_candidate * candidates as f64;
                        let p = oblivious_choose(&mut state, e);
                        state.commit(e, p);
                        parts.push(p);
                    });
                    (parts, state.work, state.state_bytes())
                }
            })
            .collect();
        let results = gp_par::run_ordered(ctx.par.effective_threads(), tasks);
        let mut parts = Vec::with_capacity(graph.num_edges());
        let mut loader_work = Vec::with_capacity(results.len());
        let mut state_bytes = 0u64;
        for (block_parts, work, bytes) in results {
            parts.extend(block_parts);
            loader_work.push(work);
            state_bytes = state_bytes.max(bytes);
        }
        let outcome = PartitionOutcome {
            assignment: Assignment::from_edge_partitions_par(
                graph,
                parts,
                ctx.num_partitions,
                ctx.seed,
                &ctx.par,
            ),
            loader_work,
            passes: 1,
            state_bytes,
        };
        super::record_ingress_telemetry(self.name(), graph, &outcome, ctx);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    fn centralized(p: u32) -> PartitionContext {
        PartitionContext::new(p).with_loaders(1)
    }

    #[test]
    fn case1_places_in_intersection() {
        let mut s = GreedyState::new(4, 128, 1);
        s.commit(Edge::new(0u64, 1u64), PartitionId(2));
        // Both 0 and 1 live on p2 only; the next (0,1)-ish edge must go there.
        let p = oblivious_choose(&mut s, Edge::new(0u64, 1u64));
        assert_eq!(p, PartitionId(2));
    }

    #[test]
    fn case2_follows_the_placed_endpoint() {
        let mut s = GreedyState::new(4, 128, 1);
        s.commit(Edge::new(0u64, 1u64), PartitionId(3));
        let p = oblivious_choose(&mut s, Edge::new(0u64, 9u64));
        assert_eq!(p, PartitionId(3), "new edge should join u's only replica");
    }

    #[test]
    fn case3_balances_fresh_edges() {
        let mut s = GreedyState::new(2, 128, 1);
        s.load = vec![5, 0];
        let p = oblivious_choose(&mut s, Edge::new(10u64, 11u64));
        assert_eq!(
            p,
            PartitionId(1),
            "fresh edge must go to the least-loaded machine"
        );
    }

    #[test]
    fn case4_uses_least_loaded_in_union() {
        let mut s = GreedyState::new(4, 128, 1);
        s.commit(Edge::new(0u64, 5u64), PartitionId(0));
        s.commit(Edge::new(1u64, 6u64), PartitionId(2));
        s.load[0] = 10; // make p2 the lighter of {0, 2}
        let p = oblivious_choose(&mut s, Edge::new(0u64, 1u64));
        assert_eq!(p, PartitionId(2));
    }

    #[test]
    fn oblivious_rf_beats_random_on_low_degree_graphs() {
        // §5.4.2: heuristics shine on low-degree graphs.
        let g = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 60,
                height: 60,
                ..Default::default()
            },
            3,
        );
        let ob = Oblivious
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let rnd = crate::strategies::hash::Random
            .partition(&g, &ctx(9))
            .assignment
            .replication_factor();
        assert!(
            ob < rnd * 0.75,
            "oblivious {ob} should clearly beat random {rnd}"
        );
    }

    #[test]
    fn distributed_oblivious_is_worse_than_centralized() {
        // Per-loader state loses information — more loaders, higher RF.
        let g = gp_gen::barabasi_albert(8_000, 6, 2);
        let central = Oblivious
            .partition(&g, &centralized(8))
            .assignment
            .replication_factor();
        let dist = Oblivious
            .partition(&g, &PartitionContext::new(8).with_loaders(8))
            .assignment
            .replication_factor();
        assert!(
            dist >= central,
            "distributed {dist} vs centralized {central}"
        );
    }

    #[test]
    fn loads_stay_balanced() {
        let g = gp_gen::erdos_renyi(5_000, 60_000, 7);
        let out = Oblivious.partition(&g, &ctx(9));
        assert!(out.assignment.balance().imbalance < 1.25);
    }

    #[test]
    fn work_grows_with_replica_sets() {
        // A hub graph forces large A(v) scans; per-edge work should exceed a
        // road network's.
        let hub = gp_gen::barabasi_albert(4_000, 8, 1);
        let road = gp_gen::road_network(
            &gp_gen::RoadNetworkParams {
                width: 65,
                height: 65,
                ..Default::default()
            },
            1,
        );
        let ctx9 = centralized(9);
        let w_hub: f64 = Oblivious
            .partition(&hub, &ctx9)
            .loader_work
            .iter()
            .sum::<f64>()
            / hub.num_edges() as f64;
        let w_road: f64 = Oblivious
            .partition(&road, &ctx9)
            .loader_work
            .iter()
            .sum::<f64>()
            / road.num_edges() as f64;
        assert!(
            w_hub > w_road * 1.1,
            "per-edge work: hub {w_hub} should exceed road {w_road}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 5);
        let a = Oblivious.partition(&g, &ctx(4));
        let b = Oblivious.partition(&g, &ctx(4));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
        let c = Oblivious.partition(&g, &PartitionContext::new(4).with_seed(99));
        assert_ne!(
            a.assignment.edge_partitions(),
            c.assignment.edge_partitions()
        );
    }

    #[test]
    fn state_bytes_are_reported() {
        let g = gp_gen::erdos_renyi(1_000, 5_000, 3);
        let out = Oblivious.partition(&g, &ctx(4));
        assert!(out.state_bytes > 0);
    }
}

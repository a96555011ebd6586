//! HDRF — High-Degree Replicated First (§5.2.4, Appendix B).
//!
//! HDRF is Oblivious's sibling: same streaming structure, but scoring
//! machines by *partial degree* so that when an edge `(u, v)` must split a
//! vertex, the **higher-degree** endpoint is the one replicated. With
//! `θ(v) = δ(v) / (δ(u) + δ(v))` on running partial-degree counters:
//!
//! ```text
//! C(u,v,M)    = C_REP(u,v,M) + λ · C_BAL(M)
//! C_REP       = g(u,M) + g(v,M)
//! g(v,M)      = 1 + (1 − θ(v))   if M ∈ A(v), else 0
//! C_BAL(M)    = (maxload − load(M)) / (ε + maxload − minload)
//! ```
//!
//! The machine with the highest score wins; ties break randomly. PowerGraph
//! hard-codes `λ = 1`, which makes balance a tie-breaker and HDRF behave
//! like Oblivious (footnote 1 in §5.4.2) — our default too.
//!
//! Like Oblivious, distributed ingress gives each loader its own state.

use crate::assignment::Assignment;
use crate::partitioner::{loader_ranges, PartitionContext, PartitionOutcome, Partitioner};
use crate::strategies::oblivious::GreedyState;
use gp_core::{for_each_edge, Edge, PartitionId, StreamingEdges};

/// HDRF streaming partitioner with tunable balance weight `λ`.
#[derive(Debug, Clone)]
pub struct Hdrf {
    /// Balance weight; `λ ≤ 1` means balance only breaks ties (§B). The
    /// paper (and PowerGraph) use 1.0.
    pub lambda: f64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf { lambda: 1.0 }
    }
}

impl Hdrf {
    /// HDRF with the paper's recommended `λ = 1`.
    pub fn recommended() -> Self {
        Self::default()
    }

    /// HDRF with a custom balance weight (used by the ablation bench).
    pub fn with_lambda(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        Hdrf { lambda }
    }
}

pub(crate) struct HdrfLoader {
    pub(crate) greedy: GreedyState,
    /// Partial degree counters δ (Appendix B), dense vertex-indexed — the
    /// ids are `0..n` already, so a flat table beats hashing on every edge.
    pub(crate) partial_degree: Vec<u64>,
    /// Vertices with a nonzero counter (memory accounting parity with the
    /// historical per-entry map accounting: 40 bytes per touched vertex).
    touched: u64,
    lambda: f64,
    /// Reusable tie buffer for the score loop (no per-edge allocation).
    tied: Vec<u32>,
}

impl HdrfLoader {
    pub(crate) fn new(num_partitions: u32, num_vertices: u64, seed: u64, lambda: f64) -> Self {
        HdrfLoader {
            greedy: GreedyState::new(num_partitions, num_vertices, seed),
            partial_degree: vec![0; num_vertices as usize],
            touched: 0,
            lambda,
            tied: Vec::with_capacity(num_partitions as usize),
        }
    }

    pub(crate) fn choose(&mut self, e: Edge) -> PartitionId {
        // Update partial degrees first (Appendix B: counters are incremented
        // when the edge is processed, then used for θ).
        for v in [e.src, e.dst] {
            let d = &mut self.partial_degree[v.index()];
            if *d == 0 {
                self.touched += 1;
            }
            *d += 1;
        }
        let du = self.partial_degree[e.src.index()] as f64;
        let dv = self.partial_degree[e.dst.index()] as f64;
        let theta_u = du / (du + dv);
        let theta_v = dv / (du + dv);

        let au = self.greedy.replicas(e.src).clone();
        let av = self.greedy.replicas(e.dst).clone();
        let loads = &self.greedy.load;
        let max_load = *loads.iter().max().expect("partitions > 0") as f64;
        let min_load = *loads.iter().min().expect("partitions > 0") as f64;
        const EPS: f64 = 1.0;

        let mut best_score = f64::NEG_INFINITY;
        self.tied.clear();
        let capacity = self.greedy.capacity();
        for m in 0..loads.len() as u32 {
            // Capacity constraint, as in PowerGraph's greedy ingress: a
            // partition over the balance cap is not a candidate.
            if loads[m as usize] >= capacity {
                continue;
            }
            let g_u = if au.contains(m) {
                1.0 + (1.0 - theta_u)
            } else {
                0.0
            };
            let g_v = if av.contains(m) {
                1.0 + (1.0 - theta_v)
            } else {
                0.0
            };
            let c_rep = g_u + g_v;
            let c_bal = (max_load - loads[m as usize] as f64) / (EPS + max_load - min_load);
            let score = c_rep + self.lambda * c_bal;
            if score > best_score + 1e-12 {
                best_score = score;
                self.tied.clear();
                self.tied.push(m);
            } else if (score - best_score).abs() <= 1e-12 {
                self.tied.push(m);
            }
        }
        if self.tied.is_empty() {
            // Everything at capacity (can only happen transiently at tiny
            // loads): fall back to least loaded.
            return self.greedy.least_loaded_all();
        }
        let pick = self.greedy.rng.next_below(self.tied.len() as u64) as usize;
        PartitionId(self.tied[pick])
    }

    /// Absorb an already-placed edge without making a decision: degree
    /// counters and greedy state advance exactly as if `choose` had picked
    /// `p`. Used to warm serving-time state from a batch-partitioned base.
    pub(crate) fn warm(&mut self, e: Edge, p: PartitionId) {
        for v in [e.src, e.dst] {
            let d = &mut self.partial_degree[v.index()];
            if *d == 0 {
                self.touched += 1;
            }
            *d += 1;
        }
        self.greedy.commit(e, p);
    }

    pub(crate) fn state_bytes(&self) -> u64 {
        self.greedy.state_bytes() + 40 * self.touched
    }
}

impl Partitioner for Hdrf {
    fn name(&self) -> &'static str {
        "HDRF"
    }

    fn partition(
        &mut self,
        graph: &dyn StreamingEdges,
        ctx: &PartitionContext,
    ) -> PartitionOutcome {
        let blocks = loader_ranges(graph.num_edges(), ctx.num_loaders);
        let lambda = self.lambda;
        // Per-loader state is independent; run the loaders on the bounded
        // ordered pool. As with Oblivious, block boundaries and per-block
        // seeds depend only on `num_loaders`, so any `--threads N` yields
        // byte-identical placements.
        let tasks: Vec<_> = blocks
            .into_iter()
            .enumerate()
            .map(|(i, block)| {
                move || {
                    let mut loader = HdrfLoader::new(
                        ctx.num_partitions,
                        graph.num_vertices(),
                        ctx.seed ^ (0x4d5f + i as u64),
                        lambda,
                    );
                    let mut parts = Vec::with_capacity(block.len());
                    for_each_edge(graph, block, |e| {
                        let candidates = loader.greedy.replicas(e.src).len()
                            + loader.greedy.replicas(e.dst).len();
                        loader.greedy.work += ctx.cost.parse_edge
                            + ctx.cost.heuristic_base
                            + ctx.cost.heuristic_per_candidate * candidates as f64;
                        let p = loader.choose(e);
                        loader.greedy.commit(e, p);
                        parts.push(p);
                    });
                    (parts, loader.greedy.work, loader.state_bytes())
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
    use crate::strategies::hash::Random;
    use crate::strategies::oblivious::Oblivious;

    fn centralized(p: u32) -> PartitionContext {
        PartitionContext::new(p).with_loaders(1)
    }

    #[test]
    fn repeated_edge_stays_put() {
        let mut l = HdrfLoader::new(4, 128, 1, 1.0);
        let e = Edge::new(0u64, 1u64);
        let p1 = l.choose(e);
        l.greedy.commit(e, p1);
        let p2 = l.choose(e);
        assert_eq!(p1, p2, "co-located endpoints dominate the score");
    }

    #[test]
    fn low_degree_endpoint_wins_placement() {
        // u is a hub (high partial degree), w is fresh. A new edge (u, w)
        // joining them where u lives on p0 and w on p1: HDRF should prefer
        // keeping LOW-degree w intact (place on p1, replicating hub u).
        let mut l = HdrfLoader::new(2, 128, 1, 0.0); // no balance term
                                                     // Build hub u = 0 on p0.
        for i in 10..30u64 {
            let e = Edge::new(0u64, i);
            l.choose(e);
            l.greedy.commit(e, PartitionId(0));
        }
        // w = 99 placed once on p1.
        let ew = Edge::new(99u64, 50u64);
        l.choose(ew);
        l.greedy.commit(ew, PartitionId(1));
        // Now the contested edge.
        let p = l.choose(Edge::new(0u64, 99u64));
        assert_eq!(
            p,
            PartitionId(1),
            "HDRF must replicate the high-degree endpoint"
        );
    }

    #[test]
    fn hdrf_close_to_oblivious_at_lambda_one() {
        // Footnote §5.4.2: λ=1 makes HDRF and Oblivious perform similarly.
        let g = gp_gen::barabasi_albert(10_000, 8, 4);
        let h = Hdrf::recommended()
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let o = Oblivious
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        assert!((h - o).abs() / o < 0.2, "HDRF {h} vs Oblivious {o}");
    }

    #[test]
    fn hdrf_beats_random_on_power_law() {
        let g = gp_gen::rmat(&gp_gen::RmatParams::web_graph(13, 60_000), 5);
        let h = Hdrf::recommended()
            .partition(&g, &centralized(9))
            .assignment
            .replication_factor();
        let r = Random
            .partition(&g, &PartitionContext::new(9))
            .assignment
            .replication_factor();
        assert!(h < r * 0.8, "HDRF {h} should clearly beat Random {r}");
    }

    #[test]
    fn high_lambda_forces_balance_at_rf_cost() {
        let g = gp_gen::barabasi_albert(8_000, 6, 7);
        let loose = Hdrf::with_lambda(0.1).partition(&g, &centralized(8));
        let tight = Hdrf::with_lambda(10.0).partition(&g, &centralized(8));
        assert!(
            tight.assignment.balance().imbalance <= loose.assignment.balance().imbalance + 1e-9,
            "higher lambda should not worsen balance"
        );
        assert!(
            tight.assignment.replication_factor() >= loose.assignment.replication_factor(),
            "higher lambda should not improve RF"
        );
    }

    #[test]
    fn loads_stay_balanced_at_default_lambda() {
        let g = gp_gen::barabasi_albert(10_000, 8, 9);
        let out = Hdrf::recommended().partition(&g, &PartitionContext::new(9));
        assert!(out.assignment.balance().imbalance < 1.3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gp_gen::erdos_renyi(1_000, 8_000, 6);
        let a = Hdrf::recommended().partition(&g, &PartitionContext::new(4));
        let b = Hdrf::recommended().partition(&g, &PartitionContext::new(4));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        Hdrf::with_lambda(-1.0);
    }
}

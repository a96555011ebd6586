//! The synchronous GAS engine — PowerGraph (§5.1.2).
//!
//! Execution is divided into supersteps, each with Gather, Apply and Scatter
//! minor-steps separated by barriers:
//!
//! * **Gather** — every replica of an active vertex performs a local gather
//!   over its local gather-direction edges; *every mirror* then sends its
//!   partial aggregate to the master (one message per mirror — this is what
//!   makes network traffic linear in replication factor, Fig 5.3).
//! * **Apply** — the master merges partials, updates the vertex state, and,
//!   if the state changed, synchronizes all mirrors (one message per mirror).
//! * **Scatter** — replicas scan local scatter-direction edges of changed
//!   vertices and activate neighbors for the next superstep.
//!
//! State semantics are exact (one canonical state array, equivalent to
//! perfectly-synced mirrors); costs are accounted against the distributed
//! layout described by the [`ReplicaTable`].

use crate::program::{ApplyInfo, Direction, InitInfo, VertexProgram};
use crate::replicas::ReplicaTable;
use crate::report::{ComputeReport, EngineConfig, SuperstepStats};
use gp_core::{CsrGraph, EdgeList, VertexId};
use gp_partition::Assignment;

/// PowerGraph's synchronous engine.
///
/// ```
/// use gp_engine::{SyncGas, EngineConfig};
/// use gp_cluster::ClusterSpec;
/// use gp_partition::{Strategy, PartitionContext};
///
/// let graph = gp_core::EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
/// let assignment = Strategy::Random
///     .build()
///     .partition(&graph, &PartitionContext::new(2))
///     .assignment;
/// let engine = SyncGas::new(EngineConfig::new(ClusterSpec::local_9()));
/// let (ranks, report) = engine.run(&graph, &assignment, &gp_apps_doc::PageRankLike);
/// # mod gp_apps_doc {
/// #   use gp_engine::*; use gp_core::VertexId;
/// #   pub struct PageRankLike;
/// #   impl VertexProgram for PageRankLike {
/// #     type State = u64; type Accum = u64;
/// #     fn name(&self) -> &'static str { "demo" }
/// #     fn gather_direction(&self) -> Direction { Direction::In }
/// #     fn scatter_direction(&self) -> Direction { Direction::Out }
/// #     fn init(&self, v: VertexId, _: InitInfo) -> u64 { v.0 }
/// #     fn initially_active(&self, _: VertexId) -> bool { true }
/// #     fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 { *s }
/// #     fn merge(&self, a: u64, b: u64) -> u64 { a.max(b) }
/// #     fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
/// #       acc.map_or(*old, |a| a.max(*old))
/// #     }
/// #   }
/// # }
/// assert_eq!(ranks.len(), 3);
/// assert!(report.converged);
/// ```
#[derive(Debug, Clone)]
pub struct SyncGas {
    /// Engine configuration.
    pub config: EngineConfig,
}

impl SyncGas {
    /// New engine over a cluster configuration.
    pub fn new(config: EngineConfig) -> Self {
        SyncGas { config }
    }

    /// Run `program` over the partitioned graph until convergence or the
    /// superstep cap. Returns final vertex states and the compute report.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &EdgeList,
        assignment: &Assignment,
        program: &P,
    ) -> (Vec<P::State>, ComputeReport) {
        let csr = CsrGraph::from_edge_list(graph);
        let table = ReplicaTable::build(graph, assignment);
        let (states, mut report) = run_gas_loop(
            &self.config,
            &csr,
            &table,
            program,
            GatherPolicy::AllMirrors,
            "sync-gas",
        );
        self.config.finish_report(&mut report, assignment);
        (states, report)
    }
}

/// Who sends gather partials to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GatherPolicy {
    /// PowerGraph: every mirror participates in the gather round.
    AllMirrors,
    /// PowerLyra: for vertices at or below the degree threshold, only
    /// replicas that hold local gather-direction edges send partials
    /// (a low-degree vertex whose gather-edges sit at its master sends
    /// nothing at all). Above the threshold, behave like PowerGraph.
    LocalAware {
        /// Degree at or below which the differentiated path is used.
        threshold: u32,
    },
}

/// Per-vertex outcome of the semantic pass, replayed by the accounting and
/// commit phases in the sequential visit order.
struct PassRecord<S> {
    vi: usize,
    new: S,
    changed: bool,
    cache_hit: bool,
    scatters: bool,
}

/// Shared synchronous GAS loop used by both SyncGas and HybridGas.
///
/// Each superstep runs in three phases so that `config.par` can
/// parallelize it without changing a single output bit:
///
/// 1. **Semantic pass** (chunk-parallel): states are frozen for the
///    superstep, so every active vertex's gather/apply is independent.
///    Chunks emit ordered [`PassRecord`]s; concatenating them in chunk
///    order reproduces the sequential visit order, and per-chunk
///    activation bitmaps merge by OR (idempotent, order-free).
/// 2. **Accounting replay** (machine-sharded): the f64 cost tallies are
///    rebuilt from the records via [`crate::sharding::shard_tallies`],
///    which preserves every cell's addition order exactly.
/// 3. **Commit** (sequential): changed states land simultaneously —
///    synchronous semantics, identical to the pre-refactor loop.
pub(crate) fn run_gas_loop<P: VertexProgram>(
    config: &EngineConfig,
    csr: &CsrGraph,
    table: &ReplicaTable,
    program: &P,
    policy: GatherPolicy,
    engine_name: &'static str,
) -> (Vec<P::State>, ComputeReport) {
    let n = csr.num_vertices() as usize;
    let machines = config.spec.machines as usize;
    let info = |v: VertexId| InitInfo {
        num_vertices: csr.num_vertices(),
        out_degree: csr.out_degree(v),
        in_degree: csr.in_degree(v),
    };
    let mut states: Vec<P::State> = (0..n)
        .map(|v| program.init(VertexId(v as u64), info(VertexId(v as u64))))
        .collect();
    let mut active: Vec<bool> = (0..n)
        .map(|v| program.initially_active(VertexId(v as u64)))
        .collect();
    let gdir = program.gather_direction();
    let sdir = program.scatter_direction();
    let cap = program.max_supersteps().min(config.max_supersteps);
    let compute_rate = config.spec.compute_threads() as f64 * config.spec.work_units_per_s;
    let barrier = 3.0 * config.spec.latency_s * (machines as f64).log2().ceil().max(1.0);

    // Gather (delta) caching: `gather_cache[v]` holds v's last computed
    // accumulator; it stays valid until a gather-direction neighbor of v
    // changes (`cache_dirty[v]`). Only allocated when enabled.
    let mut gather_cache: Vec<Option<Option<P::Accum>>> = if config.delta_caching {
        vec![None; n]
    } else {
        Vec::new()
    };
    let mut cache_dirty: Vec<bool> = if config.delta_caching {
        vec![true; n]
    } else {
        Vec::new()
    };

    let mut steps: Vec<SuperstepStats> = Vec::new();
    let mut converged = false;
    for superstep in 0..cap {
        let actives: Vec<usize> = (0..n).filter(|&v| active[v]).collect();
        if actives.is_empty() {
            converged = true;
            break;
        }
        // --- Phase 1: semantic pass over frozen states, chunk-parallel.
        // A vertex's cache slot is read/written only by its own iteration,
        // so deferring the writes to the join keeps them slot-disjoint.
        let chunks = gp_par::map_chunks(&config.par, actives.len(), |_, range| {
            let mut records: Vec<PassRecord<P::State>> = Vec::with_capacity(range.len());
            let mut chunk_active = vec![false; n];
            let mut cache_writes: Vec<(usize, Option<P::Accum>)> = Vec::new();
            for &vi in &actives[range] {
                let v = VertexId(vi as u64);
                let cache_hit =
                    config.delta_caching && !cache_dirty[vi] && gather_cache[vi].is_some();
                // Gather: merge over gather-direction neighbors, or reuse
                // the cached accumulator.
                let acc: Option<P::Accum> = if cache_hit {
                    gather_cache[vi].clone().expect("checked above")
                } else {
                    let mut acc: Option<P::Accum> = None;
                    if gdir.includes_in() {
                        for u in csr.in_neighbors(v) {
                            let g = program.gather(v, u, &states[u.index()], info(u));
                            acc = Some(match acc {
                                Some(a) => program.merge(a, g),
                                None => g,
                            });
                        }
                    }
                    if gdir.includes_out() {
                        for u in csr.out_neighbors(v) {
                            let g = program.gather(v, u, &states[u.index()], info(u));
                            acc = Some(match acc {
                                Some(a) => program.merge(a, g),
                                None => g,
                            });
                        }
                    }
                    if config.delta_caching {
                        cache_writes.push((vi, acc.clone()));
                    }
                    acc
                };

                // Apply.
                let new = program.apply(
                    v,
                    &states[vi],
                    acc,
                    ApplyInfo {
                        superstep,
                        out_degree: csr.out_degree(v),
                        in_degree: csr.in_degree(v),
                    },
                );
                let changed = new != states[vi];
                // Initially-active vertices scatter in superstep 0 even
                // without a state change — "at the start of computation,
                // all [active] vertices ... send out their label IDs"
                // (§3.3.2); for SSSP only the source is active and must
                // seed the frontier.
                let scatters = changed || superstep == 0;
                if scatters && program.activates_on_change() {
                    // Scatter (semantic): activate neighbors.
                    if sdir.includes_out() {
                        for u in csr.out_neighbors(v) {
                            chunk_active[u.index()] = true;
                        }
                    }
                    if sdir.includes_in() {
                        for u in csr.in_neighbors(v) {
                            chunk_active[u.index()] = true;
                        }
                    }
                }
                if program.self_reactivates(&new) {
                    chunk_active[vi] = true;
                }
                records.push(PassRecord {
                    vi,
                    new,
                    changed,
                    cache_hit,
                    scatters,
                });
            }
            (records, chunk_active, cache_writes)
        });

        // Ordered join: concatenate records, OR the activation bitmaps,
        // land the slot-disjoint cache writes.
        let mut records: Vec<PassRecord<P::State>> = Vec::with_capacity(actives.len());
        let mut next_active = vec![false; n];
        for (chunk_records, chunk_active, cache_writes) in chunks {
            records.extend(chunk_records);
            for (na, ca) in next_active.iter_mut().zip(&chunk_active) {
                *na = *na || *ca;
            }
            for (vi, acc) in cache_writes {
                gather_cache[vi] = Some(acc);
                cache_dirty[vi] = false;
            }
        }

        // --- Phase 2: accounting replay, machine-sharded. The statement
        // sequence below mirrors the sequential loop exactly; `owned`
        // gates the f64 cells and `count` the u64 message counters.
        let tallies = crate::sharding::shard_tallies(config, machines, |t, owned, count| {
            for rec in &records {
                let v = VertexId(rec.vi as u64);
                let reps = table.replicas(v);
                let master = table.master_of(v);
                let master_machine = config.machine_of(master.0);
                let degree = csr.in_degree(v) + csr.out_degree(v);
                // Gather (accounting). A cache hit skips both the local
                // gather work and the mirror→master partial aggregates.
                if !rec.cache_hit {
                    for r in reps {
                        let local_gather = local_edges(gdir, r.local_in, r.local_out);
                        let m = config.machine_of(r.partition.0);
                        if owned(m) {
                            t.work[m] += config.gather_work * local_gather as f64;
                        }
                        if r.partition == master {
                            continue;
                        }
                        let sends = match policy {
                            GatherPolicy::AllMirrors => true,
                            GatherPolicy::LocalAware { threshold } => {
                                degree > threshold || local_gather > 0
                            }
                        };
                        if sends {
                            if count {
                                t.gather_messages += 1;
                            }
                            if m != master_machine {
                                if owned(master_machine) {
                                    t.in_bytes[master_machine] += program.accum_wire_bytes() as f64;
                                }
                                if owned(m) {
                                    t.out_bytes[m] += program.accum_wire_bytes() as f64;
                                }
                            }
                        }
                    }
                }
                // Apply.
                if owned(master_machine) {
                    t.work[master_machine] += config.apply_work;
                }
                if rec.changed {
                    // Mirror synchronization.
                    for r in reps {
                        if r.partition == master {
                            continue;
                        }
                        if count {
                            t.sync_messages += 1;
                        }
                        let m = config.machine_of(r.partition.0);
                        if m != master_machine {
                            if owned(m) {
                                t.in_bytes[m] += program.state_wire_bytes() as f64;
                            }
                            if owned(master_machine) {
                                t.out_bytes[master_machine] += program.state_wire_bytes() as f64;
                            }
                        }
                    }
                }
                if rec.scatters {
                    // Scatter (accounting): replicas scan local scatter
                    // edges.
                    for r in reps {
                        let local_scatter = local_edges(sdir, r.local_in, r.local_out);
                        let m = config.machine_of(r.partition.0);
                        if owned(m) {
                            t.work[m] += config.scatter_work * local_scatter as f64;
                        }
                    }
                }
            }
        });

        // --- Phase 3: commit simultaneously (synchronous semantics).
        let mut any_changed = false;
        for rec in records {
            if rec.changed {
                states[rec.vi] = rec.new;
                any_changed = true;
                if config.delta_caching {
                    // Invalidate the gather caches that read this vertex:
                    // w gathers v through w's gather-direction edges, i.e.
                    // v's *opposite*-direction neighbors.
                    let v = VertexId(rec.vi as u64);
                    if gdir.includes_in() {
                        for w in csr.out_neighbors(v) {
                            cache_dirty[w.index()] = true;
                        }
                    }
                    if gdir.includes_out() {
                        for w in csr.in_neighbors(v) {
                            cache_dirty[w.index()] = true;
                        }
                    }
                }
            }
        }

        let wall = tallies.work.iter().copied().fold(0.0, f64::max) / compute_rate
            + tallies.in_bytes.iter().copied().fold(0.0, f64::max)
                / config.spec.bandwidth_bytes_per_s
            + barrier;
        steps.push(SuperstepStats {
            superstep,
            active_vertices: actives.len() as u64,
            gather_messages: tallies.gather_messages,
            sync_messages: tallies.sync_messages,
            machine_work: tallies.work,
            machine_in_bytes: tallies.in_bytes,
            machine_out_bytes: tallies.out_bytes,
            wall_seconds: wall,
        });

        active = if program.always_active() {
            vec![true; n]
        } else {
            next_active
        };
        if !any_changed && superstep > 0 && !program.always_active() {
            // Fixed point: nothing changed, so no scatter activations exist
            // (superstep 0 is exempt — initial scatters may still seed work).
            converged = true;
            break;
        }
    }
    if steps.len() < cap as usize && !converged {
        converged = (0..n).all(|v| !active[v]);
    }
    (
        states,
        ComputeReport::new(program.name(), engine_name, steps, converged),
    )
}

#[inline]
fn local_edges(dir: Direction, local_in: u32, local_out: u32) -> u32 {
    (if dir.includes_in() { local_in } else { 0 })
        + (if dir.includes_out() { local_out } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_partition::{PartitionContext, Strategy};

    /// Minimal label-propagation program (WCC) for engine tests.
    struct MinLabel;

    impl VertexProgram for MinLabel {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "min-label"
        }
        fn gather_direction(&self) -> Direction {
            Direction::Both
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Both
        }
        fn init(&self, v: VertexId, _: InitInfo) -> u64 {
            v.0
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
            *s
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.min(b)
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
            acc.map_or(*old, |a| a.min(*old))
        }
    }

    fn engine() -> SyncGas {
        SyncGas::new(EngineConfig::new(ClusterSpec::local_9()))
    }

    fn partitioned(g: &EdgeList, s: Strategy, p: u32) -> Assignment {
        s.build().partition(g, &PartitionContext::new(p)).assignment
    }

    #[test]
    fn min_label_converges_to_component_minimum() {
        // Two components: {0,1,2} and {3,4}.
        let g = EdgeList::from_pairs(vec![(0, 1), (1, 2), (3, 4)]);
        let a = partitioned(&g, Strategy::Random, 4);
        let (states, report) = engine().run(&g, &a, &MinLabel);
        assert_eq!(states, vec![0, 0, 0, 3, 3]);
        assert!(report.converged);
    }

    #[test]
    fn chain_takes_diameter_supersteps() {
        let g = EdgeList::from_pairs((0..50).map(|i| (i, i + 1)).collect());
        let a = partitioned(&g, Strategy::Random, 4);
        let (states, report) = engine().run(&g, &a, &MinLabel);
        assert!(states.iter().all(|&s| s == 0));
        // Label 0 travels one hop per superstep.
        assert!(
            report.supersteps() >= 50,
            "supersteps {}",
            report.supersteps()
        );
    }

    #[test]
    fn traffic_grows_with_replication_factor() {
        // The Fig 5.3 relationship, at unit-test scale.
        let g = gp_gen::barabasi_albert(3_000, 6, 5);
        let ctx = PartitionContext::new(9);
        let grid = Strategy::Grid.build().partition(&g, &ctx);
        let rand = Strategy::AsymmetricRandom.build().partition(&g, &ctx);
        assert!(rand.assignment.replication_factor() > grid.assignment.replication_factor());
        let (_, rep_grid) = engine().run(&g, &grid.assignment, &MinLabel);
        let (_, rep_rand) = engine().run(&g, &rand.assignment, &MinLabel);
        assert!(
            rep_rand.total_in_bytes() > rep_grid.total_in_bytes(),
            "higher RF must cost more traffic: {} vs {}",
            rep_rand.total_in_bytes(),
            rep_grid.total_in_bytes()
        );
    }

    #[test]
    fn single_partition_has_zero_network() {
        let g = gp_gen::erdos_renyi(200, 1_000, 2);
        let a = partitioned(&g, Strategy::Random, 1);
        let (_, report) = engine().run(&g, &a, &MinLabel);
        assert_eq!(report.total_in_bytes(), 0.0);
        assert!(report.converged);
    }

    #[test]
    fn results_independent_of_partitioning() {
        let g = gp_gen::erdos_renyi(500, 3_000, 9);
        let mut last: Option<Vec<u64>> = None;
        for s in [
            Strategy::Random,
            Strategy::Grid,
            Strategy::Hybrid,
            Strategy::Hdrf,
        ] {
            let a = partitioned(&g, s, 9);
            let (states, _) = engine().run(&g, &a, &MinLabel);
            if let Some(prev) = &last {
                assert_eq!(
                    prev, &states,
                    "partitioning must not change results ({s:?})"
                );
            }
            last = Some(states);
        }
    }

    #[test]
    fn inactive_start_converges_immediately() {
        struct Never;
        impl VertexProgram for Never {
            type State = u8;
            type Accum = u8;
            fn name(&self) -> &'static str {
                "never"
            }
            fn gather_direction(&self) -> Direction {
                Direction::Both
            }
            fn scatter_direction(&self) -> Direction {
                Direction::Both
            }
            fn init(&self, _: VertexId, _: InitInfo) -> u8 {
                0
            }
            fn initially_active(&self, _: VertexId) -> bool {
                false
            }
            fn gather(&self, _: VertexId, _: VertexId, s: &u8, _: InitInfo) -> u8 {
                *s
            }
            fn merge(&self, a: u8, _: u8) -> u8 {
                a
            }
            fn apply(&self, _: VertexId, old: &u8, _: Option<u8>, _: ApplyInfo) -> u8 {
                *old
            }
        }
        let g = EdgeList::from_pairs(vec![(0, 1)]);
        let a = partitioned(&g, Strategy::Random, 2);
        let (_, report) = engine().run(&g, &a, &Never);
        assert_eq!(report.supersteps(), 0);
        assert!(report.converged);
    }

    #[test]
    fn wall_time_is_positive_and_bounded_by_parts() {
        let g = gp_gen::erdos_renyi(500, 4_000, 3);
        let a = partitioned(&g, Strategy::Random, 9);
        let (_, report) = engine().run(&g, &a, &MinLabel);
        assert!(report.compute_seconds() > 0.0);
        for s in &report.steps {
            assert!(s.wall_seconds > 0.0);
            assert_eq!(s.machine_work.len(), 9);
        }
    }
}

#[cfg(test)]
mod delta_caching_tests {
    use super::*;
    use crate::program::{ApplyInfo, InitInfo};
    use gp_cluster::ClusterSpec;
    use gp_core::EdgeList;
    use gp_partition::{PartitionContext, Strategy};

    /// PageRank-shaped convergence program: activity shrinks over time, so
    /// late supersteps have many unchanged neighborhoods for the cache.
    struct Converging;
    impl VertexProgram for Converging {
        type State = u64;
        type Accum = u64;
        fn name(&self) -> &'static str {
            "converging"
        }
        fn gather_direction(&self) -> Direction {
            Direction::In
        }
        fn scatter_direction(&self) -> Direction {
            Direction::Out
        }
        fn init(&self, v: VertexId, _: InitInfo) -> u64 {
            v.0 % 97
        }
        fn initially_active(&self, _: VertexId) -> bool {
            true
        }
        fn gather(&self, _: VertexId, _: VertexId, s: &u64, _: InitInfo) -> u64 {
            *s
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn apply(&self, _: VertexId, old: &u64, acc: Option<u64>, _: ApplyInfo) -> u64 {
            acc.map_or(*old, |a| a.max(*old))
        }
    }

    fn run_with(delta: bool) -> (Vec<u64>, ComputeReport) {
        let g = gp_gen::barabasi_albert(3_000, 6, 11);
        let a = Strategy::Random
            .build()
            .partition(&g, &PartitionContext::new(9))
            .assignment;
        let config = EngineConfig::new(ClusterSpec::local_9()).with_delta_caching(delta);
        SyncGas::new(config).run(&g, &a, &Converging)
    }

    #[test]
    fn delta_caching_preserves_results() {
        let (plain, _) = run_with(false);
        let (cached, _) = run_with(true);
        assert_eq!(plain, cached);
    }

    #[test]
    fn delta_caching_cuts_gather_messages() {
        let (_, plain) = run_with(false);
        let (_, cached) = run_with(true);
        let gm = |r: &ComputeReport| r.steps.iter().map(|s| s.gather_messages).sum::<u64>();
        assert!(
            gm(&cached) < gm(&plain),
            "caching should cut gather messages: {} vs {}",
            gm(&cached),
            gm(&plain)
        );
        assert!(cached.compute_seconds() <= plain.compute_seconds());
    }

    #[test]
    fn edge_list_reexport_is_used() {
        // Keep the EdgeList import honest in this test module.
        let _ = EdgeList::from_pairs(vec![(0, 1)]);
    }
}

//! `ingress` and `ingress-1t`: partition one power-law `.gps` store with
//! six strategies, on `nproc` threads and on one.
//!
//! Store decode, the partition kernels and the `gp-par` shard merge do the
//! work; no engine runs. Random and Grid are hashes, Oblivious and HDRF
//! greedy, Hybrid and H-Ginger PowerLyra's degree-aware family. On one
//! thread `gp-par` splits nothing: decode, degree passes and shard merges
//! run inline. The greedy kernels are sequential on both (default window),
//! so `ingress-1t` is the control for a change to the parallel paths that
//! `ingress` exercises.

use crate::metrics::Metric;
use crate::stats::{fastest, median, Digest};
use crate::trace::Tracer;
use crate::{expect_eq, expected, repeat_for, timed, with_peak, Config, Report, Tally};
use gp_core::{for_each_edge, StreamingEdges};
use gp_gen::{build_powerlaw_store, PowerLawStreamParams};
use gp_partition::{PartitionContext, Strategy};
use gp_store::GraphStore;
use std::path::PathBuf;

/// The strategy set, in report order.
pub(crate) const STRATEGIES: [Strategy; 6] = [
    Strategy::Random,
    Strategy::Grid,
    Strategy::Oblivious,
    Strategy::Hdrf,
    Strategy::Hybrid,
    Strategy::HybridGinger,
];

/// Partition count (default loaders: one per partition; default window).
pub(crate) const PARTITIONS: u32 = 16;

/// What a partition call's output check compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Placed {
    /// Replication factor.
    pub rf: f64,
    /// Max/mean edge load.
    pub imbalance: f64,
    /// Digest of the edge → partition vector.
    pub assignment: u64,
}

/// A store built and opened in set-up; the file is removed on drop.
pub(crate) struct Input {
    /// The opened store.
    pub store: GraphStore,
    path: PathBuf,
    /// Seconds per build.
    pub build_s: Vec<f64>,
    /// Seconds per open.
    pub open_s: Vec<f64>,
}

impl Drop for Input {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Input {
    /// Median seconds of one build plus open.
    pub fn setup_s(&self) -> f64 {
        let both: Vec<f64> = self
            .build_s
            .iter()
            .zip(&self.open_s)
            .map(|(b, o)| b + o)
            .collect();
        median(&both)
    }
}

/// Build the power-law store `cfg.sizes.setups` times at `path` and open
/// it after each build; the last one stays open.
pub(crate) fn build_store(
    cfg: &Config,
    tag: &str,
    edges: u64,
    tracer: &mut Tracer,
) -> Result<Input, String> {
    let path = cfg.scratch(tag);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {:?}: {e}", cfg.work_dir))?;
    let params = PowerLawStreamParams {
        num_vertices: (edges / 16).max(2),
        num_edges: edges,
        ..Default::default()
    };
    let (mut build_s, mut open_s) = (Vec::new(), Vec::new());
    let mut store = None;
    for _ in 0..cfg.sizes.setups {
        // Unmap the previous copy before the file is truncated under it.
        drop(store.take());
        let op = tracer.next_op();
        let (built, b) = tracer.time("gen.store_build", op, || {
            build_powerlaw_store(&path, params, cfg.seed)
        });
        built.map_err(|e| format!("build {path:?}: {e}"))?;
        let (opened, o) = tracer.time("store.open", op, || GraphStore::open(&path));
        store = Some(opened.map_err(|e| format!("open {path:?}: {e}"))?);
        build_s.push(b);
        open_s.push(o);
    }
    let store = store.ok_or("no set-up ran")?;
    expect_eq("store edge count", store.num_edges() as u64, edges)?;
    Ok(Input {
        store,
        path,
        build_s,
        open_s,
    })
}

/// Partition `store` with `strategy` on `threads` threads; returns the
/// checked placement and the seconds the partition call took.
pub(crate) fn place(
    store: &GraphStore,
    strategy: Strategy,
    threads: u32,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Placed, f64), String> {
    let ctx = PartitionContext::new(PARTITIONS)
        .with_seed(seed)
        .with_threads(threads);
    let op = tracer.next_op();
    let name = format!("partition.{}", strategy.label());
    let (outcome, secs) = tracer.time(&name, op, || strategy.build().partition(store, &ctx));
    let a = &outcome.assignment;
    expect_eq("assigned edges", a.num_edges(), store.num_edges())?;
    let mut digest = Digest::default();
    for p in a.edge_partitions() {
        if p.0 >= PARTITIONS {
            return Err(format!("edge placed on partition {} of {PARTITIONS}", p.0));
        }
        digest.u64(u64::from(p.0));
    }
    let placed = Placed {
        rf: a.replication_factor(),
        imbalance: a.balance().imbalance,
        assignment: digest.value(),
    };
    Ok((placed, secs))
}

/// One pass over the strategy set. `reference` holds the first successful
/// placement per strategy; later passes (any thread count) must match it
/// exactly. Returns per-strategy seconds (`None` for a failed call).
fn round(
    cfg: &Config,
    store: &GraphStore,
    threads: u32,
    reference: &mut [Option<Placed>],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Option<f64>> {
    let want = cfg
        .sizes
        .is_full()
        .then(|| expected::ingress(cfg.seed))
        .flatten();
    STRATEGIES
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let what = format!("partition {} at {threads} threads", s.label());
            tally.op(&what, || {
                let (placed, secs) = place(store, s, threads, cfg.seed, tracer)?;
                match reference[i] {
                    Some(r) => expect_eq("placement vs first pass", placed, r)?,
                    None => {
                        if let Some(w) = want {
                            expect_eq("recorded replication factor", placed.rf, w[i].rf)?;
                            expect_eq("recorded edge imbalance", placed.imbalance, w[i].imbalance)?;
                        }
                        reference[i] = Some(placed);
                    }
                }
                Ok(secs)
            })
        })
        .collect()
}

/// Per strategy, the fastest call seconds over `rounds` (`None` if every
/// call of that strategy failed). Each round partitions the same store, so
/// the fastest call is the steady figure.
fn strategy_fastest(rounds: &[Vec<Option<f64>>]) -> Vec<Option<f64>> {
    (0..STRATEGIES.len())
        .map(|i| {
            let calls: Vec<f64> = rounds.iter().filter_map(|r| r[i]).collect();
            (!calls.is_empty()).then(|| fastest(&calls))
        })
        .collect()
}

/// The end-to-end run, timed on `threads` threads.
pub fn measure(cfg: &Config, threads: u32) -> Report {
    let mut rep = Report::default();
    let mut tracer = Tracer::new(false);
    let Some(input) = rep.tally.op("ingress set-up", || {
        build_store(cfg, "ingress", cfg.sizes.ingress_edges, &mut tracer)
    }) else {
        return rep;
    };
    let store = &input.store;
    let mut reference = [None; STRATEGIES.len()];
    let (mut rounds, mut peaks) = (Vec::new(), Vec::new());
    repeat_for(cfg.seconds, || {
        peaks.push(with_peak(|| {
            rounds.push(round(
                cfg,
                store,
                threads,
                &mut reference,
                &mut rep.tally,
                &mut tracer,
            ));
        }));
    });
    // Thread-count identity: one more pass on the other thread count,
    // untimed.
    let other = if threads == 1 { cfg.threads } else { 1 };
    round(
        cfg,
        store,
        other,
        &mut reference,
        &mut rep.tally,
        &mut tracer,
    );
    let per_strategy = strategy_fastest(timed(&rounds));
    let edges = store.num_edges() as f64;
    let round_s: Vec<String> = rounds
        .iter()
        .map(|r| {
            r.iter()
                .map(|s| format!("{:.3}", s.unwrap_or(f64::NAN)))
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rep.notes.push(format!(
        "ingress round seconds per strategy: {}",
        round_s.join(" ")
    ));
    rep.notes.push(format!(
        "ingress: {} rounds x {} strategies over {} edges, {} threads; placements {:?}",
        rounds.len(),
        STRATEGIES.len(),
        store.num_edges(),
        threads,
        reference
            .iter()
            .zip(STRATEGIES)
            .map(|(p, s)| (s.label(), p.map(|p| (p.rf, p.imbalance))))
            .collect::<Vec<_>>()
    ));
    // A best round: each strategy at its fastest call.
    let round_s = per_strategy
        .iter()
        .copied()
        .sum::<Option<f64>>()
        .unwrap_or(f64::NAN);
    let best: Vec<f64> = per_strategy.iter().flatten().copied().collect();
    rep.metrics = vec![
        Metric::new(
            "throughput_per_s",
            edges * STRATEGIES.len() as f64 / round_s,
        ),
        Metric::new(
            "op_best_ms",
            if best.is_empty() {
                f64::NAN
            } else {
                median(&best) * 1e3
            },
        ),
        Metric::new("setup_s", input.setup_s()),
        Metric::new("peak_rss_mb", median(timed(&peaks))),
    ];
    rep
}

/// The traced run's ingress layers; returns the report and the traced
/// throughput on `nproc` threads and on one.
pub fn profile(cfg: &Config, tracer: &mut Tracer) -> (Report, [f64; 2]) {
    let mut rep = Report::default();
    let Some(input) = rep.tally.op("ingress set-up", || {
        build_store(cfg, "profile-ingress", cfg.sizes.ingress_edges, tracer)
    }) else {
        return (rep, [f64::NAN; 2]);
    };
    let store = &input.store;
    let edges = store.num_edges() as f64;
    let op = tracer.next_op();
    let (sum, decode_s) = tracer.time("store.decode", op, || {
        let mut sum = 0u64;
        for_each_edge(store, 0..store.num_edges(), |e| {
            sum = sum.wrapping_add(e.src.0 ^ e.dst.0.rotate_left(17));
        });
        sum
    });
    std::hint::black_box(sum);
    let mut reference = [None; STRATEGIES.len()];
    let nt = round(
        cfg,
        store,
        cfg.threads,
        &mut reference,
        &mut rep.tally,
        tracer,
    );
    let one = round(cfg, store, 1, &mut reference, &mut rep.tally, tracer);
    let total = |r: &[Option<f64>]| r.iter().copied().sum::<Option<f64>>().unwrap_or(f64::NAN);
    let (nt_s, one_s) = (total(&nt), total(&one));
    rep.metrics
        .push(Metric::new("gen.store_build_s", median(&input.build_s)));
    rep.metrics
        .push(Metric::new("store.open_s", median(&input.open_s)));
    rep.metrics
        .push(Metric::new("store.decode_edges_per_s", edges / decode_s));
    for (s, secs) in STRATEGIES.iter().zip(&nt) {
        let secs = secs.unwrap_or(f64::NAN);
        rep.metrics
            .push(Metric::new(format!("partition.{}.s", s.label()), secs));
        rep.metrics.push(Metric::new(
            format!("partition.{}.edges_per_s", s.label()),
            edges / secs,
        ));
    }
    rep.metrics
        .push(Metric::new("par.ingress_speedup", one_s / nt_s));
    rep.metrics.push(Metric::new("par.ingress_1t_s", one_s));
    rep.metrics.push(Metric::new("par.ingress_nt_s", nt_s));
    let placed = edges * STRATEGIES.len() as f64;
    (rep, [placed / nt_s, placed / one_s])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sizes;

    #[test]
    fn a_placement_that_differs_from_the_reference_fails() {
        let cfg = Config {
            seed: 9,
            seconds: 0.0,
            threads: 2,
            sizes: Sizes::tiny(),
            work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        };
        let mut tracer = Tracer::new(false);
        let input = build_store(&cfg, "ingress-unit", 5_000, &mut tracer).expect("tiny store");
        let mut reference = [None; STRATEGIES.len()];
        let mut tally = Tally::default();
        round(
            &cfg,
            &input.store,
            2,
            &mut reference,
            &mut tally,
            &mut tracer,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
        // Single-thread output must match; a corrupted reference must not.
        round(
            &cfg,
            &input.store,
            1,
            &mut reference,
            &mut tally,
            &mut tracer,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
        for r in reference.iter_mut() {
            let p = r.as_mut().expect("placed");
            p.rf += 1e-9;
        }
        round(
            &cfg,
            &input.store,
            2,
            &mut reference,
            &mut tally,
            &mut tracer,
        );
        assert_eq!(tally.failed, STRATEGIES.len() as u64);
        assert_eq!(tally.attempted, 3 * STRATEGIES.len() as u64);
    }
}

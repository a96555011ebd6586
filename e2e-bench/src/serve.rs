//! `serve`: a seeded, churn-heavy traffic plan against a resident
//! partitioned graph through `gp_serve::serve`.
//!
//! The per-event loop does the work — `LiveGraph`, `IncrementalAssignment`
//! and the strategy's incremental partitioner — with inserts and deletes
//! interleaved with k-hop and state reads. Batch partitioning runs only for
//! the base snapshot and for repairs. 1D under a 1.02 rebalance threshold
//! repairs on every seed.

use crate::ingress::{build_store, Input};
use crate::metrics::Metric;
use crate::stats::{fastest, median, Digest};
use crate::trace::Tracer;
use crate::{expect_eq, expected, repeat_for, timed, with_peak, Config, Report, Tally};
use gp_cluster::ClusterSpec;
use gp_core::{EdgeList, PartitionId, StreamingEdges, VertexId};
use gp_partition::{PartitionContext, Strategy};
use gp_serve::{
    serve, DriftPolicy, EventKind, IncrementalAssignment, LiveGraph, ServeConfig, ServeReport,
    TrafficPlan, TrafficRates, KHOP_CAP,
};
use std::hint::black_box;
use std::time::Instant;

/// Strategy under serve: 1D hashes by source, so churn skews edge balance
/// and the rebalance threshold trips.
pub(crate) const STRATEGY: Strategy = Strategy::OneD;

/// Rebalance when max/mean edge load exceeds this.
pub(crate) const REBALANCE_THRESHOLD: f64 = 1.02;

/// The serve configuration on `threads` threads.
pub(crate) fn serve_config(cfg: &Config, threads: u32) -> ServeConfig {
    let spec = ClusterSpec::local_9();
    ServeConfig {
        strategy: STRATEGY,
        num_partitions: spec.machines,
        seed: cfg.seed,
        spec,
        policy: DriftPolicy {
            max_imbalance: REBALANCE_THRESHOLD,
            ..DriftPolicy::default()
        },
        threads,
    }
}

/// The seeded traffic plan over `num_vertices`.
pub(crate) fn plan(cfg: &Config, num_vertices: u64) -> TrafficPlan {
    let s = &cfg.sizes;
    let rates = TrafficRates::default().with_churn_scale(s.serve_churn_scale);
    TrafficPlan::generate(
        cfg.seed,
        num_vertices,
        s.serve_sessions,
        s.serve_horizon_s,
        &rates,
    )
}

struct Setup {
    input: Input,
    plan: TrafficPlan,
    plan_s: Vec<f64>,
}

impl Setup {
    /// Median of store build + open + plan generation.
    fn setup_s(&self) -> f64 {
        let all: Vec<f64> = (0..self.plan_s.len())
            .map(|i| self.input.build_s[i] + self.input.open_s[i] + self.plan_s[i])
            .collect();
        median(&all)
    }
}

fn setup(cfg: &Config, tag: &str, tracer: &mut Tracer) -> Result<Setup, String> {
    let input = build_store(cfg, tag, cfg.sizes.serve_edges, tracer)?;
    let n = input.store.num_vertices();
    let mut plan_s = Vec::new();
    let mut out = None;
    for _ in 0..cfg.sizes.setups {
        let op = tracer.next_op();
        let (p, secs) = tracer.time("gen.plan", op, || plan(cfg, n));
        plan_s.push(secs);
        out = Some(p);
    }
    let plan = out.ok_or("no set-up ran")?;
    Ok(Setup {
        input,
        plan,
        plan_s,
    })
}

/// Digest of a serve report: its rendering plus the exact quality figures.
pub(crate) fn report_digest(r: &ServeReport) -> u64 {
    Digest::default()
        .str(&r.render())
        .f64(r.base_rf)
        .f64(r.final_rf)
        .f64(r.base_imbalance)
        .f64(r.final_imbalance)
        .value()
}

/// One checked `serve()` call; returns the report and its seconds.
fn served(
    cfg: &Config,
    s: &Setup,
    threads: u32,
    reference: &mut Option<u64>,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Option<(ServeReport, f64)> {
    let sc = serve_config(cfg, threads);
    tally.op(&format!("serve at {threads} threads"), || {
        let op = tracer.next_op();
        let (report, secs) = tracer.time("serve.call", op, || serve(&s.input.store, &s.plan, &sc));
        expect_eq(
            "queries answered",
            report.queries as usize,
            s.plan.query_count(),
        )?;
        let inserts = s
            .plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Insert(_)))
            .count();
        expect_eq("inserts applied", report.inserts as usize, inserts)?;
        if report.repairs.is_empty() {
            return Err("no repair fired".to_string());
        }
        let digest = report_digest(&report);
        match *reference {
            Some(r) => expect_eq("report vs first call", digest, r)?,
            None => {
                if let Some(want) = cfg
                    .sizes
                    .is_full()
                    .then(|| expected::serve(cfg.seed))
                    .flatten()
                {
                    expect_eq("report vs recording", digest, want)?;
                }
                *reference = Some(digest);
            }
        }
        Ok((report, secs))
    })
}

/// The end-to-end run: repeated `serve()` calls over one plan.
pub fn measure(cfg: &Config) -> Report {
    let mut rep = Report::default();
    let mut tracer = Tracer::new(false);
    let Some(s) = rep
        .tally
        .op("serve set-up", || setup(cfg, "serve", &mut tracer))
    else {
        return rep;
    };
    let events = s.plan.events.len() as f64;
    let mut reference = None;
    let (mut calls, mut peaks) = (Vec::new(), Vec::new());
    let mut repairs = 0;
    let rounds = repeat_for(cfg.seconds, || {
        peaks.push(with_peak(|| {
            if let Some((r, secs)) = served(
                cfg,
                &s,
                cfg.threads,
                &mut reference,
                &mut rep.tally,
                &mut tracer,
            ) {
                calls.push(secs);
                repairs = r.repairs.len();
            }
        }));
    });
    // Thread-count identity: one more call on a single thread, untimed.
    served(cfg, &s, 1, &mut reference, &mut rep.tally, &mut tracer);
    rep.notes.push(format!(
        "serve: {rounds} calls x {} events over {} base edges, {} threads, {repairs} repairs; digest {reference:?}",
        s.plan.events.len(),
        s.input.store.num_edges(),
        cfg.threads
    ));
    let listed: Vec<String> = calls.iter().map(|c| format!("{c:.3}")).collect();
    rep.notes
        .push(format!("serve call seconds: {}", listed.join(" ")));
    // Every call replays the same plan: the fastest is the steady figure.
    let best = match timed(&calls) {
        [] => f64::NAN,
        calls => fastest(calls),
    };
    rep.metrics = vec![
        Metric::new("throughput_per_s", events / best),
        Metric::new("op_best_ms", best * 1e3),
        Metric::new("setup_s", s.setup_s()),
        Metric::new("peak_rss_mb", median(timed(&peaks))),
    ];
    rep
}

/// Per-op host seconds from replaying a plan without repairs.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Seconds per insert.
    pub insert: Vec<f64>,
    /// Seconds per delete (including a delete that found nothing).
    pub delete: Vec<f64>,
    /// Seconds per k-hop query, with master lookups over the visited set.
    pub khop: Vec<f64>,
    /// Seconds per state read.
    pub read: Vec<f64>,
    /// Live edges at the end.
    pub final_edges: usize,
}

/// Replay `plan` against the public calls the serve loop makes, seeded
/// with the batch placement of the base snapshot, timing each event.
pub(crate) fn replay(
    live: &mut LiveGraph,
    base: &[u32],
    placed: &[PartitionId],
    plan: &TrafficPlan,
    sc: &ServeConfig,
) -> Replay {
    let n = live.num_vertices();
    let mut parts = vec![PartitionId(0); live.num_total()];
    let mut delta = IncrementalAssignment::new(n, sc.num_partitions, sc.seed);
    let mut incr = sc.strategy.incremental(sc.num_partitions, n, sc.seed);
    for (&idx, &p) in base.iter().zip(placed) {
        parts[idx as usize] = p;
        let e = live.edge(idx);
        delta.add(e, p);
        incr.warm(e, p);
    }
    let mut out = Replay::default();
    let mut visited: Vec<VertexId> = Vec::new();
    for ev in &plan.events {
        let t = Instant::now();
        match ev.kind {
            EventKind::Insert(e) => {
                let p = incr.assign(live.num_total() as u64, e);
                live.insert(e);
                parts.push(p);
                delta.add(e, p);
                out.insert.push(t.elapsed().as_secs_f64());
            }
            EventKind::Delete { draw } => {
                if let Some(idx) = live.resolve_delete(draw) {
                    let e = live.edge(idx);
                    let p = parts[idx as usize];
                    live.delete(idx);
                    delta.remove(e, p);
                    incr.retire(e, p);
                }
                out.delete.push(t.elapsed().as_secs_f64());
            }
            EventKind::KHop { start, hops } => {
                live.k_hop(start, hops, KHOP_CAP, &mut visited);
                for &v in &visited {
                    black_box(delta.master_of(v));
                }
                out.khop.push(t.elapsed().as_secs_f64());
            }
            EventKind::ReadState { vertex } => {
                black_box(delta.master_of(vertex));
                out.read.push(t.elapsed().as_secs_f64());
            }
        }
    }
    out.final_edges = live.num_alive();
    out
}

/// The traced run's serve layers; returns the report and the traced
/// throughput.
pub fn profile(cfg: &Config, tracer: &mut Tracer) -> (Report, f64) {
    let mut rep = Report::default();
    let Some(s) = rep
        .tally
        .op("serve set-up", || setup(cfg, "profile-serve", tracer))
    else {
        return (rep, f64::NAN);
    };
    let mut reference = None;
    let Some((report, call_s)) =
        served(cfg, &s, cfg.threads, &mut reference, &mut rep.tally, tracer)
    else {
        return (rep, f64::NAN);
    };
    let sc = serve_config(cfg, cfg.threads);
    let replayed = rep.tally.op("serve replay", || {
        let op = tracer.next_op();
        // The same batch call serve() makes on the base snapshot.
        let mut live = LiveGraph::from_source(&s.input.store);
        let (edges, base) = live.live_edges();
        let el =
            EdgeList::with_vertex_count(edges, live.num_vertices()).map_err(|e| e.to_string())?;
        let ctx = PartitionContext::new(sc.num_partitions)
            .with_seed(sc.seed)
            .with_threads(sc.threads);
        let (outcome, ingest_s) = tracer.time("serve.batch_ingest", op, || {
            sc.strategy.build().partition(&el, &ctx)
        });
        let placed: Vec<PartitionId> = (0..base.len())
            .map(|i| outcome.assignment.edge_partition(i))
            .collect();
        drop(outcome);
        let (r, _) = tracer.time("serve.replay", op, || {
            replay(&mut live, &base, &placed, &s.plan, &sc)
        });
        expect_eq("replayed live edges", r.final_edges, report.final_edges)?;
        expect_eq("replayed inserts", r.insert.len() as u64, report.inserts)?;
        Ok((r, ingest_s))
    });
    let us = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            median(xs) * 1e6
        }
    };
    let m = &mut rep.metrics;
    match &replayed {
        Some((r, ingest_s)) => {
            m.push(Metric::new("serve.batch_ingest_s", *ingest_s));
            m.push(Metric::new("serve.loop_s", call_s - ingest_s));
            m.push(Metric::new("serve.insert_us", us(&r.insert)));
            m.push(Metric::new("serve.delete_us", us(&r.delete)));
            m.push(Metric::new("serve.khop_us", us(&r.khop)));
            m.push(Metric::new("serve.read_us", us(&r.read)));
        }
        None => {
            for name in [
                "serve.batch_ingest_s",
                "serve.loop_s",
                "serve.insert_us",
                "serve.delete_us",
                "serve.khop_us",
                "serve.read_us",
            ] {
                m.push(Metric::new(name, f64::NAN));
            }
        }
    }
    m.push(Metric::new("serve.inserts", report.inserts as f64));
    m.push(Metric::new("serve.deletes", report.deletes as f64));
    m.push(Metric::new("serve.queries", report.queries as f64));
    m.push(Metric::new(
        "serve.rebalances",
        report.repair_count("rebalance") as f64,
    ));
    m.push(Metric::new(
        "serve.repartitions",
        report.repair_count("repartition") as f64,
    ));
    let traced = s.plan.events.len() as f64 / call_s;
    (rep, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sizes;

    #[test]
    fn a_report_that_differs_from_the_reference_fails() {
        let cfg = Config {
            seed: 9,
            seconds: 0.0,
            threads: 2,
            sizes: Sizes::tiny(),
            work_dir: std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        };
        let mut tracer = Tracer::new(false);
        let s = setup(&cfg, "serve-unit", &mut tracer).expect("tiny set-up");
        let mut tally = Tally::default();
        let mut reference = None;
        let (report, _) =
            served(&cfg, &s, 2, &mut reference, &mut tally, &mut tracer).expect("serves");
        assert!(!report.repairs.is_empty());
        assert!(served(&cfg, &s, 1, &mut reference, &mut tally, &mut tracer).is_some());
        reference = reference.map(|d| d ^ 1);
        assert!(served(&cfg, &s, 2, &mut reference, &mut tally, &mut tracer).is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }
}

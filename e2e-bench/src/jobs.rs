//! `jobs`: the paper's dataset × strategy × system × app grid through
//! `gp_bench::Pipeline`, plus a scenario slice (fault, comms and elastic
//! hooks via the ch10/ch11/ch13 experiments) and a telemetry slice (grid
//! jobs recorded with `TelemetrySink::recording()` and exported).
//!
//! Engine superstep accounting and the apps dominate; K-Core sets the
//! tail. GraphX × Coloring is left out: it livelocks by design up to the
//! 1000-superstep cap and costs ~100x any other job.

use crate::metrics::Metric;
use crate::stats::{fastest_per_op, median, tail_percentile, Digest};
use crate::trace::Tracer;
use crate::{expect_eq, expected, repeat_for, timed, with_peak, Config, Report, Tally};
use gp_bench::{experiments, App, EngineKind, JobResult, Pipeline};
use gp_cluster::ClusterSpec;
use gp_gen::Dataset;
use gp_partition::Strategy;
use gp_telemetry::{csv_without_prefix, trace_without_category, TelemetrySink};

/// One analogue per degree class: low-degree, heavy-tailed, power-law.
pub(crate) const DATASETS: [Dataset; 3] =
    [Dataset::RoadNetCa, Dataset::LiveJournal, Dataset::UkWeb];

/// Strategies every system in the grid runs.
pub(crate) const STRATEGIES: [Strategy; 5] = [
    Strategy::Random,
    Strategy::Grid,
    Strategy::Oblivious,
    Strategy::Hdrf,
    Strategy::Hybrid,
];

/// Experiments of the scenario slice.
pub(crate) const SCENARIOS: [&str; 3] = ["ch10-recovery", "ch11-netloss", "ch13-elasticity"];

/// Threads for the timed `jobs` rounds. At `nproc` threads the engines
/// spawn workers every superstep, and on a 2-vCPU VM a round's wall time
/// then swings with host load (21–36 jobs/s between rounds of one run, a
/// 31% IQR across seeds, against about ±5% between rounds at one thread),
/// wider than any regression bound. The `nproc` pass still runs, untimed,
/// for the thread-identity check, and the traced run times both
/// (`par.engine_*`).
pub(crate) const TIMED_THREADS: u32 = 1;

/// GraphX's app set (§7.3): PageRank(10), WCC, directed SSSP.
const GRAPHX_APPS: [App; 3] = [
    App::PageRankFixed(10),
    App::Wcc,
    App::Sssp { undirected: false },
];

/// One grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Job {
    /// Input analogue.
    pub dataset: Dataset,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// System whose engine runs the app.
    pub engine: EngineKind,
    /// Application.
    pub app: App,
}

impl Job {
    /// PowerGraph and PowerLyra run on Local-9, GraphX on Local-10 (§7.3).
    pub fn spec(&self) -> ClusterSpec {
        match self.engine {
            EngineKind::GraphX { .. } => ClusterSpec::local_10(),
            _ => ClusterSpec::local_9(),
        }
    }

    /// Which engine executes the job: Coloring runs asynchronously on
    /// PowerGraph and PowerLyra.
    pub fn engine_class(&self) -> &'static str {
        match (self.engine, self.app) {
            (EngineKind::GraphX { .. }, _) => "pregel",
            (_, App::Coloring) => "async",
            (EngineKind::PowerGraph, _) => "gas",
            (EngineKind::PowerLyra, _) => "hybrid",
        }
    }

    /// App family for the `app.*` metrics.
    pub fn app_class(&self) -> &'static str {
        match self.app {
            App::PageRankFixed(_) => "pagerank10",
            App::PageRankConv => "pagerank_conv",
            App::Wcc => "wcc",
            App::Sssp { .. } => "sssp",
            App::KCore { .. } => "kcore",
            App::Coloring => "coloring",
        }
    }

    /// Human-readable cell name.
    pub fn label(&self) -> String {
        let system = match self.engine {
            EngineKind::PowerGraph => "PowerGraph",
            EngineKind::PowerLyra => "PowerLyra",
            EngineKind::GraphX { .. } => "GraphX",
        };
        format!(
            "{}/{}/{system}/{}",
            self.dataset,
            self.strategy.label(),
            self.app.label()
        )
    }

    /// Partition (on first use of the triple; a cache hit otherwise), then
    /// run. Returns the result with partition and run seconds.
    fn execute(&self, p: &mut Pipeline, tracer: &mut Tracer, op: u64) -> (JobResult, f64, f64) {
        let spec = self.spec();
        let parts = self.engine.partitions(&spec);
        let (_, part_s) = tracer.time("partition.job", op, || {
            p.partition(self.dataset, self.strategy, parts, spec.machines);
        });
        let name = format!("engine.{}", self.engine_class());
        let (job, run_s) = tracer.time(&name, op, || {
            p.run(self.dataset, self.strategy, &spec, self.engine, self.app)
        });
        (job, part_s, run_s)
    }
}

/// The 225-job grid, dataset-major.
pub(crate) fn grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    for dataset in DATASETS {
        for strategy in STRATEGIES {
            for engine in [EngineKind::PowerGraph, EngineKind::PowerLyra] {
                for app in App::paper_set() {
                    jobs.push(Job {
                        dataset,
                        strategy,
                        engine,
                        app,
                    });
                }
            }
            for app in GRAPHX_APPS {
                let engine = EngineKind::graphx_default();
                jobs.push(Job {
                    dataset,
                    strategy,
                    engine,
                    app,
                });
            }
        }
    }
    jobs
}

/// Grid cells the telemetry slice records, one per dataset and system.
pub(crate) fn traced_jobs() -> [Job; 3] {
    [
        Job {
            dataset: Dataset::LiveJournal,
            strategy: Strategy::Hdrf,
            engine: EngineKind::PowerGraph,
            app: App::PageRankFixed(10),
        },
        Job {
            dataset: Dataset::RoadNetCa,
            strategy: Strategy::Grid,
            engine: EngineKind::PowerLyra,
            app: App::Wcc,
        },
        Job {
            dataset: Dataset::UkWeb,
            strategy: Strategy::Hybrid,
            engine: EngineKind::graphx_default(),
            app: App::Sssp { undirected: false },
        },
    ]
}

/// Digest of a job's simulated outputs: replication factor, supersteps and
/// the cost model's seconds and bytes, by exact bit pattern.
pub(crate) fn job_digest(j: &JobResult) -> u64 {
    Digest::default()
        .str(j.strategy.label())
        .str(j.app)
        .f64(j.replication_factor)
        .u64(u64::from(j.supersteps))
        .f64(j.ingress_seconds)
        .f64(j.compute_seconds)
        .f64(j.mean_net_in_bytes)
        .f64(j.peak_memory_bytes)
        .value()
}

/// Digests a pass compares against the first pass (and the recording).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Digests {
    /// Per grid job, in grid order.
    pub grid: Vec<Option<u64>>,
    /// Per scenario experiment (its rendered tables).
    pub scenarios: Vec<Option<u64>>,
    /// Per telemetry-slice job (result plus both exports).
    pub telemetry: Vec<Option<u64>>,
}

/// Fold a list of per-op digests; `None` if any op failed.
pub(crate) fn fold(digests: &[Option<u64>]) -> Option<u64> {
    let mut d = Digest::default();
    for x in digests {
        d.u64((*x)?);
    }
    Some(d.value())
}

/// Per-job timings of one grid pass.
#[derive(Debug, Default)]
pub(crate) struct GridPass {
    /// Set-up seconds: generating the three analogues.
    pub setup_s: f64,
    /// Per job: (job, partition seconds, run seconds); `None` if it failed.
    pub jobs: Vec<Option<(Job, f64, f64, u32)>>,
}

impl GridPass {
    /// Per-job latencies in seconds (partition plus run).
    pub fn latencies(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .flatten()
            .map(|&(_, p, r, _)| p + r)
            .collect()
    }

    /// Sum of run seconds (engine time on cached partitions).
    pub fn run_s(&self) -> f64 {
        self.jobs.iter().flatten().map(|&(_, _, r, _)| r).sum()
    }
}

/// Run the whole grid on a fresh pipeline at `threads`; compare each job
/// against `reference` (first successful pass) and the recording.
fn grid_pass(
    cfg: &Config,
    threads: u32,
    reference: &mut Digests,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> GridPass {
    let mut p = Pipeline::new(cfg.sizes.jobs_scale, cfg.seed).with_threads(threads);
    let op = tracer.next_op();
    let ((), setup_s) = tracer.time("gen.dataset", op, || {
        for d in DATASETS {
            p.graph(d);
        }
    });
    let jobs = grid();
    reference.grid.resize(jobs.len(), None);
    let mut pass = GridPass {
        setup_s,
        jobs: Vec::with_capacity(jobs.len()),
    };
    for (i, job) in jobs.into_iter().enumerate() {
        let what = format!("job {} at {threads} threads", job.label());
        let outcome = tally.op(&what, || {
            let op = tracer.next_op();
            let open = tracer.enter("job", op);
            let (result, part_s, run_s) = job.execute(&mut p, tracer, op);
            tracer.exit(open);
            if result.failed {
                return Err("job failed".to_string());
            }
            let digest = job_digest(&result);
            match reference.grid[i] {
                Some(r) => expect_eq("job digest vs first pass", digest, r)?,
                None => reference.grid[i] = Some(digest),
            }
            Ok((job, part_s, run_s, result.supersteps))
        });
        pass.jobs.push(outcome);
    }
    let want = recorded(cfg).map(|e| e.grid);
    check_recorded(tally, "grid digest vs recording", want, &reference.grid);
    pass
}

/// Compare the fold of `digests` with its recording, as one checked
/// operation; skipped without a recording or after a failed op.
fn check_recorded(tally: &mut Tally, what: &str, want: Option<u64>, digests: &[Option<u64>]) {
    if let (Some(want), Some(got)) = (want, fold(digests)) {
        tally.op(what, || expect_eq("digest", got, want));
    }
}

fn recorded(cfg: &Config) -> Option<expected::Jobs> {
    cfg.sizes
        .is_full()
        .then(|| expected::jobs(cfg.seed))
        .flatten()
}

/// Run the three scenario experiments; returns per-experiment seconds.
fn scenario_pass(
    cfg: &Config,
    reference: &mut Digests,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Option<f64>> {
    reference.scenarios.resize(SCENARIOS.len(), None);
    let out = SCENARIOS
        .iter()
        .enumerate()
        .map(|(i, id)| {
            tally.op(id, || {
                let exp = experiments::find(id).ok_or(format!("experiment {id} not registered"))?;
                let op = tracer.next_op();
                let name = format!("hooks.{}", &id[..4]);
                let (tables, secs) =
                    tracer.time(&name, op, || (exp.run)(cfg.sizes.scenario_scale, cfg.seed));
                if tables.iter().all(|t| t.is_empty()) {
                    return Err("no table rows".to_string());
                }
                let mut d = Digest::default();
                for t in &tables {
                    d.str(t.title());
                    for row in t.rows() {
                        for cell in row {
                            d.str(cell);
                        }
                    }
                }
                match reference.scenarios[i] {
                    Some(r) => expect_eq("scenario tables vs first pass", d.value(), r)?,
                    None => reference.scenarios[i] = Some(d.value()),
                }
                Ok(secs)
            })
        })
        .collect();
    let want = recorded(cfg).map(|e| e.scenarios);
    check_recorded(
        tally,
        "scenario digest vs recording",
        want,
        &reference.scenarios,
    );
    out
}

/// Pipelines for the telemetry slice, one per job, analogues generated.
fn slice_pipelines(cfg: &Config, threads: u32, record: bool) -> Vec<Pipeline> {
    traced_jobs()
        .iter()
        .map(|job| {
            let mut p = Pipeline::new(cfg.sizes.jobs_scale, cfg.seed).with_threads(threads);
            if record {
                p = p.with_telemetry(TelemetrySink::recording());
            }
            p.graph(job.dataset);
            p
        })
        .collect()
}

/// Seconds of one telemetry-slice job: run, then export.
#[derive(Debug, Clone, Copy)]
struct SliceJob {
    run_s: f64,
    export_s: f64,
}

/// Run the telemetry slice on recording pipelines; each result must match
/// the untraced grid job, and both exports the first pass.
fn telemetry_pass(
    pipelines: Vec<Pipeline>,
    threads: u32,
    reference: &mut Digests,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Option<SliceJob>> {
    let jobs = grid();
    reference.telemetry.resize(traced_jobs().len(), None);
    traced_jobs()
        .into_iter()
        .zip(pipelines)
        .enumerate()
        .map(|(i, (job, mut p))| {
            let what = format!("telemetry slice {} at {threads} threads", job.label());
            tally.op(&what, || {
                let op = tracer.next_op();
                let open = tracer.enter("telemetry.job", op);
                let (result, part_s, run_s) = job.execute(&mut p, tracer, op);
                let ((trace, csv), export_s) = tracer.time("telemetry.export", op, || {
                    (
                        p.telemetry().chrome_trace_json(),
                        p.telemetry().metrics_csv(),
                    )
                });
                tracer.exit(open);
                let digest = job_digest(&result);
                let cell = jobs
                    .iter()
                    .position(|j| *j == job)
                    .ok_or("traced job not in grid")?;
                if let Some(untraced) = reference.grid.get(cell).copied().flatten() {
                    expect_eq("recorded job vs untraced job", digest, untraced)?;
                }
                if !trace.contains("traceEvents") || csv.lines().count() < 2 {
                    return Err("empty telemetry export".to_string());
                }
                // The `par` category records real threads; everything else
                // is simulated and must not depend on the thread count.
                let d = Digest::default()
                    .u64(digest)
                    .str(&trace_without_category(&trace, "par"))
                    .str(&csv_without_prefix(&csv, "par."))
                    .value();
                match reference.telemetry[i] {
                    Some(r) => expect_eq("telemetry exports vs first pass", d, r)?,
                    None => reference.telemetry[i] = Some(d),
                }
                Ok(SliceJob {
                    run_s: part_s + run_s,
                    export_s,
                })
            })
        })
        .collect()
}

/// Untraced twin of the telemetry slice: the same jobs on pipelines
/// without a sink. Returns total run seconds.
fn untraced_slice(cfg: &Config, tracer: &mut Tracer) -> f64 {
    let mut total = 0.0;
    for (job, mut p) in traced_jobs()
        .into_iter()
        .zip(slice_pipelines(cfg, TIMED_THREADS, false))
    {
        let op = tracer.next_op();
        let (_, part_s, run_s) = job.execute(&mut p, tracer, op);
        total += part_s + run_s;
    }
    total
}

fn check_telemetry_recording(cfg: &Config, reference: &Digests, tally: &mut Tally) {
    let want = recorded(cfg).map(|e| e.telemetry);
    check_recorded(
        tally,
        "telemetry digest vs recording",
        want,
        &reference.telemetry,
    );
}

/// The end-to-end run: grid, scenario and telemetry slices per round.
pub fn measure(cfg: &Config) -> Report {
    let mut rep = Report::default();
    let mut tracer = Tracer::new(false);
    let mut reference = Digests::default();
    let (mut passes, mut setups) = (Vec::<Option<Vec<f64>>>::new(), Vec::new());
    let mut peaks = Vec::new();
    let rounds = repeat_for(cfg.seconds, || {
        peaks.push(with_peak(|| {
            let start = std::time::Instant::now();
            let slice = slice_pipelines(cfg, TIMED_THREADS, true);
            let slice_setup = start.elapsed().as_secs_f64();
            let pass = grid_pass(
                cfg,
                TIMED_THREADS,
                &mut reference,
                &mut rep.tally,
                &mut tracer,
            );
            setups.push(pass.setup_s + slice_setup);
            let mut round = pass.latencies();
            round.extend(
                scenario_pass(cfg, &mut reference, &mut rep.tally, &mut tracer)
                    .into_iter()
                    .flatten(),
            );
            let sliced = telemetry_pass(
                slice,
                TIMED_THREADS,
                &mut reference,
                &mut rep.tally,
                &mut tracer,
            );
            round.extend(sliced.iter().flatten().map(|s| s.run_s + s.export_s));
            let attempted = pass.jobs.len() + SCENARIOS.len() + sliced.len();
            passes.push((round.len() == attempted).then_some(round));
        }));
    });
    check_telemetry_recording(cfg, &reference, &mut rep.tally);
    let listed: Vec<String> = passes
        .iter()
        .map(|p| {
            let rate = p.as_ref().map(|p| p.len() as f64 / p.iter().sum::<f64>());
            format!("{:.2}", rate.unwrap_or(f64::NAN))
        })
        .collect();
    // Every complete round runs the same ops in the same order: each op at
    // its fastest over the rounds is the steady figure.
    let complete: Vec<&[f64]> = timed(&passes).iter().flatten().map(Vec::as_slice).collect();
    let best = fastest_per_op(&complete);
    rep.notes
        .push(format!("jobs ops/s per round: {}", listed.join(" ")));
    // Thread-count identity: grid and telemetry slice once more on all
    // threads, untimed. The scenario experiments run single-threaded anyway.
    grid_pass(
        cfg,
        cfg.threads,
        &mut reference,
        &mut rep.tally,
        &mut tracer,
    );
    let slice = slice_pipelines(cfg, cfg.threads, true);
    telemetry_pass(
        slice,
        cfg.threads,
        &mut reference,
        &mut rep.tally,
        &mut tracer,
    );
    rep.notes.push(format!(
        "jobs: {rounds} rounds, {} ops per round timed at {TIMED_THREADS} thread, checked at {}; digests grid {:?} scenarios {:?} telemetry {:?}",
        best.len(),
        cfg.threads,
        fold(&reference.grid),
        fold(&reference.scenarios),
        fold(&reference.telemetry)
    ));
    let med = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { median(xs) };
    rep.metrics = vec![
        Metric::new(
            "throughput_per_s",
            best.len() as f64 / best.iter().sum::<f64>(),
        ),
        Metric::new("op_best_ms", med(&best) * 1e3),
        Metric::new("setup_s", med(&setups)),
        Metric::new("peak_rss_mb", med(timed(&peaks))),
    ];
    rep
}

/// The traced run's jobs layers; returns the report and the traced
/// throughput. Layer times come from the pass at [`TIMED_THREADS`], the
/// thread count the end-to-end rounds use; `par.engine_*` adds `nproc`.
pub fn profile(cfg: &Config, tracer: &mut Tracer) -> (Report, f64) {
    let mut rep = Report::default();
    let mut reference = Digests::default();
    let pass = grid_pass(cfg, TIMED_THREADS, &mut reference, &mut rep.tally, tracer);
    let nt = grid_pass(cfg, cfg.threads, &mut reference, &mut rep.tally, tracer);
    let scen = scenario_pass(cfg, &mut reference, &mut rep.tally, tracer);
    let slice = slice_pipelines(cfg, TIMED_THREADS, true);
    let sliced = telemetry_pass(slice, TIMED_THREADS, &mut reference, &mut rep.tally, tracer);
    check_telemetry_recording(cfg, &reference, &mut rep.tally);
    let untraced_s = untraced_slice(cfg, tracer);

    let done: Vec<(Job, f64, f64, u32)> = pass.jobs.iter().flatten().copied().collect();
    let sum =
        |f: &dyn Fn(&Job) -> bool| -> f64 { done.iter().filter(|j| f(&j.0)).map(|j| j.2).sum() };
    let m = &mut rep.metrics;
    m.push(Metric::new(
        "gen.dataset_s",
        median(&[pass.setup_s, nt.setup_s]),
    ));
    m.push(Metric::new(
        "partition.jobs_s",
        done.iter().map(|j| j.1).sum::<f64>(),
    ));
    m.push(Metric::new("par.engine_speedup", pass.run_s() / nt.run_s()));
    m.push(Metric::new("par.engine_1t_s", pass.run_s()));
    m.push(Metric::new("par.engine_nt_s", nt.run_s()));
    for class in ["gas", "hybrid", "pregel", "async"] {
        m.push(Metric::new(
            format!("engine.{class}_s"),
            sum(&|j| j.engine_class() == class),
        ));
    }
    let supersteps: u64 = done.iter().map(|j| u64::from(j.3)).sum();
    m.push(Metric::new("engine.supersteps", supersteps as f64));
    m.push(Metric::new(
        "engine.us_per_superstep",
        pass.run_s() / supersteps as f64 * 1e6,
    ));
    for class in [
        "pagerank10",
        "pagerank_conv",
        "wcc",
        "sssp",
        "kcore",
        "coloring",
    ] {
        m.push(Metric::new(
            format!("app.{class}_s"),
            sum(&|j| j.app_class() == class),
        ));
    }
    let lat = pass.latencies();
    m.push(Metric::new(
        "jobs.p95_ms",
        tail_percentile(&lat, 0.95).map_or(f64::NAN, |s| s * 1e3),
    ));
    m.push(Metric::new("jobs.samples", lat.len() as f64));
    for (id, secs) in SCENARIOS.iter().zip(&scen) {
        m.push(Metric::new(
            format!("hooks.{}_s", &id[..4]),
            secs.unwrap_or(f64::NAN),
        ));
    }
    let traced_s: f64 = sliced.iter().flatten().map(|s| s.run_s).sum();
    let export_s: f64 = sliced.iter().flatten().map(|s| s.export_s).sum();
    m.push(Metric::new(
        "telemetry.record_overhead",
        traced_s / untraced_s,
    ));
    m.push(Metric::new("telemetry.export_s", export_s));
    let ops = lat.len() + scen.iter().flatten().count() + sliced.iter().flatten().count();
    let secs = lat.iter().sum::<f64>() + scen.iter().flatten().sum::<f64>() + traced_s + export_s;
    (rep, ops as f64 / secs)
}

//! End-to-end benchmark for distgraph.
//!
//! Four workloads — `ingress` and `ingress-1t` (partition a `.gps` store
//! with six strategies on `nproc` threads and on one), `jobs` (the
//! paper's dataset × strategy × system × app grid plus fault/comms/elastic
//! scenarios and a telemetry slice) and `serve` (a churning traffic plan
//! against a resident partitioned graph) — each timed from outside
//! through the workspace crates' public functions. An
//! untraced run reports the end-to-end metrics; a traced run records a
//! host-clock span around every layer call and reports per-layer metrics.
//! Every timed output is checked; see README.md for the metric map.

pub mod expected;
pub mod host;
pub mod ingress;
pub mod jobs;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use metrics::Metric;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Input sizes. [`Sizes::full`] is what the benchmark measures and what
/// the recorded expectations in [`expected`] hold for.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Edges in the `ingress` power-law store.
    pub ingress_edges: u64,
    /// Dataset scale of the `jobs` grid.
    pub jobs_scale: f64,
    /// Dataset scale of the `jobs` scenario experiments.
    pub scenario_scale: f64,
    /// Edges in the `serve` base store.
    pub serve_edges: u64,
    /// Traffic plan horizon, simulated seconds.
    pub serve_horizon_s: f64,
    /// Traffic plan sessions.
    pub serve_sessions: u32,
    /// Churn multiplier on the default insert/delete rates.
    pub serve_churn_scale: f64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Sizes {
        Sizes {
            ingress_edges: 4_000_000,
            jobs_scale: 0.05,
            scenario_scale: 0.05,
            serve_edges: 1_000_000,
            serve_horizon_s: 120.0,
            serve_sessions: 4,
            serve_churn_scale: 12.0,
            setups: 9,
        }
    }

    /// Seconds-scale inputs for the smoke tests.
    pub fn tiny() -> Sizes {
        Sizes {
            ingress_edges: 20_000,
            jobs_scale: 0.01,
            scenario_scale: 0.01,
            serve_edges: 20_000,
            serve_horizon_s: 20.0,
            serve_sessions: 2,
            serve_churn_scale: 4.0,
            setups: 2,
        }
    }

    /// Whether recorded expectations apply.
    pub fn is_full(&self) -> bool {
        *self == Sizes::full()
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Measured-phase length; rounds repeat until it has elapsed.
    pub seconds: f64,
    /// Threads for ingress and engine kernels.
    pub threads: u32,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where stores and the trace file go.
    pub work_dir: PathBuf,
}

impl Config {
    /// A scratch file path unique to this process, seed and `tag`.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        self.work_dir
            .join(format!("{tag}-{}-{}.gps", self.seed, std::process::id()))
    }
}

/// Attempted and failed operations, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (layer calls whose output is checked).
    pub attempted: u64,
    /// Operations that panicked or failed their output check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Run one operation. A panic or an `Err` counts it as failed and
    /// yields `None`.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => {
                self.attempted += 1;
                return Some(v);
            }
            Ok(Err(e)) => e,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                format!("panicked: {msg}")
            }
        };
        self.fail(format!("{what}: {err}"));
        None
    }

    /// Record a check that failed outside [`Tally::op`], as one attempted
    /// and failed operation.
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Operation accounting.
    pub tally: Tally,
    /// Human-readable lines for standard error (sample counts, digests).
    pub notes: Vec<String>,
}

/// `Ok` iff `got == want`, naming `what` otherwise.
pub(crate) fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Repeat `round` until `seconds` have elapsed, at least twice. Returns
/// the number of rounds.
pub(crate) fn repeat_for(seconds: f64, mut round: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        round();
        rounds += 1;
    }
    rounds
}

/// The rounds metrics are taken from: all but the first, which warms the
/// allocator and caches (it is still checked).
pub(crate) fn timed<T>(rounds: &[T]) -> &[T] {
    rounds.get(1..).filter(|r| !r.is_empty()).unwrap_or(rounds)
}

/// Run one measured round and return the peak resident memory (MB, 10^6
/// bytes) it reached. The kernel's high-water mark is reset to the current
/// RSS first; where procfs refuses, the mark stays process-wide. Rounds
/// allocate on worker threads, so one round's peak depends on scheduling:
/// the workloads report the median over rounds.
pub(crate) fn with_peak(round: impl FnOnce()) -> f64 {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    round();
    gp_telemetry::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// The workloads. The traced run profiles `ingress` and `ingress-1t`
/// together: it partitions on both thread counts for the `par.*` ratios.
pub const WORKLOADS: [&str; 4] = ["ingress", "ingress-1t", "jobs", "serve"];

/// Untraced run of `workload`: the end-to-end metrics.
pub fn measure(workload: &str, cfg: &Config) -> Report {
    match workload {
        "ingress" => ingress::measure(cfg, cfg.threads),
        "ingress-1t" => ingress::measure(cfg, 1),
        "jobs" => jobs::measure(cfg),
        "serve" => serve::measure(cfg),
        other => panic!("unknown workload {other}"),
    }
}

/// Traced run named for `workload`: every layer of every workload is
/// profiled; `trace.throughput_per_s` is the named workload's throughput.
pub fn profile(workload: &str, cfg: &Config, tracer: &mut trace::Tracer) -> Report {
    assert!(WORKLOADS.contains(&workload), "unknown workload {workload}");
    let mut out = Report::default();
    for layers in ["ingress", "jobs", "serve"] {
        let (part, throughput) = match layers {
            "ingress" => {
                let (part, [nt, one]) = ingress::profile(cfg, tracer);
                (part, if workload == "ingress-1t" { one } else { nt })
            }
            "jobs" => jobs::profile(cfg, tracer),
            _ => serve::profile(cfg, tracer),
        };
        out.metrics.extend(part.metrics);
        out.tally.attempted += part.tally.attempted;
        out.tally.failed += part.tally.failed;
        out.tally.problems.extend(part.tally.problems);
        out.notes.extend(part.notes);
        if workload.starts_with(layers) {
            out.metrics
                .push(Metric::new("trace.throughput_per_s", throughput));
        }
    }
    out.metrics
        .push(Metric::new("trace.spans", tracer.spans().len() as f64));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_and_panics_as_failures() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", || Ok(3)), Some(3));
        assert_eq!(t.op("err", || Err::<(), _>("bad output".to_string())), None);
        assert_eq!(
            t.op("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.problems[0].contains("bad output"));
        assert!(t.problems[1].contains("boom"));
    }

    #[test]
    fn the_first_round_is_warm_up() {
        assert_eq!(timed(&[1, 2, 3]), &[2, 3]);
        assert_eq!(timed(&[1]), &[1]);
        let mut n = 0;
        assert_eq!(repeat_for(0.0, || n += 1), 2);
        assert_eq!(n, 2);
    }
}

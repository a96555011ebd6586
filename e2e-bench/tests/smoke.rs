//! Tiny-size runs of every workload, output checks included.

use e2e_bench::metrics::{check_complete, END_TO_END, PER_LAYER};
use e2e_bench::trace::Tracer;
use e2e_bench::{measure, profile, Config, Sizes};
use std::path::PathBuf;

fn tiny(seed: u64) -> Config {
    Config {
        seed,
        seconds: 0.0,
        threads: 2,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e-bench-smoke"),
    }
}

fn assert_clean(what: &str, rep: &e2e_bench::Report, decls: &[e2e_bench::metrics::Decl]) {
    assert!(rep.tally.attempted > 0, "{what}: nothing attempted");
    assert_eq!(rep.tally.failed, 0, "{what}: {:?}", rep.tally.problems);
    assert_eq!(
        check_complete(&rep.metrics, decls),
        Vec::<String>::new(),
        "{what}"
    );
}

#[test]
fn ingress_smoke() {
    for workload in ["ingress", "ingress-1t"] {
        let rep = measure(workload, &tiny(3));
        assert_clean(workload, &rep, END_TO_END);
        // Set-up, two timed rounds of six strategies and the pass on the
        // other thread count.
        assert_eq!(rep.tally.attempted, 1 + 6 * 3, "{workload}");
    }
}

#[test]
fn jobs_smoke() {
    let rep = measure("jobs", &tiny(3));
    assert_clean("jobs", &rep, END_TO_END);
    assert!(rep.tally.attempted >= 2 * (225 + 3 + 3));
}

#[test]
fn serve_smoke() {
    let rep = measure("serve", &tiny(3));
    assert_clean("serve", &rep, END_TO_END);
}

#[test]
fn traced_run_reports_every_layer() {
    let mut tracer = Tracer::new(true);
    let rep = profile("serve", &tiny(4), &mut tracer);
    assert_clean("profile", &rep, PER_LAYER);
    let spans = tracer.spans();
    for layer in [
        "gen.store_build",
        "store.open",
        "partition.HDRF",
        "engine.gas",
        "hooks.ch10",
        "serve.call",
    ] {
        assert!(spans.iter().any(|s| s.name == layer), "no {layer} span");
    }
    // Partition and engine spans nest inside their job's span.
    let job = spans
        .iter()
        .position(|s| s.name == "job")
        .expect("a job span");
    assert!(spans
        .iter()
        .any(|s| s.parent == Some(job) && s.name.starts_with("engine.")));
}

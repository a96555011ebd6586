//! Measures multi-threaded ingress throughput — edges/second at 1, 2 and
//! 4 threads on a synthetic power-law graph — for one stateless strategy
//! (Random: the pure-function assignment path) and the two stateful greedy
//! strategies (HDRF and Oblivious: per-loader state, loaders in parallel),
//! and writes the results to `BENCH_ingress.json` in the working directory.
//! Each row is the median of 9 timed passes after one warm-up pass; the
//! file records the host's core count and `rustc` version, because a row
//! only holds on the host class where it was measured.
//!
//! With `--check` it also acts as the CI `par-smoke` regression gate:
//!
//! - **Coverage:** every strategy label present in the committed
//!   `BENCH_ingress.json` must appear in this run's sweep. A label that
//!   silently drops out of the bench is a FAILURE, not a skip — that is
//!   how a parallel path quietly stops being measured.
//! - **≥ 4 cores:** 4-thread ingress must be at least as fast as 1-thread
//!   for every sweep (including stateless Random, whose shard merge is the
//!   reduction tree).
//! - **≥ 2 cores:** 2-thread ingress must be within 10% of 1-thread.
//! - **1 core:** extra workers can only time-slice the core, so the gates
//!   degrade to a pathology bound — fail only if 2 threads are slower than
//!   1 by more than 2x, which would indicate duplicated work rather than
//!   contention.

use gp_bench::{host_cores, median_seconds, rustc_version};
use gp_partition::{PartitionContext, Strategy};

const VERTICES: u64 = 120_000;
const EDGES_PER_VERTEX: u64 = 10;
const PARTITIONS: u32 = 9;
const THREAD_COUNTS: [u32; 3] = [1, 2, 4];
/// Timed passes per row; the row reports their median.
const PASSES: usize = 9;

/// Median edges/second over [`PASSES`] full partitioning passes.
fn measure(graph: &gp_core::EdgeList, strategy: Strategy, threads: u32) -> f64 {
    let ctx = PartitionContext::new(PARTITIONS)
        .with_seed(1)
        .with_threads(threads);
    let secs = median_seconds(PASSES, || {
        let out = strategy.build().partition(graph, &ctx);
        assert_eq!(out.assignment.num_edges(), graph.num_edges());
        out
    });
    graph.num_edges() as f64 / secs
}

/// Strategy labels recorded in an existing `BENCH_ingress.json`, so the
/// check can fail when a previously-benched sweep goes missing. A naive
/// line scan is enough for the file this binary itself writes.
fn committed_labels(path: &str) -> Vec<String> {
    let Ok(body) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    body.lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("\"strategy\": \"")?;
            Some(rest.trim_end_matches(&[',', '"'][..]).to_string())
        })
        .collect()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let prior = committed_labels("BENCH_ingress.json");
    let cores = host_cores();
    let graph = gp_gen::barabasi_albert(VERTICES, EDGES_PER_VERTEX as u32, 1);
    let plans: [(&str, Strategy); 3] = [
        ("Random", Strategy::Random),
        ("HDRF", Strategy::Hdrf),
        ("Oblivious", Strategy::Oblivious),
    ];
    // sweeps[label] = [(threads, edges/s)]
    let mut sweeps: Vec<(&'static str, Vec<(u32, f64)>)> = Vec::new();
    for (label, strategy) in plans {
        let mut results = Vec::new();
        for threads in THREAD_COUNTS {
            let eps = measure(&graph, strategy, threads);
            println!("{label:10} {threads} thread(s): {eps:.0} edges/s");
            results.push((threads, eps));
        }
        sweeps.push((label, results));
    }
    let sweep_json: Vec<String> = sweeps
        .iter()
        .map(|(label, results)| {
            let rows: Vec<String> = results
                .iter()
                .map(|(t, eps)| {
                    format!("        {{\"threads\": {t}, \"edges_per_sec\": {eps:.0}}}")
                })
                .collect();
            format!(
                "    {{\n      \"strategy\": \"{label}\",\n      \
                 \"results\": [\n{}\n      ]\n    }}",
                rows.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ingress-throughput\",\n  \"cores\": {cores},\n  \
         \"rustc\": \"{}\",\n  \"graph\": {{\"model\": \"barabasi-albert\", \
         \"vertices\": {VERTICES}, \"edges_per_vertex\": {EDGES_PER_VERTEX}}},\n  \
         \"partitions\": {PARTITIONS},\n  \"edges\": {},\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        rustc_version(),
        graph.num_edges(),
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_ingress.json", json).expect("write BENCH_ingress.json");
    println!("wrote BENCH_ingress.json");
    if check {
        let mut failed = false;
        // Coverage gate: nothing that was benched before may vanish.
        for label in &prior {
            if !sweeps.iter().any(|(l, _)| l == label) {
                eprintln!(
                    "par-smoke FAILED: strategy \"{label}\" is in the committed \
                     BENCH_ingress.json but missing from this run's sweep"
                );
                failed = true;
            }
        }
        for (label, results) in &sweeps {
            let one = results[0].1;
            let two = results[1].1;
            let four = results[2].1;
            if cores >= 4 && four < one {
                eprintln!(
                    "par-smoke FAILED [{label}]: 4-thread ingress ({four:.0} edges/s) is slower \
                     than 1-thread ({one:.0} edges/s) on {cores} cores"
                );
                failed = true;
            }
            let (bound, bound_label) = if cores >= 2 {
                (1.10, "10%")
            } else {
                (2.0, "2x (single-core pathology bound)")
            };
            if two < one / bound {
                eprintln!(
                    "par-smoke FAILED [{label}]: 2-thread ingress ({two:.0} edges/s) is more than \
                     {bound_label} slower than 1-thread ({one:.0} edges/s) on {cores} core(s)"
                );
                failed = true;
            } else {
                println!(
                    "par-smoke OK [{label}]: 2-thread ingress within {bound_label} of 1-thread \
                     ({two:.0} vs {one:.0} edges/s, {cores} core(s))"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

//! Benchmarks the `gp-store` storage layer and writes `BENCH_store.json`
//! in the working directory:
//!
//! 1. **Build throughput** — edges/second streaming the power-law generator
//!    through `StoreBuilder` to a compressed `.gps` file on disk.
//! 2. **Compression** — bytes/edge of the `.gps` encoding on three graph
//!    families (road lattice, heavy-tailed social, power-law web), against
//!    the 16 bytes/edge of the in-memory edge list.
//! 3. **Ingress throughput** — edges/second partitioning the *same sorted
//!    edges* from memory vs. streamed off the store, for one stateless
//!    (Random) and one stateful (HDRF) strategy. Each row is the median of
//!    9 timed passes after one warm-up pass.
//!
//! The file records the host's core count and `rustc` version, because a
//! row only holds on the host class where it was measured.
//!
//! With `--check` it acts as the CI `store-smoke` regression gate:
//! compression must beat 8 bytes/edge on every family (half the raw edge
//! list; gap coding on sorted adjacency should land well under this), and
//! streamed ingress must stay within 8x of in-memory (varint decode is
//! real work, but an order-of-magnitude collapse means the seek path or
//! chunk alignment regressed).

use gp_bench::{host_cores, median_seconds, rustc_version};
use gp_core::StreamingEdges;
use gp_gen::{build_powerlaw_store, PowerLawStreamParams};
use gp_partition::{PartitionContext, Strategy};
use gp_store::{write_edge_list, GraphStore};
use std::time::Instant;

const BUILD_EDGES: u64 = 4_000_000;
const INGRESS_SCALE: f64 = 0.5;
const PARTITIONS: u32 = 9;
/// Timed ingress passes per row; the row reports their median.
const PASSES: usize = 9;

/// Median edges/second over [`PASSES`] full partitioning passes.
fn measure_ingress(graph: &dyn StreamingEdges, strategy: Strategy) -> f64 {
    let ctx = PartitionContext::new(PARTITIONS)
        .with_seed(1)
        .with_threads(1);
    let secs = median_seconds(PASSES, || {
        let out = strategy.build().partition(graph, &ctx);
        assert_eq!(out.assignment.num_edges(), graph.num_edges());
        out
    });
    graph.num_edges() as f64 / secs
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    // 1. Build throughput: stream the generator straight to disk.
    let dir = std::env::temp_dir().join("distgraph-store-bench");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("bench.gps");
    let params = PowerLawStreamParams {
        num_vertices: BUILD_EDGES / 16,
        num_edges: BUILD_EDGES,
        ..Default::default()
    };
    let t0 = Instant::now();
    let stats = build_powerlaw_store(&path, params, 1).expect("build store");
    let build_secs = t0.elapsed().as_secs_f64();
    let build_eps = stats.num_edges as f64 / build_secs;
    println!(
        "build: {} edges in {build_secs:.2}s = {build_eps:.0} edges/s ({:.2} bytes/edge)",
        stats.num_edges,
        stats.bytes_per_edge()
    );
    std::fs::remove_file(&path).ok();

    // 2. Compression by family: the three degree-class archetypes.
    let families = [
        ("road", gp_gen::Dataset::RoadNetCa),
        ("social", gp_gen::Dataset::LiveJournal),
        ("web", gp_gen::Dataset::UkWeb),
    ];
    let mut compression: Vec<(&str, u64, f64)> = Vec::new();
    for (family, dataset) in families {
        let graph = dataset.generate(INGRESS_SCALE, 1);
        let mut buf = std::io::Cursor::new(Vec::new());
        let s = write_edge_list(&mut buf, &graph).expect("encode");
        let bpe = s.bytes_per_edge();
        println!(
            "compression [{family}]: {} edges at {bpe:.2} bytes/edge ({:.1}x vs 16 B in memory)",
            s.num_edges,
            16.0 / bpe
        );
        compression.push((family, s.num_edges, bpe));
    }

    // 3. Streamed vs in-memory ingress on identical sorted edges.
    let graph = gp_gen::Dataset::LiveJournal.generate(INGRESS_SCALE, 1);
    let mut buf = std::io::Cursor::new(Vec::new());
    write_edge_list(&mut buf, &graph).expect("encode");
    let store = GraphStore::open_bytes(buf.into_inner()).expect("reopen");
    let sorted = store.to_edge_list();
    let mut ingress: Vec<(&str, f64, f64)> = Vec::new();
    for strategy in [Strategy::Random, Strategy::Hdrf] {
        let label = strategy.label();
        let memory = measure_ingress(&sorted, strategy);
        let streamed = measure_ingress(&store, strategy);
        println!(
            "ingress [{label}]: memory {memory:.0} edges/s, streamed {streamed:.0} edges/s \
             ({:.2}x slowdown)",
            memory / streamed
        );
        ingress.push((label, memory, streamed));
    }

    let compression_json: Vec<String> = compression
        .iter()
        .map(|(family, edges, bpe)| {
            format!(
                "    {{\"family\": \"{family}\", \"edges\": {edges}, \"bytes_per_edge\": {bpe:.3}}}"
            )
        })
        .collect();
    let ingress_json: Vec<String> = ingress
        .iter()
        .map(|(label, memory, streamed)| {
            format!(
                "    {{\"strategy\": \"{label}\", \"memory_edges_per_sec\": {memory:.0}, \
                 \"streamed_edges_per_sec\": {streamed:.0}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \"cores\": {},\n  \"rustc\": \"{}\",\n  \
         \"build\": {{\"edges\": {}, \"edges_per_sec\": {build_eps:.0}, \
         \"bytes_per_edge\": {:.3}}},\n  \"compression\": [\n{}\n  ],\n  \
         \"ingress\": [\n{}\n  ]\n}}\n",
        host_cores(),
        rustc_version(),
        stats.num_edges,
        stats.bytes_per_edge(),
        compression_json.join(",\n"),
        ingress_json.join(",\n"),
    );
    std::fs::write("BENCH_store.json", json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json");

    if check {
        let mut failed = false;
        for (family, _, bpe) in &compression {
            if *bpe >= 8.0 {
                eprintln!(
                    "store-smoke FAILED [{family}]: {bpe:.2} bytes/edge does not beat the \
                     8 B/edge bound (raw edge list is 16 B/edge)"
                );
                failed = true;
            } else {
                println!("store-smoke OK [{family}]: {bpe:.2} bytes/edge < 8");
            }
        }
        for (label, memory, streamed) in &ingress {
            if *streamed < *memory / 8.0 {
                eprintln!(
                    "store-smoke FAILED [{label}]: streamed ingress ({streamed:.0} edges/s) is \
                     more than 8x slower than in-memory ({memory:.0} edges/s)"
                );
                failed = true;
            } else {
                println!(
                    "store-smoke OK [{label}]: streamed within 8x of memory \
                     ({streamed:.0} vs {memory:.0} edges/s)"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

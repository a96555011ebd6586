//! Metric declarations, name rules and the result line.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Unit as declared.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

impl Metric {
    /// A metric whose unit is looked up from its declaration.
    pub fn new(name: impl Into<String>, value: f64) -> Metric {
        let name = name.into();
        let unit = declared(&name)
            .map(|d| d.unit)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        Metric { name, unit, value }
    }
}

/// A declared metric: what it measures, and — for per-layer metrics — the
/// end-to-end metric it should move and on which workload.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end metric this layer metric should move (empty for the
    /// end-to-end metrics themselves).
    pub moves: &'static str,
    /// Workload(s) on which it moves it.
    pub workload: &'static str,
}

const fn d(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        moves,
        workload,
    }
}

/// Untraced metrics, reported by every workload. The work unit differs per
/// workload: edges placed (`ingress`), jobs (`jobs`), plan events (`serve`).
pub const END_TO_END: &[Decl] = &[
    d("throughput_per_s", "1/s", "higher", "", "all"),
    d("op_best_ms", "ms", "lower", "", "all"),
    d("setup_s", "s", "lower", "", "all"),
    d("peak_rss_mb", "MB", "lower", "", "all"),
];

/// Traced-run metrics. Every traced run profiles every layer, whichever
/// workload it is named for; `trace.throughput_per_s` is the named
/// workload's throughput under tracing, to set against the untraced
/// `throughput_per_s` for the tracing overhead.
pub const PER_LAYER: &[Decl] = &[
    d(
        "gen.store_build_s",
        "s",
        "lower",
        "setup_s",
        "ingress,ingress-1t,serve",
    ),
    d("gen.dataset_s", "s", "lower", "setup_s", "jobs"),
    d(
        "store.open_s",
        "s",
        "lower",
        "setup_s",
        "ingress,ingress-1t,serve",
    ),
    d(
        "store.decode_edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t,serve",
    ),
    d(
        "partition.Random.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Random.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Grid.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Grid.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Oblivious.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Oblivious.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.HDRF.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.HDRF.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Hybrid.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.Hybrid.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.H-Ginger.s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "partition.H-Ginger.edges_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d("partition.jobs_s", "s", "lower", "op_best_ms", "jobs"),
    d(
        "serve.batch_ingest_s",
        "s",
        "lower",
        "throughput_per_s",
        "serve",
    ),
    d(
        "par.ingress_speedup",
        "x",
        "higher",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "par.ingress_1t_s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "par.ingress_nt_s",
        "s",
        "lower",
        "throughput_per_s",
        "ingress,ingress-1t",
    ),
    d(
        "par.engine_speedup",
        "x",
        "higher",
        "throughput_per_s",
        "jobs",
    ),
    d("par.engine_1t_s", "s", "lower", "throughput_per_s", "jobs"),
    d("par.engine_nt_s", "s", "lower", "throughput_per_s", "jobs"),
    d("engine.gas_s", "s", "lower", "throughput_per_s", "jobs"),
    d("engine.hybrid_s", "s", "lower", "throughput_per_s", "jobs"),
    d("engine.pregel_s", "s", "lower", "throughput_per_s", "jobs"),
    d("engine.async_s", "s", "lower", "throughput_per_s", "jobs"),
    d(
        "engine.supersteps",
        "count",
        "lower",
        "throughput_per_s",
        "jobs",
    ),
    d(
        "engine.us_per_superstep",
        "us",
        "lower",
        "throughput_per_s",
        "jobs",
    ),
    d("app.pagerank10_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("app.pagerank_conv_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("app.wcc_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("app.sssp_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("app.kcore_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("app.coloring_s", "s", "lower", "jobs.p95_ms", "jobs"),
    d("jobs.p95_ms", "ms", "lower", "", "jobs"),
    d("jobs.samples", "count", "higher", "", "jobs"),
    d("hooks.ch10_s", "s", "lower", "throughput_per_s", "jobs"),
    d("hooks.ch11_s", "s", "lower", "throughput_per_s", "jobs"),
    d("hooks.ch13_s", "s", "lower", "throughput_per_s", "jobs"),
    d(
        "telemetry.record_overhead",
        "x",
        "lower",
        "throughput_per_s",
        "jobs",
    ),
    d(
        "telemetry.export_s",
        "s",
        "lower",
        "throughput_per_s",
        "jobs",
    ),
    d("serve.loop_s", "s", "lower", "throughput_per_s", "serve"),
    d(
        "serve.insert_us",
        "us",
        "lower",
        "throughput_per_s",
        "serve",
    ),
    d(
        "serve.delete_us",
        "us",
        "lower",
        "throughput_per_s",
        "serve",
    ),
    d("serve.khop_us", "us", "lower", "throughput_per_s", "serve"),
    d("serve.read_us", "us", "lower", "throughput_per_s", "serve"),
    d(
        "serve.inserts",
        "count",
        "higher",
        "throughput_per_s",
        "serve",
    ),
    d(
        "serve.deletes",
        "count",
        "higher",
        "throughput_per_s",
        "serve",
    ),
    d(
        "serve.queries",
        "count",
        "higher",
        "throughput_per_s",
        "serve",
    ),
    d(
        "serve.rebalances",
        "count",
        "lower",
        "throughput_per_s",
        "serve",
    ),
    d(
        "serve.repartitions",
        "count",
        "lower",
        "throughput_per_s",
        "serve",
    ),
    d(
        "trace.throughput_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "named",
    ),
    d("trace.spans", "count", "lower", "", "named"),
];

/// The declaration for `name`, if any.
pub fn declared(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Names start with a letter or digit and use only `[A-Za-z0-9_.-]`, at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with all their digits (`{}` on `f64` round-trips exactly).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Check that `metrics` is exactly the declared set `decls`, each once,
/// with a finite value. Returns the problems found.
pub fn check_complete(metrics: &[Metric], decls: &[Decl]) -> Vec<String> {
    let mut problems = Vec::new();
    for d in decls {
        match metrics.iter().filter(|m| m.name == d.name).count() {
            1 => {}
            0 => problems.push(format!("metric {} missing", d.name)),
            n => problems.push(format!("metric {} reported {n} times", d.name)),
        }
    }
    for m in metrics {
        if !decls.iter().any(|d| d.name == m.name) {
            problems.push(format!("metric {} not declared for this run", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        assert!(valid_name("partition.H-Ginger.edges_per_s"));
        assert!(valid_name("0x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("ünïcode"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_declared_metric_is_valid_and_unique() {
        let all: Vec<&Decl> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(matches!(d.better, "higher" | "lower"), "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "{} declared twice",
                d.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn declarations_match_benchmark_json() {
        // The driver reads BENCHMARK.json; the program reads these tables.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own, without the repo
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": {}, \"unit\": {}",
                json_str(d.name),
                json_str(d.unit)
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_shape() {
        let m = [
            Metric::new("setup_s", 0.25),
            Metric::new("op_best_ms", 12.0),
        ];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"op_best_ms\": {\"value\": 12, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }

    #[test]
    fn completeness_check_names_every_gap() {
        let m = vec![
            Metric::new("setup_s", 1.0),
            Metric::new("setup_s", f64::NAN),
        ];
        let problems = check_complete(&m, END_TO_END);
        assert!(problems
            .iter()
            .any(|p| p.contains("throughput_per_s missing")));
        assert!(problems
            .iter()
            .any(|p| p.contains("setup_s reported 2 times")));
        assert!(problems.iter().any(|p| p.contains("not finite")));
    }
}

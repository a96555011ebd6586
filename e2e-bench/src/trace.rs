//! Host-clock spans around the calls the benchmark makes into each layer.
//!
//! Spans live in memory and are written once, at exit, to the benchmark's
//! own file — never into the program's simulated-clock telemetry. Timing
//! is always on (metrics need it); recording is what tracing switches on.

use crate::metrics::json_str;
use std::time::Instant;

/// A finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `partition.HDRF` or `engine.run`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to; spans of one op share it.
    pub op: u64,
}

/// An open span, returned by [`Tracer::enter`] and consumed by
/// [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Span recorder. Disabled, it only times.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    /// Open a span named `name` for operation `op`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, name: &str, op: u64) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                op,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Close `open` and return its duration in seconds. Spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans closed out of order");
            self.spans[i].end_ns = end.duration_since(self.origin).as_nanos() as u64;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` as a span and return its result with the seconds it took.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name, op);
        let out = f();
        (out, self.exit(open))
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in nanoseconds: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Spans, plus per-name totals, as JSON.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let totals: Vec<String> = names
            .iter()
            .map(|&n| {
                let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
                for (s, &st) in self.spans.iter().zip(&selfs) {
                    if s.name == n {
                        count += 1;
                        total += s.end_ns - s.start_ns;
                        own += st;
                    }
                }
                format!(
                    "{{\"name\": {}, \"count\": {count}, \"total_s\": {}, \"self_s\": {}}}",
                    json_str(n),
                    total as f64 * 1e-9,
                    own as f64 * 1e-9
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &st)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {st}, \"parent\": {parent}, \"op\": {}}}",
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.op
                )
            })
            .collect();
        format!(
            "\"totals\": [\n  {}\n],\n\"spans\": [\n  {}\n]",
            totals.join(",\n  "),
            spans.join(",\n  ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let op = t.next_op();
        let outer = t.enter("outer", op);
        let (_, inner_s) = t.time("inner", op, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = t.exit(outer);
        assert!(outer_s >= inner_s);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        let selfs = t.self_times();
        let outer_ns = spans[0].end_ns - spans[0].start_ns;
        let inner_ns = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(selfs[0], outer_ns - inner_ns);
        assert_eq!(selfs[1], inner_ns);
        assert!(t.to_json().contains("\"name\": \"inner\", \"count\": 1"));
    }

    #[test]
    fn disabled_tracer_only_times() {
        let mut t = Tracer::new(false);
        let (v, s) = t.time("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(t.spans().is_empty());
    }
}

//! `e2e-bench --workload <ingress|ingress-1t|jobs|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts, then one JSON result line last on standard output:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `out/trace-<workload>-<seed>.json` in this package.

use e2e_bench::host::{cores, Host};
use e2e_bench::metrics::{check_complete, declared, json_str, result_line, END_TO_END, PER_LAYER};
use e2e_bench::trace::Tracer;
use e2e_bench::{measure, profile, Config, Sizes, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2e-bench --workload <ingress|ingress-1t|jobs|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = cores();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        sizes: Sizes::full(),
        work_dir: out_dir.clone(),
    };
    let host = Host::detect(threads);
    println!("host: {}", host.to_json());

    let mut tracer = Tracer::new(args.trace);
    let (mut rep, decls) = if args.trace {
        (profile(&args.workload, &cfg, &mut tracer), PER_LAYER)
    } else {
        (measure(&args.workload, &cfg), END_TO_END)
    };
    for problem in check_complete(&rep.metrics, decls) {
        rep.tally.fail(problem);
    }
    for note in &rep.notes {
        eprintln!("{note}");
    }
    for problem in &rep.tally.problems {
        eprintln!("FAILED: {problem}");
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let tagged: Vec<String> = rep
            .metrics
            .iter()
            .map(|m| {
                let d = declared(&m.name).expect("checked above");
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"moves\": {}, \"workload\": {}}}",
                    json_str(&m.name),
                    if m.value.is_finite() { m.value.to_string() } else { "null".into() },
                    json_str(m.unit),
                    json_str(d.moves),
                    json_str(d.workload)
                )
            })
            .collect();
        let body = format!(
            "{{\n\"host\": {},\n\"workload\": {},\n\"seed\": {},\n\"metrics\": [\n  {}\n],\n{}\n}}\n",
            host.to_json(),
            json_str(&args.workload),
            args.seed,
            tagged.join(",\n  "),
            tracer.to_json()
        );
        let written = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, body));
        match written {
            Ok(()) => eprintln!("spans: {} -> {}", tracer.spans().len(), path.display()),
            Err(e) => rep.tally.fail(format!("write {}: {e}", path.display())),
        }
    }
    let correct = rep.tally.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            rep.tally.attempted.max(1),
            rep.tally.failed,
            &rep.metrics
        )
    );
    ExitCode::SUCCESS
}

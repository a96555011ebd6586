//! Facts about the host and build that every result carries: a number
//! only holds on the host class where it was measured.

use crate::metrics::json_str;

/// Host and build facts.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use.
    pub cores: u32,
    /// Threads the workloads run on.
    pub threads: u32,
    /// CPU model.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit the benchmark was built from.
    pub commit: &'static str,
}

/// Cores available to this process (at least 1).
pub fn cores() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Facts for a run on `threads` threads.
    pub fn detect(threads: u32) -> Host {
        Host {
            cores: cores(),
            threads,
            cpu: cpu_model(),
            rustc: env!("E2E_RUSTC_VERSION"),
            commit: env!("E2E_COMMIT"),
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"threads\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.cores,
            self.threads,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(self.commit)
        )
    }
}

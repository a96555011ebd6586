//! Recorded outputs at [`Sizes::full`](crate::Sizes::full), per seed.
//!
//! Runs on other seeds still check determinism across rounds and thread
//! counts; these pin the values themselves. Re-record (run with the seed
//! and copy the digests from standard error) only when a change is meant
//! to alter simulated outputs.

/// Replication factor and edge imbalance of one `ingress` strategy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    /// Replication factor.
    pub rf: f64,
    /// Max/mean edge load.
    pub imbalance: f64,
}

/// `jobs` digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Jobs {
    /// All 225 grid jobs' simulated outputs, in grid order.
    pub grid: u64,
    /// The scenario experiments' rendered tables.
    pub scenarios: u64,
    /// The telemetry slice's results and exports.
    pub telemetry: u64,
}

const fn p(rf: f64, imbalance: f64) -> Placement {
    Placement { rf, imbalance }
}

/// Seed 1, Random / Grid / Oblivious / HDRF / Hybrid / H-Ginger.
const INGRESS_1: [Placement; 6] = [
    p(11.254836, 1.005628),
    p(6.304344, 1.015804),
    p(5.343444, 1.004308),
    p(4.98652, 1.006464),
    p(8.395956, 1.024356),
    p(7.477896, 1.03426),
];

/// Seed 2, same order.
const INGRESS_2: [Placement; 6] = [
    p(11.257856, 1.003268),
    p(6.306604, 1.021304),
    p(5.35964, 1.004264),
    p(4.892368, 1.005864),
    p(8.407696, 1.026648),
    p(7.4692, 1.026768),
];

/// `ingress` placements in [`crate::ingress::STRATEGIES`] order.
pub(crate) fn ingress(seed: u64) -> Option<&'static [Placement; 6]> {
    match seed {
        1 => Some(&INGRESS_1),
        2 => Some(&INGRESS_2),
        _ => None,
    }
}

/// `jobs` digests.
pub(crate) fn jobs(seed: u64) -> Option<Jobs> {
    match seed {
        1 => Some(Jobs {
            grid: 4250547698442210518,
            scenarios: 860419394917477794,
            telemetry: 3226842725083076486,
        }),
        2 => Some(Jobs {
            grid: 17357575009720617233,
            scenarios: 17122242534145575933,
            telemetry: 1809138904416911922,
        }),
        _ => None,
    }
}

/// `serve` report digest.
pub(crate) fn serve(seed: u64) -> Option<u64> {
    match seed {
        1 => Some(12099389869101085547),
        2 => Some(13188641479537722056),
        _ => None,
    }
}

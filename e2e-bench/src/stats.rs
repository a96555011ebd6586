//! Order statistics and hashing for reported samples.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "tail" is a handful of outliers.
pub(crate) const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty sample: every caller measures at least once.
pub(crate) fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Fastest of `xs`, the best-of-N time of a pass repeated on identical
/// inputs. Other tenants of a shared host only ever add time to a pass, in
/// bursts that last seconds to minutes, so the fastest repetition tracks
/// the program's own cost far more steadily than the median does. Panics
/// on an empty sample.
pub(crate) fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Per op, its fastest time over `passes`, each of which times the same
/// ops in the same order. Panics unless every pass has the same length.
pub(crate) fn fastest_per_op(passes: &[&[f64]]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    assert!(
        passes.iter().all(|p| p.len() == first.len()),
        "passes time different ops"
    );
    (0..first.len())
        .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// 1-based nearest rank of percentile `q` in `(0, 1]` over `n` samples:
/// `ceil(q·n)`, with a guard against `q·n` landing a hair above an integer.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub(crate) fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank percentile `q` of `xs`, or `None` unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub(crate) fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    if samples_beyond(xs.len(), q) < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(xs.len(), q) - 1])
}

/// FNV-1a, folded over everything a check compares: output digests must be
/// stable across runs and platforms, which `std`'s hasher does not promise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a string with its length, so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_takes_the_best_repetition_per_op() {
        assert_eq!(fastest(&[0.5, 0.4, 0.7]), 0.4);
        let a = [1.0, 5.0, 2.0];
        let b = [2.0, 4.0, 3.0];
        assert_eq!(fastest_per_op(&[&a, &b]), vec![1.0, 4.0, 2.0]);
        assert!(fastest_per_op(&[]).is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.5), Some(150.0));
        assert_eq!(tail_percentile(&xs, 0.95), Some(285.0));
        assert_eq!(tail_percentile(&xs, 0.99), None);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // 200 samples: p95 is rank 190 with exactly ten beyond it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(tail_percentile(&xs, 0.95), Some(190.0));
        // One sample fewer leaves nine beyond: not reportable.
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(tail_percentile(&xs[..199], 0.95), None);
        // The job grid's 225 samples support p95 (eleven beyond).
        assert_eq!(samples_beyond(225, 0.95), 11);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn digests_are_order_and_boundary_sensitive() {
        let ab = Digest::default().str("a").str("b").value();
        let ba = Digest::default().str("b").str("a").value();
        let joined = Digest::default().str("ab").value();
        assert_ne!(ab, ba);
        assert_ne!(ab, joined);
        assert_eq!(
            Digest::default().f64(1.5).value(),
            Digest::default().u64(1.5f64.to_bits()).value()
        );
    }
}

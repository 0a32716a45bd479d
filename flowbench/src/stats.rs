//! Small numeric helpers: a seeded generator, order statistics, process
//! memory.

/// SplitMix64: a tiny seeded generator, so every input the benchmark makes
/// is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A synthesis seed: positive and exactly representable on the wire.
    pub fn synth_seed(&mut self) -> u64 {
        1 + self.next_u64() % 1_000_000_000
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile with
/// at least ten samples beyond it, but never below the upper quartile.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples beyond it.
    pub beyond: usize,
    /// Whether ten samples lie beyond it. Below 40 samples they cannot
    /// without the tail dropping under the upper quartile, so `value` is
    /// the upper quartile then; the floor keeps the tail continuous in the
    /// sample size.
    pub supported: bool,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n
        .saturating_sub(10)
        .max((0.75 * n as f64).ceil() as usize)
        .max(1);
    Tail {
        value: sorted
            .get(rank.wrapping_sub(1))
            .copied()
            .unwrap_or(f64::NAN),
        percentile: 100.0 * rank as f64 / n.max(1) as f64,
        beyond: n.saturating_sub(rank),
        supported: n.saturating_sub(rank) >= 10,
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert!(t.supported);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        let short = tail(&[3.0, 1.0, 2.0, 4.0]);
        assert!(!short.supported);
        assert_eq!(short.value, 3.0);
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&thirty);
        assert!(!t.supported);
        assert_eq!((t.value, t.beyond), (23.0, 7));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}

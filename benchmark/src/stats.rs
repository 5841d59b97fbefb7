//! Sample statistics: medians, quartiles and the tail-percentile rule.

/// Samples that must lie beyond a reported percentile for it to be
/// trusted (choosing-metrics §1: "the highest percentile that has at least
/// ten samples beyond it").
pub const TAIL_KEEP: usize = 10;

/// The highest tail percentile ever reported; p99 moved 21 → 259 ms
/// between identical probe runs on a shared 2-core host, so it is a layer
/// metric only.
pub const TAIL_CAP: f64 = 0.90;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle samples for an even count); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Nearest-rank percentile `q ∈ [0, 1]` of the samples; 0 for none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank_index(v.len(), q)]
}

fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Index (into the sorted samples) of the reported tail: the p90 rank,
/// lowered until [`TAIL_KEEP`] samples lie strictly beyond it, but never
/// below the median rank. With fewer than `2 × TAIL_KEEP` samples that
/// *is* the median rank — a handful of repetitions supports no tail.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "tail of no samples");
    let wanted = rank_index(n, TAIL_CAP);
    let supported = n.saturating_sub(TAIL_KEEP + 1);
    wanted.min(supported).max(rank_index(n, 0.5))
}

/// The tail value and the percentile it stands for, by [`tail_index`].
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    if v.is_empty() {
        return (0.0, 0.5);
    }
    let i = tail_index(v.len());
    if i == rank_index(v.len(), 0.5) {
        // No tail is supported: report the median proper (the mean of the
        // two middle samples for an even count), so tail ≥ median always.
        return (median(&v), 0.5);
    }
    (v[i], (i + 1) as f64 / v.len() as f64)
}

/// Five-number summary recorded beside every reported timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        if v.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        }
        let (q1, q3) = quartiles(&v);
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median: median(&v),
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so the spreads
/// printed here are the ones the benchmark contract is checked with.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        for n in 1..400usize {
            let i = tail_index(n);
            let beyond = n - 1 - i;
            assert!(i >= rank_index(n, 0.5), "n={n}: tail below the median");
            assert!(i <= rank_index(n, TAIL_CAP), "n={n}: tail above p90");
            if i > rank_index(n, 0.5) {
                assert!(beyond >= TAIL_KEEP, "n={n}: only {beyond} beyond");
            }
        }
        // 120 commits: p90 is rank 108, twelve samples beyond it.
        assert_eq!(tail_index(120), 107);
        // Seven repetitions support no tail at all: the median rank.
        assert_eq!(tail_index(7), 3);
        // 50 samples: the 39th, ten beyond it (p78), not p90.
        assert_eq!(tail_index(50), 39);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (180.0, 0.9));
        for n in [6, 7, 20] {
            let few: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(tail(&few), (median(&few), 0.5), "n={n}");
        }
    }
}

//! The benchmark's arithmetic: medians, tail percentiles, and the
//! failed-request share. Kept free of simulator types so the tests pin
//! the formulas down exactly.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a timing may be reported at, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted samples.
/// The rank is computed in whole tenths of a percent, so that p99.9 of
/// 10 000 is exactly the 9 990th value rather than a rounding error past
/// it.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "no samples");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest percentile in [`TAIL_CANDIDATES`] that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// Request accounting of one client: what the benchmark generated, and
/// what the run did with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Offered {
    /// Arrival instants the benchmark generated for the client.
    pub arrivals: u64,
    /// Requests the run completed (whole run, warmup included).
    pub completed: u64,
    /// Requests an admission policy rejected.
    pub shed: u64,
}

impl Offered {
    /// Requests neither completed nor shed when the run ended: still
    /// queued or in service. `None` when the run reports more requests
    /// than were generated, which a correct run never does.
    pub fn unfinished(&self) -> Option<u64> {
        self.arrivals.checked_sub(self.completed + self.shed)
    }
}

/// Share of the generated requests that were shed or left unfinished.
/// The base is the benchmark's own arrival count, not what the run
/// reports having seen, so a request the run silently dropped still
/// counts as failed.
pub fn failed_frac(clients: &[Offered]) -> f64 {
    let arrivals: u64 = clients.iter().map(|c| c.arrivals).sum();
    if arrivals == 0 {
        return 0.0;
    }
    let failed: u64 = clients
        .iter()
        .map(|c| c.arrivals.saturating_sub(c.completed))
        .sum();
    failed as f64 / arrivals as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        // Nearest rank: p99 of 1000 is the 990th value, 10 lie beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One sample short and only 9 lie beyond: fall back to p95.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
        // p99.9 needs 10 000.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
    }

    #[test]
    fn tiny_samples_support_no_percentile() {
        assert_eq!(tail_percentile(0), None);
        // The median of 19 is the 10th value: 9 lie beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn failed_frac_uses_generated_arrivals_as_base() {
        let clients = [
            // 100 generated, 90 served, 4 shed: 10 failed.
            Offered {
                arrivals: 100,
                completed: 90,
                shed: 4,
            },
            // 300 generated, all served.
            Offered {
                arrivals: 300,
                completed: 300,
                shed: 0,
            },
        ];
        assert_eq!(clients[0].unfinished(), Some(6));
        assert!((failed_frac(&clients) - 10.0 / 400.0).abs() < 1e-15);
        // A client the run lost track of entirely fails all its arrivals.
        let lost = [Offered {
            arrivals: 50,
            completed: 0,
            shed: 0,
        }];
        assert_eq!(failed_frac(&lost), 1.0);
        assert_eq!(failed_frac(&[]), 0.0);
    }

    #[test]
    fn over_reporting_is_not_unfinished_work() {
        let c = Offered {
            arrivals: 10,
            completed: 9,
            shed: 2,
        };
        assert_eq!(c.unfinished(), None);
    }
}

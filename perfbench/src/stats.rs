//! The tail percentile of op times (the median is
//! `bench::stats::median`).

/// Ops that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that has at least
/// [`TAIL_BEYOND`] samples above it in rank, with the counts needed to
/// print it beside the value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value` in rank, in percent.
    pub percentile: f64,
    /// Samples ranked above `value`.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// [`Tail`] of unsorted samples; `None` when there are not more than
/// [`TAIL_BEYOND`] samples, so that no percentile qualifies.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let count = s.len();
    let at_or_below = count.checked_sub(TAIL_BEYOND).filter(|&k| k > 0)?;
    Some(Tail {
        value: s[at_or_below - 1],
        percentile: 100.0 * at_or_below as f64 / count as f64,
        beyond: TAIL_BEYOND,
        count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1.0, 2.0, ... n as op times, shuffled so sorting is exercised.
    fn ramp(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn no_tail_until_more_than_ten_ops() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(TAIL_BEYOND)), None);
    }

    #[test]
    fn eleven_ops_report_the_minimum_at_p9() {
        let t = tail(&ramp(11)).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!((t.beyond, t.count), (10, 11));
        assert_eq!(format!("p{:.1}", t.percentile), "p9.1");
    }

    #[test]
    fn twenty_ops_report_the_median_rank() {
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(t.value, 10.0);
        assert_eq!(t.percentile, 50.0);
        assert_eq!((t.beyond, t.count), (10, 20));
    }

    #[test]
    fn hundred_ops_report_p90() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.beyond, t.count), (10, 100));
    }

    #[test]
    fn ties_are_ranked_not_merged() {
        let mut v = vec![5.0; 15];
        v.extend([9.0; 5]);
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 50.0);
    }
}

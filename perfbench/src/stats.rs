//! Order statistics and the metric record the report prints.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it.
pub const TAIL_BEYOND: usize = 10;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metric names are restricted to `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median of `v` (mean of the two middle values for even lengths); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean of the middle half of `v` (the samples from the first to the third
/// quartile); `None` when empty. On a shared host whose speed drifts in
/// phases of seconds, a median of round times jumps between phases while
/// this averages them, and it still ignores rare stalls.
pub fn interquartile_mean(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    match mid.len() {
        0 => None,
        n => Some(mid.iter().sum::<f64>() / n as f64),
    }
}

/// The highest whole percentile with at least [`TAIL_BEYOND`] samples
/// strictly beyond its nearest-rank position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank tail: percentile `p` selects the sample of 1-based rank
/// `ceil(p·n/100)`, leaving `n − rank` samples beyond it. The largest `p`
/// (at most 99) leaving [`TAIL_BEYOND`] samples is `⌊100·(n−10)/n⌋`.
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let percentile = ((100 * (n - TAIL_BEYOND)) / n).min(99) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    let s = sorted(v);
    Some(Tail {
        percentile,
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 2.0, 1.0, 3.0, 4.0, 0.0, 5.0, 6.0]),
            Some(3.5)
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in 11..=1000 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.beyond, v.iter().filter(|&&x| x > t.value).count());
            // One percentile higher would leave fewer than ten beyond.
            if t.percentile < 99 {
                let rank = ((t.percentile as usize + 1) * n).div_ceil(100);
                assert!(
                    n - rank < TAIL_BEYOND,
                    "n={n}: p{} not maximal",
                    t.percentile
                );
            }
        }
    }

    #[test]
    fn tail_examples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75, 30.0, 10));
        assert!(tail(&[1.0; 10]).is_none());
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("sim_cycles_per_s"));
        assert!(valid_name("l1.probe_useful_frac"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }
}

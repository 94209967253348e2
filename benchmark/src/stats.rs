//! Summary statistics, the results digest, and the metric-name rule.

/// A sample's size, median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let median = median_sorted(&sorted)?;
        let [q1, _, q3] = quartiles_sorted(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
        })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> Option<f64> {
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of a sorted, non-empty sample, by the
/// rule of Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so that the spreads this benchmark reports are
/// the spreads a Python reader computes from the same values.
fn quartiles_sorted(s: &[f64]) -> [f64; 3] {
    let ld = s.len();
    if ld < 2 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, cut) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The fastest value at each position over several runs of the same
/// positions: `runs[r][k]` is position `k`'s time in run `r`. A
/// position some runs lack takes its fastest over the runs that have it.
pub fn fastest_per_position(runs: &[&[f64]]) -> Vec<f64> {
    let n = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..n)
        .map(|k| {
            runs.iter()
                .filter_map(|r| r.get(k))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The samples a percentile needs beyond it before this benchmark
/// reports it: fewer, and the tail estimate rests on a handful of
/// values.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`) by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// The 64-bit FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, the results digest over canonical output bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a state, so one digest can cover
/// many outputs without concatenating them.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then letters, digits, `_`, `.` and `-`, at most 64 in all.
/// Detector labels such as `L2Cache(VC)` fail, which is why metrics
/// name detectors by slug.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        let median = |v: &[f64]| Summary::of(v).map(|s| s.median);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        // statistics.quantiles([2, 8], n=4) == [0.5, 5.0, 9.5]
        let s = Summary::of(&[8.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.5, 9.5));
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 99.0), None);
        // 1000 samples: p99 has exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn fastest_per_position_takes_each_positions_minimum() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0];
        assert_eq!(fastest_per_position(&[&a, &b]), vec![2.0, 1.0, 5.0]);
        assert_eq!(fastest_per_position(&[&a]), a.to_vec());
        assert!(fastest_per_position(&[]).is_empty());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "det.cord-d16.inline_ns_per_access", "l2", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["L2Cache(VC)", "", "_x", "a b", "CORD/D16", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}

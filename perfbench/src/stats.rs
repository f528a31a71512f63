//! Order statistics over latency samples.

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample; sorts a
/// copy. `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample; `NaN` for an empty one.
pub fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The largest sample; `NaN` for an empty one.
pub fn greatest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Each op's fastest time over passes: `passes[p][i]` is op `i`'s time in
/// pass `p`. An op does the same work in every pass (its results are
/// checked bit for bit), and a busy host only ever adds time, so the
/// fastest time is the op's cost with the least of that noise.
pub fn fastest_over_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| least(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(
            (least(&[3.0, 1.0, 2.0]), greatest(&[3.0, 1.0, 2.0])),
            (1.0, 3.0)
        );
        assert!(least(&[]).is_nan() && greatest(&[]).is_nan());
    }

    #[test]
    fn fastest_pass_per_op() {
        let passes = vec![vec![1.0, 9.0], vec![5.0, 2.0], vec![1.5, 2.5]];
        assert_eq!(fastest_over_passes(&passes), vec![1.0, 2.0]);
        assert!(fastest_over_passes(&[]).is_empty());
    }
}

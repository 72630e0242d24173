//! Order statistics for latency samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the value at a percentile, with the count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// The rank as a percentile of the sample count (`100 · rank / n`).
    pub percentile: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The value at the highest percentile that still has at least
/// `min_beyond` samples beyond it: with `n` sorted samples that is the
/// sample of 1-based rank `n − min_beyond`, i.e. p99 of 1,000 samples for
/// `min_beyond = 10`.  `None` when there are not more than `min_beyond`
/// samples.
pub fn tail(samples: &[f64], min_beyond: usize) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = n - min_beyond;
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: min_beyond,
        samples: n,
    })
}

/// A run's tail: the median of the [`tail`]s of consecutive windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    pub value: f64,
    /// Every window's percentile (they are all the same size).
    pub percentile: f64,
    pub windows: usize,
    /// Samples per window.
    pub window_samples: usize,
}

/// The [`tail`] (at least `min_beyond` samples beyond) of each window of
/// exactly `window` consecutive samples of one time-ordered series, and
/// their median.  The samples after the last full window are left out, so
/// the percentile depends on `window` alone, not on how many queries a run
/// made; a series shorter than `window` is one window of its own.  A burst
/// of interference moves one window's tail, not the run's.
pub fn windowed_tail(samples: &[f64], min_beyond: usize, window: usize) -> Option<WindowedTail> {
    let windows: Vec<&[f64]> = if samples.len() < window {
        vec![samples]
    } else {
        samples.chunks_exact(window).collect()
    };
    let tails: Vec<Tail> = windows
        .iter()
        .map(|w| tail(w, min_beyond))
        .collect::<Option<_>>()?;
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?;
    Some(WindowedTail {
        value,
        percentile: tails[0].percentile,
        windows: tails.len(),
        window_samples: tails[0].samples,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_of_a_thousand_samples_is_p99_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let tail = tail(&samples, 10).expect("enough samples");
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.samples, 1000);
        let above = samples.iter().filter(|&&x| x > tail.value).count();
        assert_eq!(above, 10, "exactly ten samples lie beyond the tail");
    }

    #[test]
    fn tail_needs_more_samples_than_the_margin() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten, 10), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let tail = tail(&eleven, 10).expect("eleven samples");
        assert_eq!(
            tail.value, 0.0,
            "only the minimum has ten samples beyond it"
        );
        assert!((tail.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Three windows of 100: tails 90, 190 (a burst), 290 → median 190.
        let long: Vec<f64> = (1..=300).map(f64::from).collect();
        let tail = windowed_tail(&long, 10, 100).expect("windows");
        assert_eq!(tail.value, 190.0);
        assert_eq!(tail.windows, 3);
        assert_eq!(tail.window_samples, 100);
        assert_eq!(tail.percentile, 90.0);
    }

    #[test]
    fn windowed_tail_percentile_does_not_move_with_the_query_count() {
        // Twice the queries: twice the windows, the same percentile; the
        // samples after the last full window are left out.
        let short: Vec<f64> = (1..=250).map(f64::from).collect();
        let long: Vec<f64> = (1..=550).map(f64::from).collect();
        let a = windowed_tail(&short, 10, 100).expect("windows");
        let b = windowed_tail(&long, 10, 100).expect("windows");
        assert_eq!((a.windows, b.windows), (2, 5));
        assert_eq!((a.percentile, b.percentile), (90.0, 90.0));
        assert_eq!(a.value, (90.0 + 190.0) / 2.0);
    }

    #[test]
    fn windowed_tail_of_a_short_series_is_one_window() {
        let few: Vec<f64> = (1..=54).map(f64::from).collect();
        let tail = windowed_tail(&few, 10, 100).expect("one window");
        assert_eq!(
            (tail.windows, tail.window_samples, tail.value),
            (1, 54, 44.0)
        );
        assert_eq!(windowed_tail(&[1.0; 5], 10, 100), None);
    }

    #[test]
    fn tail_rank_moves_with_the_sample_count() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let tail = tail(&samples, 10).expect("enough samples");
        assert_eq!(tail.value, 190.0);
        assert_eq!(tail.percentile, 95.0);
    }
}

//! Property tests of the metrics histogram: bucket boundary determinism,
//! merge equivalence, and the bounded-relative-error percentile guarantee
//! the log-linear layout promises (see `qsyn_trace::metrics`).

use proptest::prelude::*;
use qsyn_trace::metrics::{bucket_bounds, bucket_index, Histogram, BUCKETS};

/// The exact rank `HistogramSnapshot::quantile` targets.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as u64).clamp(1, n as u64) as usize
}

/// Log-uniform u64 samples: a uniform draw right-shifted by a uniform
/// amount, so every octave of the histogram sees traffic (plain uniform
/// u64 samples would almost always land in the top few buckets).
fn log_u64() -> impl Strategy<Value = u64> {
    (0u32..64, 0u64..u64::MAX).prop_map(|(shift, v)| v >> shift)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every value lands in exactly one bucket, and that bucket's bounds
    /// contain it: the layout partitions the whole u64 range.
    #[test]
    fn bucket_bounds_contain_their_values(v in log_u64()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
    }

    /// Bucket boundaries are deterministic and exact: a bucket's lower
    /// bound maps into that bucket, and the value one below it maps into
    /// the previous bucket.
    #[test]
    fn bucket_boundaries_are_exact(i in 0usize..BUCKETS) {
        let (lo, hi) = bucket_bounds(i);
        prop_assert_eq!(bucket_index(lo), i);
        if i + 1 < BUCKETS {
            prop_assert_eq!(hi + 1, bucket_bounds(i + 1).0, "buckets must tile");
            prop_assert_eq!(bucket_index(hi + 1), i + 1);
        }
        if i > 0 {
            prop_assert_eq!(bucket_index(lo - 1), i - 1);
        }
    }

    /// Recording two sample sets into two histograms and merging their
    /// snapshots equals recording everything into one histogram —
    /// the property that makes per-thread or per-shard collection exact.
    #[test]
    fn merge_equals_record_into_one(
        a in proptest::collection::vec(log_u64(), 0..40),
        b in proptest::collection::vec(log_u64(), 0..40),
    ) {
        let (ha, hb, hall) = (Histogram::default(), Histogram::default(), Histogram::default());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let direct = hall.snapshot();
        prop_assert_eq!(merged.count, direct.count);
        prop_assert_eq!(merged.sum, direct.sum);
        prop_assert_eq!(merged.buckets, direct.buckets);
    }

    /// A reported percentile is exactly the upper bound of the bucket
    /// holding the true rank-order statistic — so it never undershoots
    /// the true value and overshoots by at most one bucket width
    /// (25% relative above 4, exact below).
    #[test]
    fn percentile_is_bounded_by_bucket_width(
        samples in proptest::collection::vec(log_u64(), 1..80),
        q_mille in 10u32..1000,
    ) {
        let q = f64::from(q_mille) / 1000.0;
        let h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let reported = snap.quantile(q).expect("non-empty histogram");

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let truth = sorted[rank(q, sorted.len()) - 1];
        let (lo, hi) = bucket_bounds(bucket_index(truth));
        prop_assert_eq!(reported, hi, "quantile must report the bucket upper bound");
        prop_assert!(reported >= truth);
        // Bounded relative error: the bucket holding `truth` spans
        // [lo, hi] with hi < 1.25 * max(lo, 4) in the sub-bucketed
        // octaves, so the overshoot is bounded by the bucket width.
        prop_assert!(u128::from(hi) - u128::from(lo) <= u128::from(truth.max(4)) / 4 + 1);
    }
}

#[test]
fn quantile_extremes_hit_min_and_max_buckets() {
    let h = Histogram::default();
    for v in [1u64, 10, 100, 1000] {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.quantile(0.0), Some(bucket_bounds(bucket_index(1)).1));
    assert_eq!(
        snap.quantile(1.0),
        Some(bucket_bounds(bucket_index(1000)).1)
    );
}

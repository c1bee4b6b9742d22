//! Property tests for the live-metrics histogram
//! ([`xbar_obs::Histogram`]): quantile error bounds, merge algebra, and
//! clean zero-observation serialisation — the contracts the sharded
//! [`xbar_obs::MetricsRegistry`] merge relies on.

use proptest::prelude::*;
use xbar_obs::metrics::BUCKET_GROWTH;
use xbar_obs::Histogram;

/// Exact order statistic matching `Histogram::quantile`'s rank rule:
/// `sorted[ceil(q·count) - 1]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn record_all(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantile estimates are within one bucket's relative error
    /// (a factor of `BUCKET_GROWTH`) of the exact order statistic, for
    /// every probed quantile. Values of 0 need an absolute check: the
    /// first bucket also absorbs them, so the estimate may sit anywhere
    /// in (0, 1].
    #[test]
    fn quantile_within_one_bucket(
        values in prop::collection::vec(0u64..1_000_000_000, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let estimate = h.quantile(q);
        if exact == 0 {
            prop_assert!(estimate <= 1.0, "estimate {} for exact 0", estimate);
        } else {
            let ratio = estimate / exact as f64;
            prop_assert!(
                (1.0 / BUCKET_GROWTH..=BUCKET_GROWTH).contains(&ratio),
                "q={}: estimate {} vs exact {} (ratio {})",
                q, estimate, exact, ratio
            );
        }
    }

    /// `merge` is commutative and associative, and a merge of disjoint
    /// shards is bit-identical to recording every value into a single
    /// histogram — the property that makes the sharded registry's
    /// snapshot independent of how work was spread over shards.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in prop::collection::vec(0u64..1_000_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000_000, 0..100),
        c in prop::collection::vec(0u64..1_000_000_000, 0..100),
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));

        // Commutative: a+b == b+a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Lossless: merging shards equals single-histogram recording.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &record_all(&all));
    }

    /// Scalar invariants hold for any workload: exact count/sum/min/max
    /// and bucket totals summing to the count.
    #[test]
    fn scalars_are_exact(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let h = record_all(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, h.count());
    }

    /// Any recorded histogram, encoded with `serde_json` and decoded by
    /// its `Deserialize`, equals the original — including a `sum` that
    /// saturated at `u64::MAX` (about one value in eight sits near the
    /// top of the range, so most workloads of two or more saturate).
    #[test]
    fn json_round_trip_is_lossless(
        values in prop::collection::vec(
            (0u32..8, 0u64..1_000_000_000)
                .prop_map(|(pick, v)| if pick == 0 { u64::MAX - v } else { v }),
            0..200,
        ),
    ) {
        let h = record_all(&values);
        let text = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &h);
    }
}

#[test]
fn zero_observation_histogram_serializes_cleanly() {
    let h = Histogram::new();
    let rendered = serde_json::to_string(&h).unwrap();
    assert!(rendered.contains("\"count\":0"), "{rendered}");
    assert!(rendered.contains("\"min\":0"), "{rendered}");
    assert!(rendered.contains("\"max\":0"), "{rendered}");
    assert!(rendered.contains("\"buckets\":[]"), "{rendered}");
    assert!(!rendered.contains("null"), "{rendered}");
    // Merging with an empty histogram is the identity.
    let mut seeded = Histogram::new();
    seeded.record(42);
    let mut merged = seeded.clone();
    merged.merge(&h);
    assert_eq!(merged, seeded);
}

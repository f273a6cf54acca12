//! A fixed-bin mergeable quantile sketch.
//!
//! The design follows DDSketch: values land in logarithmic bins whose
//! boundaries depend only on the configured relative accuracy `γ`, never
//! on the data. Bin `k` covers `(base^(k-1), base^k]` with
//! `base = (1+γ)/(1-γ)`, so estimating every value in the bin by the
//! bin's midpoint-in-log-space is off by at most `γ` *relative* error.
//!
//! Because the boundaries are data-independent and the per-bin counts are
//! plain `u64`s, merging two sketches is per-key integer addition —
//! associative and commutative. Sketches over any split of the same values
//! therefore merge in *any* order to the same bins, and every quantile
//! read off them is byte-identical at any `--jobs`.

use std::collections::BTreeMap;

/// A mergeable quantile sketch with bounded relative error.
///
/// # Example
///
/// ```
/// use ea_metrics::QuantileSketch;
///
/// let mut sketch = QuantileSketch::default();
/// for value in 1..=1_000 {
///     sketch.record(f64::from(value));
/// }
/// let p50 = sketch.quantile(0.50);
/// assert!((p50 - 500.0).abs() / 500.0 <= sketch.gamma());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    gamma: f64,
    /// Cached `1 / ln(base)`; a pure function of `gamma`, precomputed so
    /// recording costs one `ln` and one multiply.
    inv_log_base: f64,
    /// Count per logarithmic bin key.
    bins: BTreeMap<i32, u64>,
    /// Values `<= 0` (the drain distributions this sketch serves are
    /// non-negative; zero is common for an idle window).
    zero_count: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(QuantileSketch::DEFAULT_GAMMA)
    }
}

impl QuantileSketch {
    /// The workspace-wide default relative accuracy: 1 %.
    pub const DEFAULT_GAMMA: f64 = 0.01;

    /// An empty sketch with relative accuracy `gamma` (clamped to a sane
    /// open interval; `gamma` must satisfy `0 < gamma < 1`).
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not in `(0, 1)`.
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "relative accuracy must be in (0, 1), got {gamma}"
        );
        let base = (1.0 + gamma) / (1.0 - gamma);
        QuantileSketch {
            gamma,
            inv_log_base: 1.0 / base.ln(),
            bins: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy.
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (exact), `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact), `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The bin key of a positive value: `ceil(log_base(value))`.
    fn key_of(&self, value: f64) -> i32 {
        (value.ln() * self.inv_log_base).ceil() as i32
    }

    /// The estimate every value in bin `key` maps back to: the bin's
    /// midpoint in log space, `base^key * 2 / (1 + base)`, within `gamma`
    /// relative error of anything the bin covers.
    fn value_of(&self, key: i32) -> f64 {
        let base = (1.0 + self.gamma) / (1.0 - self.gamma);
        base.powi(key) * 2.0 / (1.0 + base)
    }

    /// Records one observation. Non-finite values are ignored; values
    /// `<= 0` land in the exact zero bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value <= 0.0 {
            self.zero_count += 1;
        } else {
            *self.bins.entry(self.key_of(value)).or_insert(0) += 1;
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another sketch into this one: per-bin `u64` addition, so
    /// the operation is associative and commutative and the result is
    /// independent of merge order (and therefore of `--jobs`).
    ///
    /// # Panics
    ///
    /// Panics when the accuracies differ — sketches with different bin
    /// boundaries are not mergeable, and mixing them is a logic error.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.gamma.to_bits() == other.gamma.to_bits(),
            "cannot merge sketches with different accuracies ({} vs {})",
            self.gamma,
            other.gamma
        );
        for (&key, &count) in &other.bins {
            *self.bins.entry(key).or_insert(0) += count;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), using the same
    /// nearest-rank convention as an exact sort: the estimate is within
    /// `gamma` *relative* error of the element an exact
    /// `sorted[ceil(q * n) - 1]` lookup would return. Returns `0.0` when
    /// empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = self.zero_count;
        if cumulative >= rank {
            return 0.0;
        }
        for (&key, &count) in &self.bins {
            cumulative += count;
            if cumulative >= rank {
                // The sketch loses ordering inside a bin but not across
                // bins, so this bin provably contains the rank-th
                // smallest observation; clamping to the exact extremes
                // can only tighten the estimate.
                return self.value_of(key).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn empty_sketch_reads_zero() {
        let sketch = QuantileSketch::default();
        assert!(sketch.is_empty());
        assert_eq!(sketch.quantile(0.5), 0.0);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.max(), 0.0);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_gamma() {
        let mut sketch = QuantileSketch::default();
        let values: Vec<f64> = (1..=5_000).map(|v| f64::from(v) * 0.37).collect();
        for &value in &values {
            sketch.record(value);
        }
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let exact = exact_nearest_rank(&values, q);
            let estimate = sketch.quantile(q);
            assert!(
                (estimate - exact).abs() / exact <= sketch.gamma(),
                "q={q}: estimate {estimate} vs exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let values: Vec<f64> = (0..1_000)
            .map(|v| (f64::from(v) * 1.37).exp().min(1e9))
            .collect();
        let mut whole = QuantileSketch::default();
        for &value in &values {
            whole.record(value);
        }
        let mut left = QuantileSketch::default();
        let mut right = QuantileSketch::default();
        for (index, &value) in values.iter().enumerate() {
            if index % 2 == 0 {
                left.record(value);
            } else {
                right.record(value);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole, "sharding must not change the sketch");
    }

    #[test]
    fn zero_and_negative_values_use_the_zero_bucket() {
        let mut sketch = QuantileSketch::default();
        sketch.record(0.0);
        sketch.record(-3.0);
        sketch.record(10.0);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.quantile(0.1), 0.0);
        assert_eq!(sketch.min(), -3.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut sketch = QuantileSketch::default();
        sketch.record(f64::NAN);
        sketch.record(f64::INFINITY);
        assert!(sketch.is_empty());
    }

    #[test]
    #[should_panic(expected = "different accuracies")]
    fn merging_mismatched_gammas_panics() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "relative accuracy")]
    fn gamma_out_of_range_is_rejected() {
        let _ = QuantileSketch::new(1.5);
    }
}

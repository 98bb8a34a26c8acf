//! Staleness decay and the age-of-block metric.
//!
//! The paper's future work asks about "the impact of an arbitrary number of
//! local updates on each peer in asynchronous communication ... for optimal
//! values". Aggregating early (wait-for-k) means later updates arrive *stale*:
//! they were trained against an older global model. This module holds the
//! standard mitigation — an update's weight decays with its staleness, as in
//! FedAsync (Xie et al., 2019) — plus the **age-of-block** freshness metric of
//! Wilhelmi et al. (NetSoft 2023), which the related-work section cites as the
//! way to measure model-update freshness on a blockchain. The decentralized
//! round engine in `blockfed-core` reads both.

use serde::{Deserialize, Serialize};

/// How an update's mixing weight decays with staleness `s` (the number of
/// rounds between the global model the update was trained on and the global
/// model it is merged into; `s = 0` is perfectly fresh).
///
/// # Examples
///
/// ```
/// use blockfed_fl::StalenessDecay;
///
/// let poly = StalenessDecay::Polynomial { a: 1.0 };
/// assert_eq!(poly.factor(0), 1.0); // fresh
/// assert_eq!(poly.factor(1), 0.5); // one round stale → half weight
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StalenessDecay {
    /// No decay: every update mixes with the base weight regardless of age.
    Constant,
    /// Polynomial decay `(s + 1)^-a` — FedAsync's recommended family.
    Polynomial {
        /// Decay exponent `a > 0`; larger discounts stale updates harder.
        a: f64,
    },
    /// Exponential decay `exp(-lambda * s)`.
    Exponential {
        /// Decay rate `lambda > 0`.
        lambda: f64,
    },
    /// Hard cutoff: weight 1 for `s <= max_staleness`, 0 beyond.
    Cutoff {
        /// Maximum tolerated staleness in rounds.
        max_staleness: u32,
    },
}

impl StalenessDecay {
    /// The decay factor in `[0, 1]` for staleness `s`.
    pub fn factor(&self, s: u32) -> f64 {
        match *self {
            StalenessDecay::Constant => 1.0,
            StalenessDecay::Polynomial { a } => f64::from(s + 1).powf(-a.max(0.0)),
            StalenessDecay::Exponential { lambda } => (-lambda.max(0.0) * f64::from(s)).exp(),
            StalenessDecay::Cutoff { max_staleness } => {
                if s <= max_staleness {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

impl std::fmt::Display for StalenessDecay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessDecay::Constant => write!(f, "constant"),
            StalenessDecay::Polynomial { a } => write!(f, "poly(a={a})"),
            StalenessDecay::Exponential { lambda } => write!(f, "exp(λ={lambda})"),
            StalenessDecay::Cutoff { max_staleness } => write!(f, "cutoff(s≤{max_staleness})"),
        }
    }
}

/// Accumulates the **age of block** metric (Wilhelmi et al.): for each model
/// update, the delay between its production time and the time the block
/// carrying it was appended (or the aggregate consuming it was formed). Small
/// ages mean aggregators see fresh models.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AgeOfBlock {
    count: u64,
    total: f64,
    max: f64,
}

impl AgeOfBlock {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one update's age in seconds (negative ages are clamped to 0).
    pub fn record(&mut self, age_secs: f64) {
        let age = age_secs.max(0.0);
        self.count += 1;
        self.total += age;
        if age > self.max {
            self.max = age;
        }
    }

    /// Number of recorded ages.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean age in seconds (0 when nothing was recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Maximum recorded age in seconds.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn absorb(&mut self, other: &AgeOfBlock) {
        self.count += other.count;
        self.total += other.total;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Absorbs a pre-aggregated summary: `count` observations with the given
    /// mean and maximum (for records that only kept summary statistics).
    /// Negative inputs are clamped to 0; a max below the mean is raised to it.
    pub fn record_summary(&mut self, count: u64, mean_secs: f64, max_secs: f64) {
        if count == 0 {
            return;
        }
        let mean = mean_secs.max(0.0);
        let max = max_secs.max(mean);
        self.count += count;
        self.total += mean * count as f64;
        if max > self.max {
            self.max = max;
        }
    }
}

impl std::fmt::Display for AgeOfBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "age-of-block mean {:.3}s max {:.3}s over {}",
            self.mean(),
            self.max,
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_factors_are_monotone_in_staleness() {
        for decay in [
            StalenessDecay::Constant,
            StalenessDecay::Polynomial { a: 0.5 },
            StalenessDecay::Exponential { lambda: 0.3 },
            StalenessDecay::Cutoff { max_staleness: 2 },
        ] {
            let mut prev = decay.factor(0);
            assert!((0.0..=1.0).contains(&prev));
            for s in 1..10 {
                let f = decay.factor(s);
                assert!(f <= prev + 1e-12, "{decay} not monotone at s={s}");
                assert!((0.0..=1.0).contains(&f));
                prev = f;
            }
        }
    }

    #[test]
    fn fresh_updates_decay_to_one() {
        assert_eq!(StalenessDecay::Constant.factor(0), 1.0);
        assert_eq!(StalenessDecay::Polynomial { a: 2.0 }.factor(0), 1.0);
        assert_eq!(StalenessDecay::Exponential { lambda: 1.0 }.factor(0), 1.0);
        assert_eq!(StalenessDecay::Cutoff { max_staleness: 0 }.factor(0), 1.0);
    }

    #[test]
    fn polynomial_halves_at_known_points() {
        // (s+1)^-1 at s=1 is 0.5.
        assert!((StalenessDecay::Polynomial { a: 1.0 }.factor(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cutoff_is_sharp() {
        let d = StalenessDecay::Cutoff { max_staleness: 3 };
        assert_eq!(d.factor(3), 1.0);
        assert_eq!(d.factor(4), 0.0);
    }

    #[test]
    fn negative_rates_are_clamped() {
        // Degenerate parameters must not produce factors above 1.
        assert!(StalenessDecay::Polynomial { a: -2.0 }.factor(5) <= 1.0);
        assert!(StalenessDecay::Exponential { lambda: -1.0 }.factor(5) <= 1.0);
    }

    #[test]
    fn age_of_block_statistics() {
        let mut a = AgeOfBlock::new();
        assert_eq!(a.mean(), 0.0);
        a.record(1.0);
        a.record(3.0);
        a.record(-5.0); // clamped to 0
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn age_of_block_absorb() {
        let mut a = AgeOfBlock::new();
        a.record(2.0);
        let mut b = AgeOfBlock::new();
        b.record(6.0);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 4.0);
        assert_eq!(a.max(), 6.0);
    }

    #[test]
    fn record_summary_pools_exactly() {
        // Summary of {1, 3, 5}: count 3, mean 3, max 5.
        let mut a = AgeOfBlock::new();
        a.record_summary(3, 3.0, 5.0);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), 5.0);
        // Matches recording the raw values.
        let mut raw = AgeOfBlock::new();
        for v in [1.0, 3.0, 5.0] {
            raw.record(v);
        }
        assert_eq!(a.count(), raw.count());
        assert!((a.mean() - raw.mean()).abs() < 1e-12);
        assert_eq!(a.max(), raw.max());
    }

    #[test]
    fn record_summary_edge_cases() {
        let mut a = AgeOfBlock::new();
        a.record_summary(0, 100.0, 200.0); // ignored
        assert_eq!(a.count(), 0);
        a.record_summary(2, -1.0, -5.0); // clamped to zero
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 0.0);
        a.record_summary(1, 7.0, 3.0); // max below mean is raised
        assert_eq!(a.max(), 7.0);
    }

    #[test]
    fn display_formats() {
        let mut a = AgeOfBlock::new();
        a.record(1.5);
        assert!(a.to_string().contains("age-of-block"));
        assert_eq!(StalenessDecay::Constant.to_string(), "constant");
        assert!(StalenessDecay::Polynomial { a: 0.5 }
            .to_string()
            .contains("0.5"));
        assert!(StalenessDecay::Exponential { lambda: 0.2 }
            .to_string()
            .contains("0.2"));
        assert!(StalenessDecay::Cutoff { max_staleness: 2 }
            .to_string()
            .contains('2'));
    }
}

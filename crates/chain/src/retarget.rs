//! Adaptive difficulty controllers.
//!
//! The paper's related work (§II-A2) cites Sethi et al. (CCNC 2024): using a
//! learned predictor to set PoW difficulty per consensus round "to enhance
//! blockchain performance, especially in the usage of blockchain-based FL
//! where the number of participants is flexible". Their RL agent is not
//! reproducible offline, so this module implements the controller family it
//! approximates: rules that set the next difficulty from recent block
//! intervals, as the agent does from its observations:
//!
//! * [`RetargetRule::Homestead`] — Ethereum's fixed-step rule (the control
//!   arm; identical math to [`pow::next_difficulty`]);
//! * [`RetargetRule::MovingAverage`] — rescale difficulty by the ratio of the
//!   target block time to the recent mean interval (Bitcoin-style epochal
//!   retarget, applied continuously over a sliding window);
//! * [`RetargetRule::Pi`] — a proportional-integral controller on the
//!   relative interval error, the deterministic core of "predict the next
//!   difficulty from observed performance".
//!
//! The `chainperf` bench compares how quickly each rule restores the 13 s
//! cadence when miners join or leave mid-run (the flexible-participants
//! scenario federated learning induces).
//!
//! [`pow::next_difficulty`]: crate::pow::next_difficulty

use std::collections::VecDeque;

use crate::pow::{next_difficulty, MIN_DIFFICULTY, TARGET_BLOCK_TIME_NS};

/// Per-step difficulty change clamp for the adaptive rules: a single block may
/// move difficulty by at most this factor (up or down).
const MAX_STEP_FACTOR: f64 = 2.0;

/// How the next block's difficulty is derived from observed block intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetargetRule {
    /// Ethereum-Homestead fixed step of `parent/2048` toward the target.
    Homestead,
    /// Epochal retarget (Bitcoin-style): every `window` blocks, difficulty is
    /// rescaled by `target / mean(epoch intervals)`; constant in between.
    /// Applying the full correction once per epoch avoids the compounding
    /// overshoot a per-block window-mean correction suffers under the
    /// high-variance exponential interval noise.
    MovingAverage {
        /// Epoch length in blocks.
        window: usize,
    },
    /// Proportional-integral control on the relative error
    /// `(target - interval) / target`.
    Pi {
        /// Proportional gain.
        kp: f64,
        /// Integral gain.
        ki: f64,
    },
}

impl std::fmt::Display for RetargetRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetargetRule::Homestead => write!(f, "homestead"),
            RetargetRule::MovingAverage { window } => write!(f, "moving-avg(w={window})"),
            RetargetRule::Pi { kp, ki } => write!(f, "pi(kp={kp},ki={ki})"),
        }
    }
}

/// Stateful difficulty controller: feed it observed block intervals, read the
/// difficulty to mine the next block at.
///
/// # Examples
///
/// ```
/// use blockfed_chain::{DifficultyController, RetargetRule};
/// use blockfed_chain::pow::TARGET_BLOCK_TIME_NS;
///
/// let mut c = DifficultyController::new(RetargetRule::Pi { kp: 0.4, ki: 0.1 }, 1_000_000);
/// // Blocks arriving twice too fast push difficulty up.
/// c.observe(TARGET_BLOCK_TIME_NS / 2);
/// assert!(c.difficulty() > 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct DifficultyController {
    rule: RetargetRule,
    difficulty: u128,
    target_ns: u64,
    intervals: VecDeque<u64>,
    integral: f64,
}

impl DifficultyController {
    /// Creates a controller starting at `initial_difficulty`, aiming for the
    /// paper's ~13 s Ethereum cadence.
    ///
    /// # Panics
    ///
    /// Panics if `initial_difficulty` is zero, a `MovingAverage` window is
    /// zero, or `Pi` gains are not finite and non-negative.
    pub fn new(rule: RetargetRule, initial_difficulty: u128) -> Self {
        Self::with_target(rule, initial_difficulty, TARGET_BLOCK_TIME_NS)
    }

    /// Creates a controller with an explicit target block time.
    ///
    /// # Panics
    ///
    /// See [`DifficultyController::new`]; additionally panics if `target_ns`
    /// is zero.
    pub fn with_target(rule: RetargetRule, initial_difficulty: u128, target_ns: u64) -> Self {
        assert!(initial_difficulty > 0, "difficulty must be positive");
        assert!(target_ns > 0, "target block time must be positive");
        match rule {
            RetargetRule::MovingAverage { window } => {
                assert!(window > 0, "window must be positive");
            }
            RetargetRule::Pi { kp, ki } => {
                assert!(
                    kp.is_finite() && kp >= 0.0,
                    "kp must be finite and non-negative"
                );
                assert!(
                    ki.is_finite() && ki >= 0.0,
                    "ki must be finite and non-negative"
                );
            }
            RetargetRule::Homestead => {}
        }
        DifficultyController {
            rule,
            difficulty: initial_difficulty.max(MIN_DIFFICULTY),
            target_ns,
            intervals: VecDeque::new(),
            integral: 0.0,
        }
    }

    /// The rule in use.
    pub fn rule(&self) -> RetargetRule {
        self.rule
    }

    /// The difficulty the next block should be mined at.
    pub fn difficulty(&self) -> u128 {
        self.difficulty
    }

    /// The target block interval in nanoseconds.
    pub fn target_ns(&self) -> u64 {
        self.target_ns
    }

    /// Records one observed block interval and updates the difficulty.
    /// Returns the new difficulty.
    pub fn observe(&mut self, interval_ns: u64) -> u128 {
        let next = match self.rule {
            RetargetRule::Homestead => {
                // The Homestead step is defined against TARGET_BLOCK_TIME_NS;
                // generalize to this controller's target by scaling intervals.
                let scaled = if self.target_ns == TARGET_BLOCK_TIME_NS {
                    interval_ns
                } else {
                    ((u128::from(interval_ns) * u128::from(TARGET_BLOCK_TIME_NS)
                        / u128::from(self.target_ns)) as u64)
                        .max(1)
                };
                next_difficulty(self.difficulty, scaled)
            }
            RetargetRule::MovingAverage { window } => {
                self.intervals.push_back(interval_ns.max(1));
                if self.intervals.len() < window {
                    self.difficulty
                } else {
                    let mean = self.intervals.iter().map(|&i| i as f64).sum::<f64>()
                        / self.intervals.len() as f64;
                    self.intervals.clear();
                    let ratio = (self.target_ns as f64 / mean)
                        .clamp(1.0 / MAX_STEP_FACTOR, MAX_STEP_FACTOR);
                    scale_difficulty(self.difficulty, ratio)
                }
            }
            RetargetRule::Pi { kp, ki } => {
                let error = (self.target_ns as f64 - interval_ns as f64) / self.target_ns as f64;
                self.integral = (self.integral + error).clamp(-10.0, 10.0);
                let adjustment = (1.0 + kp * error + ki * self.integral)
                    .clamp(1.0 / MAX_STEP_FACTOR, MAX_STEP_FACTOR);
                scale_difficulty(self.difficulty, adjustment)
            }
        };
        self.difficulty = next.max(MIN_DIFFICULTY);
        self.difficulty
    }
}

impl RetargetRule {
    /// The difficulty for block `next_number`, derived **purely from chain
    /// history** — the consensus-rule form of this controller, usable inside
    /// [`crate::Blockchain::build_candidate`]. `intervals_newest_first` are
    /// the parent chain's block intervals in nanoseconds, newest first (may
    /// be shorter than a full window near genesis).
    ///
    /// Semantics per rule:
    ///
    /// * `Homestead` — fixed step on the newest interval (scaled to
    ///   `target_ns`), exactly [`next_difficulty`] at the default target;
    /// * `MovingAverage { window }` — epochal: at block numbers divisible by
    ///   `window`, rescale by `target / mean(last window intervals)` (2×
    ///   per-epoch clamp); otherwise inherit the parent difficulty;
    /// * `Pi { kp, ki }` — proportional term on the newest interval's
    ///   relative error plus an integral term summed over the last 8
    ///   intervals (clamped) — deterministic because the "state" is read
    ///   from history.
    pub fn from_history(
        &self,
        parent_difficulty: u128,
        next_number: u64,
        intervals_newest_first: &[u64],
        target_ns: u64,
    ) -> u128 {
        assert!(target_ns > 0, "target block time must be positive");
        let newest = match intervals_newest_first.first() {
            Some(&i) => i.max(1),
            None => return parent_difficulty.max(MIN_DIFFICULTY),
        };
        let next = match *self {
            RetargetRule::Homestead => {
                let scaled = if target_ns == TARGET_BLOCK_TIME_NS {
                    newest
                } else {
                    ((u128::from(newest) * u128::from(TARGET_BLOCK_TIME_NS) / u128::from(target_ns))
                        as u64)
                        .max(1)
                };
                next_difficulty(parent_difficulty, scaled)
            }
            RetargetRule::MovingAverage { window } => {
                let window = window.max(1);
                if !next_number.is_multiple_of(window as u64) {
                    parent_difficulty
                } else {
                    let slice = &intervals_newest_first[..window.min(intervals_newest_first.len())];
                    let mean =
                        slice.iter().map(|&i| i.max(1) as f64).sum::<f64>() / slice.len() as f64;
                    let ratio =
                        (target_ns as f64 / mean).clamp(1.0 / MAX_STEP_FACTOR, MAX_STEP_FACTOR);
                    scale_difficulty(parent_difficulty, ratio)
                }
            }
            RetargetRule::Pi { kp, ki } => {
                let err = |i: u64| (target_ns as f64 - i as f64) / target_ns as f64;
                let integral: f64 = intervals_newest_first
                    .iter()
                    .take(8)
                    .map(|&i| err(i.max(1)))
                    .sum::<f64>()
                    .clamp(-10.0, 10.0);
                let adjustment = (1.0 + kp * err(newest) + ki * integral)
                    .clamp(1.0 / MAX_STEP_FACTOR, MAX_STEP_FACTOR);
                scale_difficulty(parent_difficulty, adjustment)
            }
        };
        next.max(MIN_DIFFICULTY)
    }
}

/// Multiplies a difficulty by a positive factor with saturation.
fn scale_difficulty(difficulty: u128, factor: f64) -> u128 {
    debug_assert!(factor.is_finite() && factor > 0.0);
    let scaled = difficulty as f64 * factor;
    if scaled >= u128::MAX as f64 {
        u128::MAX
    } else {
        (scaled as u128).max(MIN_DIFFICULTY)
    }
}

/// Simulates `blocks` sequential mining races under a controller and a
/// (possibly time-varying) total hash rate, returning the observed intervals
/// in seconds. This is the harness used to compare retarget rules when the
/// miner population changes (`hashrate_at(block_index)`).
pub fn simulate_cadence<R: rand::Rng + ?Sized>(
    controller: &mut DifficultyController,
    mut hashrate_at: impl FnMut(usize) -> f64,
    blocks: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut intervals = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let hashrate = hashrate_at(b);
        let delay = crate::pow::sample_mining_delay(controller.difficulty(), hashrate, rng);
        intervals.push(delay.as_secs_f64());
        controller.observe((delay.as_secs_f64() * 1e9) as u64);
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TARGET_S: f64 = TARGET_BLOCK_TIME_NS as f64 / 1e9;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn homestead_matches_pow_next_difficulty() {
        let mut c = DifficultyController::new(RetargetRule::Homestead, 1_000_000);
        let d = c.observe(TARGET_BLOCK_TIME_NS / 2);
        assert_eq!(d, next_difficulty(1_000_000, TARGET_BLOCK_TIME_NS / 2));
    }

    #[test]
    fn moving_average_scales_toward_target() {
        let mut c = DifficultyController::new(RetargetRule::MovingAverage { window: 4 }, 1_000_000);
        // Blocks arriving 2x too fast → difficulty should rise ~2x.
        for _ in 0..4 {
            c.observe(TARGET_BLOCK_TIME_NS / 2);
        }
        assert!(c.difficulty() > 1_500_000, "difficulty {}", c.difficulty());
        // Now 4x too slow → difficulty falls (clamped per-step).
        for _ in 0..8 {
            c.observe(TARGET_BLOCK_TIME_NS * 4);
        }
        assert!(c.difficulty() < 1_000_000, "difficulty {}", c.difficulty());
    }

    #[test]
    fn pi_reacts_to_persistent_error() {
        let mut c = DifficultyController::new(RetargetRule::Pi { kp: 0.4, ki: 0.1 }, 1_000_000);
        for _ in 0..10 {
            c.observe(TARGET_BLOCK_TIME_NS / 4);
        }
        assert!(c.difficulty() > 2_000_000, "difficulty {}", c.difficulty());
    }

    #[test]
    fn per_step_change_is_clamped() {
        let mut c = DifficultyController::new(RetargetRule::MovingAverage { window: 1 }, 1_000_000);
        // An absurdly fast block cannot more than double difficulty in one step.
        let d = c.observe(1);
        assert!(d <= 2_000_000);
        let mut c = DifficultyController::new(RetargetRule::Pi { kp: 100.0, ki: 0.0 }, 1_000_000);
        let d = c.observe(1);
        assert!(d <= 2_000_000);
    }

    #[test]
    fn difficulty_never_below_minimum() {
        for rule in [
            RetargetRule::Homestead,
            RetargetRule::MovingAverage { window: 2 },
            RetargetRule::Pi { kp: 0.5, ki: 0.1 },
        ] {
            let mut c = DifficultyController::new(rule, MIN_DIFFICULTY);
            for _ in 0..20 {
                c.observe(TARGET_BLOCK_TIME_NS * 100);
            }
            assert!(
                c.difficulty() >= MIN_DIFFICULTY,
                "{rule} went below minimum"
            );
        }
    }

    #[test]
    fn cadence_converges_under_constant_hashrate() {
        // Start 10x too easy; each adaptive rule must restore ~13 s cadence.
        let hashrate = 100_000.0;
        let easy = (hashrate * TARGET_S / 10.0) as u128;
        for rule in [
            RetargetRule::MovingAverage { window: 8 },
            RetargetRule::Pi { kp: 0.3, ki: 0.05 },
        ] {
            let mut c = DifficultyController::new(rule, easy);
            let mut rng = StdRng::seed_from_u64(11);
            let intervals = simulate_cadence(&mut c, |_| hashrate, 400, &mut rng);
            let tail = mean(&intervals[200..]);
            assert!(
                (tail - TARGET_S).abs() < TARGET_S * 0.35,
                "{rule}: tail cadence {tail}s vs target {TARGET_S}s"
            );
        }
    }

    #[test]
    fn adaptive_rules_recover_faster_than_homestead_after_miners_join() {
        // Two miner-population shocks (participants join, à la Peng et al.'s
        // flexible-membership finding), as multiples of a base hash rate:
        // - join: 4x from block 50; error over the 50 blocks after it;
        // - join, then leave: 4x over blocks 100-199 and back to base from
        //   200; error over the last 60 blocks of each phase, so a rule that
        //   adapts but cannot un-adapt fails the leave phase.
        // Each case averages its seeds: tail means still carry exponential
        // noise, while Homestead's failure to adapt is structural.
        // (hash-rate multiple at block b, base hash rate, blocks,
        //  [start, end) error windows, seeds)
        type Case = (
            fn(usize) -> f64,
            f64,
            usize,
            &'static [(usize, usize)],
            &'static [u64],
        );
        let cases: [Case; 2] = [
            (
                |b| if b < 50 { 1.0 } else { 4.0 },
                100_000.0,
                100,
                &[(50, 100)],
                &[17],
            ),
            (
                |b| if (100..200).contains(&b) { 4.0 } else { 1.0 },
                240_000.0,
                300,
                &[(140, 200), (240, 300)],
                &[42 ^ 0xD1FF, 43 ^ 0xD1FF, 44 ^ 0xD1FF],
            ),
        ];
        for (shock, base, blocks, windows, seeds) in cases {
            let initial = (base * TARGET_S) as u128;
            let mut errors = Vec::new();
            for rule in [
                RetargetRule::Homestead,
                RetargetRule::MovingAverage { window: 8 },
                RetargetRule::Pi { kp: 0.3, ki: 0.05 },
            ] {
                let mut err = 0.0;
                for &seed in seeds {
                    let mut c = DifficultyController::new(rule, initial);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let intervals = simulate_cadence(&mut c, |b| base * shock(b), blocks, &mut rng);
                    // Mean cadence error after each shock: exponential noise
                    // averages out, leaving the systematic miscalibration
                    // each rule failed to correct.
                    for &(start, end) in windows {
                        err += (mean(&intervals[start..end]) - TARGET_S).abs()
                            / TARGET_S
                            / (windows.len() * seeds.len()) as f64;
                    }
                }
                errors.push((rule, err));
            }
            let homestead_err = errors[0].1;
            for (rule, err) in &errors[1..] {
                assert!(
                    *err < homestead_err,
                    "{rule} err {err} not better than homestead {homestead_err} ({blocks} blocks)"
                );
            }
        }
    }

    #[test]
    fn accessors_and_display() {
        let c = DifficultyController::new(RetargetRule::MovingAverage { window: 3 }, 500);
        assert_eq!(c.difficulty(), 500);
        assert_eq!(c.target_ns(), TARGET_BLOCK_TIME_NS);
        assert_eq!(c.rule(), RetargetRule::MovingAverage { window: 3 });
        assert_eq!(RetargetRule::Homestead.to_string(), "homestead");
        assert!(RetargetRule::MovingAverage { window: 3 }
            .to_string()
            .contains("w=3"));
        assert!(RetargetRule::Pi { kp: 0.3, ki: 0.05 }
            .to_string()
            .contains("kp=0.3"));
    }

    #[test]
    fn custom_target_is_honoured() {
        let target = 2_000_000_000; // 2 s
        let mut c = DifficultyController::with_target(
            RetargetRule::MovingAverage { window: 4 },
            1_000_000,
            target,
        );
        for _ in 0..4 {
            c.observe(target); // exactly on target: no change beyond rounding
        }
        let d = c.difficulty();
        assert!((900_000..=1_100_000).contains(&d), "difficulty {d}");
    }

    #[test]
    fn from_history_homestead_matches_next_difficulty() {
        let d = 1_000_000u128;
        for interval in [TARGET_BLOCK_TIME_NS / 2, TARGET_BLOCK_TIME_NS * 2] {
            assert_eq!(
                RetargetRule::Homestead.from_history(d, 5, &[interval], TARGET_BLOCK_TIME_NS),
                next_difficulty(d, interval)
            );
        }
    }

    #[test]
    fn from_history_with_no_intervals_inherits_parent() {
        for rule in [
            RetargetRule::Homestead,
            RetargetRule::MovingAverage { window: 4 },
            RetargetRule::Pi { kp: 0.3, ki: 0.05 },
        ] {
            assert_eq!(
                rule.from_history(5_000, 1, &[], TARGET_BLOCK_TIME_NS),
                5_000
            );
        }
    }

    #[test]
    fn from_history_moving_average_is_epochal() {
        let rule = RetargetRule::MovingAverage { window: 4 };
        let fast = [TARGET_BLOCK_TIME_NS / 2; 4];
        // Off-boundary blocks inherit the parent difficulty.
        assert_eq!(
            rule.from_history(1_000_000, 5, &fast, TARGET_BLOCK_TIME_NS),
            1_000_000
        );
        // Boundary blocks rescale toward the target (2x fast → 2x difficulty).
        let at_boundary = rule.from_history(1_000_000, 8, &fast, TARGET_BLOCK_TIME_NS);
        assert!(at_boundary > 1_800_000, "got {at_boundary}");
    }

    #[test]
    fn from_history_pi_integrates_persistent_error() {
        let rule = RetargetRule::Pi { kp: 0.3, ki: 0.05 };
        let fast = [TARGET_BLOCK_TIME_NS / 4; 8];
        let one = rule.from_history(1_000_000, 3, &fast[..1], TARGET_BLOCK_TIME_NS);
        let many = rule.from_history(1_000_000, 9, &fast, TARGET_BLOCK_TIME_NS);
        assert!(
            many > one,
            "integral term must add pressure: {many} <= {one}"
        );
        assert!(many <= 2_000_000, "per-step clamp violated");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = DifficultyController::new(RetargetRule::MovingAverage { window: 0 }, 100);
    }

    #[test]
    #[should_panic(expected = "difficulty must be positive")]
    fn zero_difficulty_rejected() {
        let _ = DifficultyController::new(RetargetRule::Homestead, 0);
    }

    #[test]
    #[should_panic(expected = "kp must be finite")]
    fn bad_gain_rejected() {
        let _ = DifficultyController::new(
            RetargetRule::Pi {
                kp: f64::NAN,
                ki: 0.0,
            },
            100,
        );
    }
}

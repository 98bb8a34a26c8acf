//! Proof-of-work: targets, difficulty retargeting, and the exponential-delay
//! model used by the discrete-event simulation.
//!
//! A header seals iff `hash(header) ≤ target`, with
//! `target = U256::MAX / difficulty`, so each nonce attempt succeeds with
//! probability `1 / difficulty`. Nothing hashes nonces: the simulation samples
//! mining delays from the memoryless distribution `Exp(hashrate / difficulty)`
//! that such a search produces, and the tests check the two agree.

use blockfed_crypto::{H256, U256};
use blockfed_sim::{Exponential, SimDuration};
use rand::Rng;

use crate::block::Header;

/// Minimum difficulty the retarget rule will descend to.
pub const MIN_DIFFICULTY: u128 = 16;
/// The paper's private-Ethereum block cadence target (~13 s, Ethereum PoW era).
pub const TARGET_BLOCK_TIME_NS: u64 = 13_000_000_000;

/// The proof-of-work target for a difficulty.
///
/// # Panics
///
/// Panics if `difficulty` is zero.
///
/// # Examples
///
/// ```
/// use blockfed_chain::pow::target_for;
/// use blockfed_crypto::U256;
///
/// assert_eq!(target_for(1), U256::MAX);
/// assert!(target_for(2) < U256::MAX);
/// ```
pub fn target_for(difficulty: u128) -> U256 {
    assert!(difficulty > 0, "difficulty must be positive");
    let (q, _) = U256::MAX.div_rem(U256::from_u128(difficulty));
    q
}

/// Whether a sealed header satisfies its own difficulty.
pub fn seal_valid(header: &Header) -> bool {
    hash_meets(header.hash(), header.difficulty)
}

/// Whether `hash` meets `difficulty`'s target.
pub fn hash_meets(hash: H256, difficulty: u128) -> bool {
    hash.meets_target(&target_for(difficulty))
}

/// Ethereum-Homestead-flavoured difficulty retarget: move by `parent/2048`
/// toward the target block time, clamped at [`MIN_DIFFICULTY`].
pub fn next_difficulty(parent_difficulty: u128, block_interval_ns: u64) -> u128 {
    let step = (parent_difficulty / 2048).max(1);
    let next = if block_interval_ns < TARGET_BLOCK_TIME_NS {
        parent_difficulty.saturating_add(step)
    } else {
        parent_difficulty.saturating_sub(step)
    };
    next.max(MIN_DIFFICULTY)
}

/// The expected time for a miner hashing at `hashrate` (hashes/second) to seal
/// a block at `difficulty`.
pub fn expected_mining_time(difficulty: u128, hashrate: f64) -> SimDuration {
    assert!(hashrate > 0.0, "hashrate must be positive");
    SimDuration::from_secs_f64(difficulty as f64 / hashrate)
}

/// Samples a mining delay from the exponential model — the simulation-side
/// equivalent of searching nonces until [`seal_valid`] holds.
pub fn sample_mining_delay<R: Rng + ?Sized>(
    difficulty: u128,
    hashrate: f64,
    rng: &mut R,
) -> SimDuration {
    let mean = expected_mining_time(difficulty, hashrate);
    Exponential::from_mean(std::cmp::max(mean, SimDuration::from_nanos(1))).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockfed_crypto::{H160, H256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn header(difficulty: u128) -> Header {
        Header {
            parent: H256::zero(),
            number: 1,
            timestamp_ns: 0,
            miner: H160::zero(),
            difficulty,
            nonce: 0,
            tx_root: H256::zero(),
            state_root: H256::zero(),
            gas_used: 0,
            gas_limit: 1_000_000,
        }
    }

    #[test]
    fn target_shrinks_with_difficulty() {
        assert!(target_for(2) < target_for(1));
        assert!(target_for(1000) < target_for(2));
    }

    #[test]
    #[should_panic(expected = "difficulty must be positive")]
    fn zero_difficulty_panics() {
        let _ = target_for(0);
    }

    #[test]
    fn difficulty_one_accepts_anything() {
        let mut h = header(1);
        h.nonce = 12345;
        assert!(seal_valid(&h));
    }

    #[test]
    fn retarget_moves_toward_block_time() {
        let d = 1_000_000u128;
        let faster = next_difficulty(d, TARGET_BLOCK_TIME_NS / 2);
        let slower = next_difficulty(d, TARGET_BLOCK_TIME_NS * 2);
        assert!(faster > d, "quick blocks must raise difficulty");
        assert!(slower < d, "slow blocks must lower difficulty");
    }

    #[test]
    fn retarget_clamps_at_minimum() {
        assert_eq!(
            next_difficulty(MIN_DIFFICULTY, TARGET_BLOCK_TIME_NS * 10),
            MIN_DIFFICULTY
        );
        assert!(next_difficulty(17, TARGET_BLOCK_TIME_NS * 10) >= MIN_DIFFICULTY);
    }

    #[test]
    fn expected_time_scales_linearly() {
        let a = expected_mining_time(1000, 100.0);
        let b = expected_mining_time(2000, 100.0);
        let c = expected_mining_time(1000, 200.0);
        assert_eq!(b.as_secs_f64(), 2.0 * a.as_secs_f64());
        assert_eq!(c.as_secs_f64(), 0.5 * a.as_secs_f64());
    }

    #[test]
    fn sampled_delays_have_the_right_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let total: f64 = (0..n)
            .map(|_| sample_mining_delay(1300, 100.0, &mut rng).as_secs_f64())
            .sum();
        let mean = total / f64::from(n);
        // Expected 13 s.
        assert!((mean - 13.0).abs() < 0.7, "mean {mean}");
    }

    #[test]
    fn simulated_and_literal_agree_on_validity_rate() {
        // At difficulty d each nonce seals with probability 1/d, so a literal
        // search takes d attempts on average; at 1 hash/s the sampled delay
        // must have the same mean. Each mean of 400 draws has SD ~0.8, so the
        // 20 % band is ~4 sigma.
        let d = 16u128;
        let n = 400u32;
        let expected = d as f64;
        let mut attempts = 0u64;
        for i in 0..n {
            let mut h = header(d);
            h.parent = blockfed_crypto::sha256::sha256(&i.to_le_bytes());
            while !seal_valid(&h) {
                h.nonce += 1;
            }
            attempts += h.nonce + 1;
        }
        let literal = attempts as f64 / f64::from(n);
        let mut rng = StdRng::seed_from_u64(16);
        let simulated = (0..n)
            .map(|_| sample_mining_delay(d, 1.0, &mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        for (path, mean) in [("literal", literal), ("simulated", simulated)] {
            assert!(
                (mean - expected).abs() < 0.2 * expected,
                "{path} mean {mean} vs expected {expected}"
            );
        }
    }
}

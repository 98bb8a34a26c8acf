//! Hierarchical committee assignment for two-tier aggregation.
//!
//! Flat aggregation makes every peer wait on — and fetch the payload of —
//! every other peer, so dissemination grows superlinearly and the run hits
//! the mask-width ceiling. A [`CommitteeSpec`] shards the population into
//! committees that aggregate locally (tier 1, the existing wait policies
//! applied per committee) and publish one committee-level aggregate each,
//! which peers then merge deterministically across committees (tier 2).
//!
//! Assignment is pure data: given the peer count it derives the same
//! peer→committee map on every peer, with no communication. `Seeded`
//! assignment shuffles peer indices with its own seed before chunking, so
//! committee composition decouples from peer numbering without touching any
//! of the orchestrator's RNG streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How peers are mapped to committees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommitteeAssignment {
    /// Peer `i` joins committee `i * count / n`: contiguous index ranges of
    /// near-equal size. Deterministic and seed-free.
    #[default]
    Contiguous,
    /// Peer indices are shuffled by the spec's seed (Fisher–Yates over a
    /// dedicated `StdRng`) and the shuffled order is chunked contiguously —
    /// committee sizes match `Contiguous`, membership does not.
    Seeded,
}

impl std::fmt::Display for CommitteeAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitteeAssignment::Contiguous => write!(f, "contiguous"),
            CommitteeAssignment::Seeded => write!(f, "seeded"),
        }
    }
}

/// Committee layout for hierarchical aggregation: how many committees, how
/// peers map onto them, and the seed the `Seeded` assignment shuffles with.
///
/// A spec with `count <= 1` is the flat topology — leader election, aggregate
/// publication and the tier-2 merge only engage for `count > 1` — so a
/// single-committee run reproduces the flat run byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommitteeSpec {
    /// Number of committees the population is sharded into.
    pub count: usize,
    /// How peers are mapped to committees.
    pub assignment: CommitteeAssignment,
    /// Shuffle seed for [`CommitteeAssignment::Seeded`] (ignored by
    /// `Contiguous`). Not drawn from any orchestrator stream.
    pub seed: u64,
}

impl CommitteeSpec {
    /// A contiguous assignment into `count` committees.
    pub fn contiguous(count: usize) -> Self {
        CommitteeSpec {
            count,
            assignment: CommitteeAssignment::Contiguous,
            seed: 0,
        }
    }

    /// A seed-shuffled assignment into `count` committees.
    pub fn seeded(count: usize, seed: u64) -> Self {
        CommitteeSpec {
            count,
            assignment: CommitteeAssignment::Seeded,
            seed,
        }
    }

    /// Derives the peer→committee map for a population of `n` peers.
    ///
    /// Every committee is non-empty when `count <= n`; sizes differ by at
    /// most one. The map depends only on the spec and `n`, so all peers (and
    /// all threads) derive the same one.
    pub fn assign(&self, n: usize) -> Vec<usize> {
        let count = self.count.max(1);
        let mut order: Vec<usize> = (0..n).collect();
        if self.assignment == CommitteeAssignment::Seeded {
            let mut rng = StdRng::seed_from_u64(self.seed);
            // Fisher–Yates; the dedicated RNG keeps the shuffle off every
            // simulation stream.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
        }
        let mut of = vec![0usize; n];
        for (pos, &peer) in order.iter().enumerate() {
            of[peer] = pos * count / n.max(1);
        }
        of
    }
}

impl std::fmt::Display for CommitteeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.assignment {
            CommitteeAssignment::Contiguous => write!(f, "c{}", self.count),
            CommitteeAssignment::Seeded => write!(f, "c{}s{}", self.count, self.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_assignment_is_balanced_and_ordered() {
        let of = CommitteeSpec::contiguous(4).assign(10);
        assert_eq!(of, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Every committee non-empty, sizes within one of each other.
        let mut sizes = vec![0usize; 4];
        for c in &of {
            sizes[*c] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
    }

    #[test]
    fn seeded_assignment_is_deterministic_and_balanced() {
        let spec = CommitteeSpec::seeded(8, 42);
        let a = spec.assign(48);
        let b = spec.assign(48);
        assert_eq!(a, b, "same spec + n must derive the same map");
        let mut sizes = vec![0usize; 8];
        for c in &a {
            sizes[*c] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 6), "{sizes:?}");
        // A different seed shuffles differently (overwhelmingly likely).
        assert_ne!(a, CommitteeSpec::seeded(8, 43).assign(48));
        // And differs from contiguous chunking.
        assert_ne!(a, CommitteeSpec::contiguous(8).assign(48));
    }

    #[test]
    fn single_committee_maps_everyone_to_zero() {
        assert!(CommitteeSpec::contiguous(1)
            .assign(5)
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    fn displays_are_compact() {
        assert_eq!(CommitteeSpec::contiguous(16).to_string(), "c16");
        assert_eq!(CommitteeSpec::seeded(4, 7).to_string(), "c4s7");
        assert_eq!(CommitteeAssignment::Seeded.to_string(), "seeded");
    }
}

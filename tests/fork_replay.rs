//! Fork–replay bit-identity: forking a chain at block `k` and re-importing
//! the suffix must reproduce the straight-line run exactly — same head, same
//! canonical hashes, same per-block state roots and receipts — with the
//! suffix served from the shared [`ChainStore`] execution memo instead of
//! being re-executed. Verified both on a bare transfer chain (property test
//! over chain lengths and fork points) and on the canonical chain a full
//! decentralized run produced under a chaos fault timeline.

use blockfed::chain::{Blockchain, ChainStore, GenesisSpec, NullRuntime, SealPolicy, Transaction};
use blockfed::core::{
    registry_address, ComputeProfile, Decentralized, DecentralizedConfig, Fault, TimedFault,
};
use blockfed::crypto::KeyPair;
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::nn::SimpleNnConfig;
use blockfed::vm::{BlockfedRuntime, NativeContract};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A straight-line chain of `blocks` self-transfers over one funded account.
fn transfer_chain(store: ChainStore, blocks: u64) -> Blockchain {
    let mut rng = StdRng::seed_from_u64(7);
    let key = KeyPair::generate(&mut rng);
    let spec = GenesisSpec::with_accounts(&[key.address()], 1_000_000).with_difficulty(1);
    let mut chain = Blockchain::with_store(&spec, SealPolicy::Simulated, store);
    for nonce in 0..blocks {
        let tx = Transaction::transfer(key.address(), key.address(), 1, nonce).signed(&key);
        let block = chain.build_candidate(
            key.address(),
            vec![tx],
            (nonce + 1) * 1_000,
            &mut NullRuntime,
        );
        chain.import(block, &mut NullRuntime).unwrap();
    }
    chain
}

/// Asserts `fork` reproduced `chain` exactly over `suffix` after re-import.
fn assert_replay_identical(
    chain: &Blockchain,
    fork: &Blockchain,
    suffix: &[blockfed::crypto::H256],
) {
    assert_eq!(fork.head(), chain.head(), "replayed head diverged");
    assert_eq!(
        fork.canonical_chain(),
        chain.canonical_chain(),
        "replayed canonical chain diverged"
    );
    for h in suffix {
        assert_eq!(
            fork.state_at(h).expect("replayed state").root(),
            chain.state_at(h).expect("original state").root(),
            "state root diverged at {h}"
        );
        assert_eq!(
            fork.receipts(h),
            chain.receipts(h),
            "receipts diverged at {h}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forking at block `k` and replaying the suffix yields a chain
    /// bit-identical to the straight-line run, at any chain length and fork
    /// point — and the replay never re-executes a block (the shared store
    /// serves every import from the memo).
    #[test]
    fn fork_and_replay_is_bit_identical(
        blocks in 3u64..10,
        k in 0u64..9,
    ) {
        let k = k.min(blocks - 1);
        let store = ChainStore::new();
        let chain = transfer_chain(store.clone(), blocks);
        let canon = chain.canonical_chain();
        let fork_point = canon[k as usize];
        let mut fork = chain.fork_at(&fork_point).expect("fork point is on-chain");
        prop_assert_eq!(fork.head(), fork_point);

        let before = store.counters();
        let suffix = &canon[k as usize + 1..];
        for h in suffix {
            fork.import_arc(chain.block_arc(h).expect("suffix block"), &mut NullRuntime)
                .expect("replayed import");
        }
        let delta = store.counters().since(&before);
        prop_assert_eq!(delta.exec_misses, 0, "replay re-executed a block");
        prop_assert_eq!(delta.exec_hits, suffix.len() as u64);
        assert_replay_identical(&chain, &fork, suffix);
    }
}

fn world(n: usize, seed: u64) -> (Vec<Dataset>, Vec<Dataset>) {
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = partition_dataset(&train, n, Partition::Iid, &mut rng);
    (shards, vec![test; n])
}

/// Forking the canonical chain a full decentralized run produced — under a
/// chaos fault timeline (partition + heal, crash + restart) — and replaying
/// its suffix through a fresh FL-registry runtime is bit-identical and
/// memo-served.
#[test]
fn chaos_run_suffix_replays_through_the_memo() {
    let n = 4;
    let seed = 17;
    let store = ChainStore::new();
    let cfg = DecentralizedConfig {
        rounds: 2,
        local_epochs: 1,
        batch_size: 16,
        lr: 0.1,
        payload_bytes: 10_000,
        difficulty: 200_000,
        computes: vec![
            ComputeProfile {
                hashrate: 100_000.0,
                train_rate: 500.0,
                contention: 0.3,
                batch_parallel: false,
            };
            n
        ],
        timeline: vec![
            TimedFault::at_secs(
                0.5,
                Fault::Partition {
                    left: vec![0],
                    right: (1..n).collect(),
                },
            ),
            TimedFault::at_secs(4.0, Fault::HealAll),
            TimedFault::at_secs(1.0, Fault::PeerCrash { peer: n - 1 }),
            TimedFault::at_secs(9.0, Fault::PeerRestart { peer: n - 1 }),
        ],
        seed,
        ..Default::default()
    };
    let (shards, tests) = world(n, seed);
    let driver = Decentralized::new(cfg, &shards, &tests).with_store(store.clone());
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    let run = driver.run(&mut || nn.build(&mut arch_rng));

    let chain = run.final_chain;
    let canon = chain.canonical_chain();
    assert!(
        canon.len() >= 3,
        "the chaos run sealed too few blocks to fork meaningfully: {}",
        canon.len()
    );
    let mid = canon.len() / 2;
    let mut fork = chain.fork_at(&canon[mid]).expect("midpoint is canonical");

    // The replayed imports run a *fresh* runtime with the FL registry
    // registered where the orchestrator put it — the same execution
    // fingerprint, so every suffix block is a memo hit.
    let mut runtime = BlockfedRuntime::new();
    runtime.register_native(registry_address(), NativeContract::FlRegistry);
    let before = store.counters();
    let suffix = &canon[mid + 1..];
    for h in suffix {
        fork.import_arc(chain.block_arc(h).expect("suffix block"), &mut runtime)
            .expect("replayed import");
    }
    let delta = store.counters().since(&before);
    assert_eq!(delta.exec_misses, 0, "replay re-executed a chaos-run block");
    assert_eq!(delta.exec_hits, suffix.len() as u64);
    assert_replay_identical(&chain, &fork, suffix);
}

//! Integration tests of the blockchain substrate with the VM and the FL
//! registry: mempool-to-block pipelines, reorg behaviour, and the
//! non-repudiation audit across chain views.

use blockfed::chain::{pow, Blockchain, GenesisSpec, Mempool, Transaction};
use blockfed::core::{
    collect_evidence, confirmed_submissions, register_tx, submit_model_tx, verify_evidence,
};
use blockfed::crypto::{KeyPair, H160};
use blockfed::fl::{ClientId, ModelUpdate};
use blockfed::vm::{
    parse_u64, BlockfedRuntime, NativeContract, RegistryCall, NATIVE_REGISTRY_CODE,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    chain: Blockchain,
    runtime: BlockfedRuntime,
    keys: Vec<KeyPair>,
    registry: H160,
}

fn world(peers: usize, difficulty: u128) -> World {
    let keys: Vec<KeyPair> = (0..peers)
        .map(|s| KeyPair::generate(&mut StdRng::seed_from_u64(s as u64 + 1)))
        .collect();
    let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
    let registry = H160::from_bytes([0xEE; 20]);
    let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
        .with_difficulty(difficulty)
        .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
    let mut runtime = BlockfedRuntime::new();
    runtime.register_native(registry, NativeContract::FlRegistry);
    World {
        chain: Blockchain::new(&spec),
        runtime,
        keys,
        registry,
    }
}

#[test]
fn mempool_to_block_pipeline_with_real_pow() {
    // Seal at low difficulty with a real nonce search before import.
    let keys: Vec<KeyPair> = (0..2)
        .map(|s| KeyPair::generate(&mut StdRng::seed_from_u64(s + 50)))
        .collect();
    let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
    let registry = H160::from_bytes([0xEE; 20]);
    let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
        .with_difficulty(64)
        .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
    let mut chain = Blockchain::new(&spec);
    let mut runtime = BlockfedRuntime::new();
    runtime.register_native(registry, NativeContract::FlRegistry);

    let mut pool = Mempool::new();
    let state = chain.state().clone();
    for k in &keys {
        pool.insert(register_tx(registry, k, 0), &state).unwrap();
    }
    let txs = pool.select(&state, u64::MAX, 10);
    assert_eq!(txs.len(), 2);
    let mut block = chain.build_candidate(addrs[0], txs, 1_000, &mut runtime);
    while !pow::seal_valid(&block.header) {
        block.header.nonce += 1;
    }
    assert!(pow::hash_meets(block.hash(), 64));
    chain.import(block, &mut runtime).unwrap();
    let state = chain.state().clone();
    pool.prune(&state);
    assert!(pool.is_empty(), "included txs must leave the pool");

    // Registry state reflects both registrations.
    let ctx = blockfed::chain::CallContext {
        caller: addrs[0],
        contract: registry,
        calldata: RegistryCall::ParticipantCount.encode(),
        gas_budget: 1_000_000,
        block_number: 2,
        timestamp_ns: 2_000,
    };
    let mut state = chain.state().clone();
    let out = blockfed::vm::registry::execute_registry(&ctx, &mut state);
    assert_eq!(parse_u64(&out.output), Some(2));
}

#[test]
fn reorg_preserves_registry_consistency() {
    let mut w = world(2, 16);
    let addrs: Vec<H160> = w.keys.iter().map(KeyPair::address).collect();
    let genesis = w.chain.head();

    // Fork A: both register (one block).
    let txs_a = vec![
        register_tx(w.registry, &w.keys[0], 0),
        register_tx(w.registry, &w.keys[1], 0),
    ];
    let block_a = w
        .chain
        .build_candidate(addrs[0], txs_a, 1_000, &mut w.runtime);
    w.chain.import(block_a, &mut w.runtime).unwrap();
    let head_a = w.chain.head();

    // Fork B from genesis: only peer 1 registers, but two blocks → heavier.
    let state_g = w.chain.state_at(&genesis).unwrap().clone();
    let env = blockfed::chain::BlockEnv {
        number: 1,
        timestamp_ns: 2_000,
        miner: addrs[1],
        gas_limit: w.chain.head_block().header.gas_limit,
    };
    let txs_b = vec![register_tx(w.registry, &w.keys[1], 0)];
    let exec = blockfed::chain::execute_block_txs(&state_g, &txs_b, &env, &mut w.runtime);
    let header = blockfed::chain::Header {
        parent: genesis,
        number: 1,
        timestamp_ns: 2_000,
        miner: addrs[1],
        difficulty: 16,
        nonce: 0,
        tx_root: blockfed::chain::Block::compute_tx_root(&txs_b),
        state_root: exec.state.root(),
        gas_used: exec.gas_used,
        gas_limit: env.gas_limit,
    };
    let block_b1 = blockfed::chain::Block {
        header,
        transactions: txs_b,
    };
    let b1_hash = block_b1.hash();
    w.chain.import(block_b1, &mut w.runtime).unwrap();
    assert_eq!(w.chain.head(), head_a, "equal TD keeps fork A");

    // Extend fork B to trigger the reorg.
    let state_b1 = w.chain.state_at(&b1_hash).unwrap().clone();
    let header2 = blockfed::chain::Header {
        parent: b1_hash,
        number: 2,
        timestamp_ns: 3_000,
        miner: addrs[1],
        difficulty: 16,
        nonce: 0,
        tx_root: blockfed::chain::Block::compute_tx_root(&[]),
        state_root: state_b1.root(),
        gas_used: 0,
        gas_limit: env.gas_limit,
    };
    let block_b2 = blockfed::chain::Block {
        header: header2,
        transactions: vec![],
    };
    let outcome = w.chain.import(block_b2, &mut w.runtime).unwrap();
    assert!(matches!(
        outcome,
        blockfed::chain::ImportOutcome::Reorged { .. }
    ));

    // On the new canonical chain only peer 1 is registered.
    let ctx = blockfed::chain::CallContext {
        caller: addrs[0],
        contract: w.registry,
        calldata: RegistryCall::ParticipantCount.encode(),
        gas_budget: 1_000_000,
        block_number: 3,
        timestamp_ns: 4_000,
    };
    let mut state = w.chain.state().clone();
    let out = blockfed::vm::registry::execute_registry(&ctx, &mut state);
    assert_eq!(
        parse_u64(&out.output),
        Some(1),
        "fork A's registration must be gone"
    );
}

#[test]
fn evidence_survives_only_on_the_chain_that_contains_it() {
    let mut w = world(2, 16);
    let addrs: Vec<H160> = w.keys.iter().map(KeyPair::address).collect();
    let update = ModelUpdate::new(ClientId(0), 1, vec![0.5, 0.25], 10);

    let txs = vec![
        register_tx(w.registry, &w.keys[0], 0),
        submit_model_tx(&update, w.registry, &w.keys[0], 1),
    ];
    let block = w
        .chain
        .build_candidate(addrs[0], txs, 1_000, &mut w.runtime);
    w.chain.import(block, &mut w.runtime).unwrap();

    let evidence = collect_evidence(&w.chain, w.registry, addrs[0], &update).unwrap();
    verify_evidence(&w.chain, &evidence, &update).unwrap();

    // A fresh chain (different view) knows nothing about the block.
    let fresh = world(2, 16);
    assert!(verify_evidence(&fresh.chain, &evidence, &update).is_err());
}

#[test]
fn double_round_submission_rejected_on_chain() {
    let mut w = world(1, 16);
    let addr = w.keys[0].address();
    let u1 = ModelUpdate::new(ClientId(0), 1, vec![1.0], 10);
    let u2 = ModelUpdate::new(ClientId(0), 1, vec![2.0], 10);
    let txs = vec![
        register_tx(w.registry, &w.keys[0], 0),
        submit_model_tx(&u1, w.registry, &w.keys[0], 1),
        submit_model_tx(&u2, w.registry, &w.keys[0], 2), // same round: must revert
    ];
    let block = w.chain.build_candidate(addr, txs, 1_000, &mut w.runtime);
    w.chain.import(block, &mut w.runtime).unwrap();
    let confirmed = confirmed_submissions(&w.chain, w.registry, 1);
    assert_eq!(
        confirmed.len(),
        1,
        "duplicate round submission must not confirm"
    );
    assert_eq!(
        confirmed[0].model_hash,
        blockfed::core::model_fingerprint(&u1)
    );
}

#[test]
fn forged_transactions_never_enter_blocks_effectively() {
    let mut w = world(2, 16);
    let addr0 = w.keys[0].address();
    // Peer 1 crafts a tx claiming to be peer 0 but signs with its own key.
    let mut forged = Transaction::call(addr0, w.registry, RegistryCall::Register.encode(), 0);
    forged = forged.signed(&w.keys[1]); // signed() overwrites from → not forged
    forged.from = addr0; // force the forgery
    let mut pool = Mempool::new();
    let state = w.chain.state().clone();
    assert!(
        pool.insert(forged.clone(), &state).is_err(),
        "mempool rejects forgery"
    );

    // Even if a malicious miner includes it, execution marks it invalid.
    let block = w
        .chain
        .build_candidate(addr0, vec![forged], 1_000, &mut w.runtime);
    w.chain.import(block, &mut w.runtime).unwrap();
    let receipts = w.chain.receipts(&w.chain.head()).unwrap();
    assert_eq!(receipts[0].status, blockfed::chain::ExecStatus::Invalid);
    assert!(confirmed_submissions(&w.chain, w.registry, 0).is_empty());
}

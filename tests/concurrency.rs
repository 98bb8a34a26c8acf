//! Real-thread concurrency tests: the discrete-event simulation is
//! single-threaded by design, so these tests separately verify that the
//! chain substrate is `Send`/`Sync` where it should be and that independent
//! peers running on OS threads converge to one canonical chain when they
//! exchange blocks — the eventual-consistency property total-difficulty fork
//! choice provides.

use blockfed::chain::{Blockchain, GenesisSpec, ImportError, NullRuntime};
use blockfed::crypto::KeyPair;
use crossbeam::channel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn substrate_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Blockchain>();
    assert_send::<blockfed::chain::Mempool>();
    assert_send::<blockfed::chain::Transaction>();
    assert_send::<blockfed::chain::Block>();
    assert_send::<blockfed::fl::ModelUpdate>();
    assert_send::<blockfed::core::DecentralizedRun>();
}

#[test]
fn substrate_types_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Blockchain>();
    assert_sync::<blockfed::chain::Block>();
    assert_sync::<blockfed::fl::ModelUpdate>();
    assert_sync::<blockfed::crypto::KeyPair>();
}

/// Three miner threads, each with its own `Blockchain`, racing to extend the
/// chain and broadcasting every sealed block over crossbeam channels. After
/// the dust settles, all three replicas agree on the head.
#[test]
fn threaded_miners_converge_on_one_canonical_chain() {
    const PEERS: usize = 3;
    const BLOCKS_PER_PEER: u64 = 5;

    let keys: Vec<KeyPair> = (0..PEERS)
        .map(|i| KeyPair::generate(&mut StdRng::seed_from_u64(i as u64)))
        .collect();
    let addrs: Vec<_> = keys.iter().map(KeyPair::address).collect();
    let spec = GenesisSpec::with_accounts(&addrs, 1_000_000_000).with_difficulty(1);

    // Full-mesh broadcast channels.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..PEERS)
        .map(|_| channel::unbounded::<blockfed::chain::Block>())
        .unzip();

    // A shared, lock-protected log of every block ever sealed (exercises
    // parking_lot::Mutex under contention).
    let sealed_log: Arc<Mutex<Vec<blockfed::crypto::H256>>> = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..PEERS)
        .map(|me| {
            let spec = spec.clone();
            let my_addr = addrs[me];
            let peers_tx: Vec<_> = senders
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != me)
                .map(|(_, s)| s.clone())
                .collect();
            let my_rx = receivers[me].clone();
            let log = Arc::clone(&sealed_log);
            std::thread::spawn(move || {
                let mut chain = Blockchain::new(&spec);
                let mut orphans: Vec<blockfed::chain::Block> = Vec::new();
                for round in 0..BLOCKS_PER_PEER {
                    // Drain incoming blocks (with orphan retry for ordering).
                    while let Ok(block) = my_rx.try_recv() {
                        if let Err(ImportError::UnknownParent(_)) =
                            chain.import(block.clone(), &mut NullRuntime)
                        {
                            orphans.push(block);
                        }
                    }
                    let mut retry = std::mem::take(&mut orphans);
                    while !retry.is_empty() {
                        let before = retry.len();
                        retry.retain(|b| {
                            matches!(
                                chain.import(b.clone(), &mut NullRuntime),
                                Err(ImportError::UnknownParent(_))
                            )
                        });
                        if retry.len() == before {
                            break;
                        }
                    }
                    orphans = retry;

                    // Mine one block on the current head; unique timestamps
                    // per (peer, round) avoid identical-hash collisions.
                    let ts = chain.head_block().header.timestamp_ns
                        + 1_000 * (me as u64 + 1)
                        + round * 17;
                    let block = chain.build_candidate(my_addr, vec![], ts, &mut NullRuntime);
                    chain
                        .import(block.clone(), &mut NullRuntime)
                        .expect("own block imports");
                    log.lock().push(block.hash());
                    for tx in &peers_tx {
                        let _ = tx.send(block.clone());
                    }
                }
                // Final drain: we are done sending, so release our senders and
                // keep importing until every other peer has finished too (the
                // channel disconnects once all senders are dropped). Breaking
                // on a short timeout instead would race slow peers and
                // occasionally miss their last blocks.
                drop(peers_tx);
                while let Ok(block) = my_rx.recv_timeout(std::time::Duration::from_secs(10)) {
                    match chain.import(block.clone(), &mut NullRuntime) {
                        Err(ImportError::UnknownParent(_)) => orphans.push(block),
                        _ => {
                            let mut retry = std::mem::take(&mut orphans);
                            retry.retain(|b| {
                                matches!(
                                    chain.import(b.clone(), &mut NullRuntime),
                                    Err(ImportError::UnknownParent(_))
                                )
                            });
                            orphans = retry;
                        }
                    }
                }
                chain
            })
        })
        .collect();

    // Drop our copies of the senders so the final drains can terminate.
    drop(senders);

    let chains: Vec<Blockchain> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics"))
        .collect();

    // Every peer sealed its blocks and logged them.
    assert_eq!(sealed_log.lock().len(), PEERS * BLOCKS_PER_PEER as usize);

    // All replicas saw every block and therefore agree on the heaviest chain.
    let heads: Vec<_> = chains.iter().map(|c| c.head()).collect();
    assert!(
        heads.iter().all(|h| *h == heads[0]),
        "replicas diverged: {heads:?}"
    );
    // The canonical chain is identical everywhere, block by block.
    let canon0 = chains[0].canonical_chain();
    for c in &chains[1..] {
        assert_eq!(c.canonical_chain(), canon0);
    }
    assert!(
        canon0.len() > BLOCKS_PER_PEER as usize,
        "chain too short: {}",
        canon0.len()
    );
}

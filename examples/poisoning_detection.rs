//! Abnormal-model detection and non-repudiation: a client ships poisoned
//! weights; the "consider" aggregation routes around it, the anomaly detectors
//! flag it, and the blockchain evidence makes the authorship undeniable.
//!
//! ```text
//! cargo run --release --example poisoning_detection
//! ```

use blockfed::chain::{Blockchain, GenesisSpec};
use blockfed::core::{
    collect_evidence, detect_norm_outliers, register_tx, submit_model_tx, verify_evidence,
};
use blockfed::crypto::{KeyPair, H160};
use blockfed::data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::{ClientId, ModelUpdate, Strategy, VanillaFl, VanillaFlConfig};
use blockfed::nn::SimpleNnConfig;
use blockfed::vm::{BlockfedRuntime, NativeContract, NATIVE_REGISTRY_CODE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- 1. a federated run where client A is poisoned --------------------
    let gen = SynthCifar::new(SynthCifarConfig::default());
    let (train, test) = gen.generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew { alpha: 0.8 },
        &mut rng,
    );
    let tests = vec![test.clone(), test.clone(), test.clone()];
    let nn = SimpleNnConfig::paper();

    let config = VanillaFlConfig {
        rounds: 3,
        local_epochs: 3,
        strategy: Strategy::Consider,
        ..Default::default()
    };
    let driver = VanillaFl::new(config, &shards, &tests, &test);
    let mut arch_rng = StdRng::seed_from_u64(1);
    let mut run_rng = StdRng::seed_from_u64(2);
    let mut poisoned_updates: Vec<ModelUpdate> = Vec::new();
    let run = driver.run_with_hook(
        &mut || nn.build(&mut arch_rng),
        &mut |u| {
            if u.client == ClientId(0) {
                // Scale the weights absurdly — a crude poisoning attack.
                for p in &mut u.params {
                    *p *= 40.0;
                }
                poisoned_updates.push(u.clone());
            }
        },
        &mut run_rng,
    );
    println!("poisoned client: A (weights scaled 40×)\n");
    for r in &run.records {
        println!(
            "round {}: aggregator chose {{{}}} (accuracy {:.4}) — poisoned A {}",
            r.round,
            r.chosen,
            r.score,
            if r.chosen.contains(ClientId(0)) {
                "INCLUDED ⚠"
            } else {
                "excluded ✓"
            }
        );
    }

    // --- 2. the norm detector flags the poisoned update -------------------
    let clean_b = ModelUpdate::new(ClientId(1), 1, vec![0.1; 64], 100);
    let clean_c = ModelUpdate::new(ClientId(2), 1, vec![0.12; 64], 100);
    let poisoned = poisoned_updates.first().expect("hook ran").clone();
    let cohort = [&poisoned, &clean_b, &clean_c];
    let reports = detect_norm_outliers(&cohort, 1.2);
    println!("\nnorm-outlier detector over round-1 updates:");
    for rep in &reports {
        println!("  flagged update #{}: {:?}", rep.index, rep.reason);
    }

    // --- 3. on-chain evidence: the author cannot deny it ------------------
    let keys: Vec<KeyPair> = (1..=3)
        .map(|s| KeyPair::generate(&mut StdRng::seed_from_u64(s)))
        .collect();
    let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
    let registry = H160::from_bytes([0xEE; 20]);
    let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
        .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
    let mut chain = Blockchain::new(&spec);
    let mut runtime = BlockfedRuntime::new();
    runtime.register_native(registry, NativeContract::FlRegistry);

    let mut txs: Vec<_> = keys.iter().map(|k| register_tx(registry, k, 0)).collect();
    txs.push(submit_model_tx(&poisoned, registry, &keys[0], 1));
    let block = chain.build_candidate(addrs[0], txs, 1_000, &mut runtime);
    chain.import(block, &mut runtime).expect("valid block");

    let evidence =
        collect_evidence(&chain, registry, addrs[0], &poisoned).expect("submission on chain");
    println!("\nnon-repudiation evidence for the poisoned model:");
    println!("  author      : {}", evidence.author);
    println!("  model hash  : {}", evidence.model_hash.short());
    println!("  transaction : {}", evidence.tx_hash.short());
    println!("  block       : {}", evidence.block_hash.short());
    match verify_evidence(&chain, &evidence, &poisoned) {
        Ok(()) => println!("  verdict     : VALID — client A cannot deny publishing this model"),
        Err(e) => println!("  verdict     : audit failed: {e}"),
    }
}

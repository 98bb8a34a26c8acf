//! Non-repudiation end to end: a compromised peer poisons its model, honest
//! peers detect and drop it, and the blockchain evidence pins the poisoned
//! artefact to its author — who cannot deny it, and cannot be framed.
//!
//! ```text
//! cargo run --release --example nonrepudiation_audit
//! ```

use blockfed::chain::{Blockchain, GenesisSpec};
use blockfed::core::{
    collect_evidence, register_tx, submit_model_tx, verify_evidence, AuditError, Decentralized,
    DecentralizedConfig,
};
use blockfed::crypto::KeyPair;
use blockfed::data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::{Adversary, Attack, ClientId, ModelUpdate, WaitPolicy};
use blockfed::nn::SimpleNnConfig;
use blockfed::telemetry::MemorySink;
use blockfed::vm::{BlockfedRuntime, NativeContract, NATIVE_REGISTRY_CODE};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    decentralized_attack_and_audit();
    manual_evidence_demo();
}

/// Part 1 — the full system: peer A mounts a 50x boosting attack; the fitness
/// and norm gates drop it; the post-run audit verifies authorship of every
/// published model, poisoned ones included.
fn decentralized_attack_and_audit() {
    println!("=== Part 1: attack, detection, and post-run audit ===\n");
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(2);
    let mut rng = StdRng::seed_from_u64(3);
    let shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew { alpha: 0.7 },
        &mut rng,
    );
    let tests = vec![test.clone(), test.clone(), test];

    let config = DecentralizedConfig {
        rounds: 3,
        local_epochs: 2,
        batch_size: 16,
        difficulty: 200_000,
        adversaries: vec![Adversary::new(ClientId(0), Attack::Scale { factor: 50.0 })],
        fitness_threshold: Some(0.30),
        norm_z_threshold: Some(1.2),
        wait_policy: WaitPolicy::All,
        seed: 7,
        ..Default::default()
    };
    let driver = Decentralized::new(config, &shards, &tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(7);
    let mut sink = MemorySink::new();
    let run = driver.run_traced(&mut || nn.build(&mut arch_rng), &mut sink);

    println!("attacks mounted:   {}", sink.count("attack.mounted"));
    for (peer, round, reason) in run.drops() {
        println!("peer {} round {round}: dropped {reason}", ClientId(peer));
    }
    println!("\npost-run audit of every published model (peer 0's chain):");
    for a in &run.audits {
        println!(
            "  {} round {}: {}",
            a.client,
            a.round,
            if a.verified {
                "signed + merkle-anchored + PoW-buried ✓"
            } else {
                "UNVERIFIED ✗"
            }
        );
    }
    let poisoned = run
        .published_updates
        .iter()
        .find(|u| u.client == ClientId(0))
        .expect("attacker published");
    println!(
        "\nthe attacker's round-1 artefact is preserved verbatim (param norm {:.1}) —\n\
         it signed what it published; authorship is undeniable.\n",
        poisoned
            .params
            .iter()
            .map(|&p| f64::from(p) * f64::from(p))
            .sum::<f64>()
            .sqrt()
    );
}

/// Part 2 — the evidence bundle itself: collect it from a hand-built chain,
/// verify it, then show every tampering attempt fails.
fn manual_evidence_demo() {
    println!("=== Part 2: the evidence bundle, tampered and rejected ===\n");
    let mut rng = StdRng::seed_from_u64(1);
    let author_key = KeyPair::generate(&mut rng);
    let bystander_key = KeyPair::generate(&mut rng);
    let addrs = [author_key.address(), bystander_key.address()];

    let mut reg_bytes = [0u8; 20];
    reg_bytes[0] = 0xFE;
    let registry = blockfed::crypto::H160::from_bytes(reg_bytes);
    let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
        .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
    let mut chain = Blockchain::new(&spec);
    let mut runtime = BlockfedRuntime::new();
    runtime.register_native(registry, NativeContract::FlRegistry);

    // The author publishes a (suspicious) model.
    let update = ModelUpdate::new(ClientId(0), 1, vec![50.0, -80.0, 90.0], 100);
    let txs = vec![
        register_tx(registry, &author_key, 0),
        register_tx(registry, &bystander_key, 0),
        submit_model_tx(&update, registry, &author_key, 1),
    ];
    let block = chain.build_candidate(addrs[0], txs, 1_000, &mut runtime);
    chain.import(block, &mut runtime).expect("valid block");

    let evidence = collect_evidence(&chain, registry, addrs[0], &update).expect("on chain");
    println!(
        "evidence collected: tx {}…, block {}…",
        &evidence.tx_hash.to_string()[..10],
        &evidence.block_hash.to_string()[..10]
    );
    verify_evidence(&chain, &evidence, &update).expect("verifies");
    println!("verification: OK — the author cannot deny publishing this model");

    // Denial attempt: "those aren't the parameters I published".
    let mut tampered = update.clone();
    tampered.params[0] = 0.0;
    assert_eq!(
        verify_evidence(&chain, &evidence, &tampered),
        Err(AuditError::FingerprintMismatch)
    );
    println!(
        "denial (altered params):    rejected — {}",
        AuditError::FingerprintMismatch
    );

    // Framing attempt: pin the model on the bystander.
    assert_eq!(
        collect_evidence(&chain, registry, addrs[1], &update),
        Err(AuditError::NotOnChain)
    );
    let mut framed = evidence.clone();
    framed.author = addrs[1];
    assert_eq!(
        verify_evidence(&chain, &framed, &update),
        Err(AuditError::AuthorMismatch)
    );
    println!(
        "framing (swapped author):   rejected — {}",
        AuditError::AuthorMismatch
    );
}

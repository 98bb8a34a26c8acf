//! Integration tests spanning the whole stack through the `blockfed` facade:
//! data generation → federated training → blockchain coupling → reporting.

use blockfed::core::{ComputeProfile, Decentralized, DecentralizedConfig};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::{ClientId, Strategy, VanillaFl, VanillaFlConfig, WaitPolicy};
use blockfed::net::LinkSpec;
use blockfed::nn::{EffNetLite, EffNetLiteConfig, SimpleNnConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_world(seed: u64) -> (Vec<Dataset>, Dataset) {
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew { alpha: 0.8 },
        &mut rng,
    );
    (shards, test)
}

#[test]
fn vanilla_and_decentralized_agree_on_learnability() {
    let (shards, test) = tiny_world(1);
    let tests = vec![test.clone(), test.clone(), test.clone()];
    let nn = SimpleNnConfig::tiny(test.feature_dim(), test.num_classes());

    // Vanilla.
    let v_config = VanillaFlConfig {
        rounds: 4,
        local_epochs: 3,
        batch_size: 16,
        lr: 0.1,
        strategy: Strategy::NotConsider,
        ..Default::default()
    };
    let driver = VanillaFl::new(v_config, &shards, &tests, &test);
    let mut arch = StdRng::seed_from_u64(2);
    let mut rng = StdRng::seed_from_u64(3);
    let vanilla = driver.run(&mut || nn.build(&mut arch), &mut rng);

    // Decentralized.
    let d_config = DecentralizedConfig {
        rounds: 4,
        local_epochs: 3,
        batch_size: 16,
        lr: 0.1,
        difficulty: 200_000,
        computes: vec![
            ComputeProfile {
                hashrate: 100_000.0,
                train_rate: 500.0,
                contention: 0.2,
                batch_parallel: false,
            };
            3
        ],
        link: LinkSpec::lan(),
        payload_bytes: 10_000,
        seed: 4,
        ..Default::default()
    };
    let driver = Decentralized::new(d_config, &shards, &tests);
    let mut arch = StdRng::seed_from_u64(2);
    let decentralized = driver.run(&mut || nn.build(&mut arch));

    let chance = 1.0 / test.num_classes() as f64;
    let v_final = vanilla.final_accuracy(ClientId(0));
    let d_final = decentralized.final_accuracy(0);
    assert!(v_final > chance * 1.5, "vanilla failed to learn: {v_final}");
    assert!(
        d_final > chance * 1.5,
        "decentralized failed to learn: {d_final}"
    );
    // The paper's headline similarity: both settings land in the same regime.
    assert!(
        (v_final - d_final).abs() < 0.35,
        "settings diverged: vanilla {v_final} vs decentralized {d_final}"
    );
}

#[test]
fn consider_never_loses_to_not_consider_on_selection_set() {
    let (shards, test) = tiny_world(5);
    let tests = vec![test.clone(), test.clone(), test.clone()];
    let nn = SimpleNnConfig::tiny(test.feature_dim(), test.num_classes());
    let mut scores = Vec::new();
    for strategy in [Strategy::Consider, Strategy::NotConsider] {
        let config = VanillaFlConfig {
            rounds: 3,
            local_epochs: 2,
            strategy,
            ..Default::default()
        };
        let driver = VanillaFl::new(config, &shards, &tests, &test);
        let mut arch = StdRng::seed_from_u64(6);
        let mut rng = StdRng::seed_from_u64(7);
        let run = driver.run(&mut || nn.build(&mut arch), &mut rng);
        scores.push(run.records.last().unwrap().score);
    }
    // Per-round, consider maximizes over a superset of not-consider's single
    // candidate, measured on the same selection set.
    assert!(
        scores[0] >= scores[1] - 0.05,
        "consider {} should not lose clearly to not-consider {}",
        scores[0],
        scores[1]
    );
}

#[test]
fn transfer_learning_pipeline_runs_decentralized() {
    let (shards, test) = tiny_world(8);
    // Pretrain a backbone on a disjoint draw, freeze, extract features.
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let mut pretext_rng = StdRng::seed_from_u64(9);
    let pretext = gen.sample(&mut pretext_rng, 20);
    let cfg = EffNetLiteConfig::tiny(test.feature_dim(), test.num_classes());
    let mut bb_rng = StdRng::seed_from_u64(10);
    let mut effnet = EffNetLite::pretrained(cfg, &pretext, &mut bb_rng);

    let head_shards: Vec<Dataset> = shards.iter().map(|s| effnet.extract_features(s)).collect();
    let head_test = effnet.extract_features(&test);
    let head_tests = vec![head_test.clone(), head_test.clone(), head_test.clone()];

    let config = DecentralizedConfig {
        rounds: 2,
        local_epochs: 2,
        batch_size: 16,
        difficulty: 200_000,
        computes: vec![
            ComputeProfile {
                hashrate: 100_000.0,
                train_rate: 500.0,
                contention: 0.2,
                batch_parallel: false,
            };
            3
        ],
        payload_bytes: cfg.payload_bytes(),
        seed: 11,
        ..Default::default()
    };
    let driver = Decentralized::new(config, &head_shards, &head_tests);
    let mut head_rng = StdRng::seed_from_u64(12);
    let run = driver.run(&mut || {
        let mut m = blockfed::nn::Sequential::new();
        m.push(blockfed::nn::Linear::new(
            &mut head_rng,
            cfg.width,
            cfg.num_classes,
        ));
        m
    });
    assert_eq!(run.peer_records.len(), 3);
    for peer in &run.peer_records {
        assert_eq!(peer.len(), 2);
    }
    // The chain carried the *full* model payload (frozen weights included).
    assert!(run.chain.total_payload_bytes >= cfg.payload_bytes() * 6);
}

#[test]
fn async_policies_form_a_latency_ladder() {
    let (shards, test) = tiny_world(20);
    let tests = vec![test.clone(), test.clone(), test.clone()];
    let nn = SimpleNnConfig::tiny(test.feature_dim(), test.num_classes());
    let mut waits = Vec::new();
    for policy in [WaitPolicy::All, WaitPolicy::FirstK(1)] {
        let config = DecentralizedConfig {
            rounds: 2,
            local_epochs: 2,
            batch_size: 16,
            wait_policy: policy,
            difficulty: 100_000,
            // Slow, uneven training makes waiting visible.
            computes: vec![
                ComputeProfile {
                    hashrate: 100_000.0,
                    train_rate: 5.0,
                    contention: 0.2,
                    batch_parallel: false,
                };
                3
            ],
            payload_bytes: 10_000,
            seed: 21,
            ..Default::default()
        };
        let driver = Decentralized::new(config, &shards, &tests);
        let mut arch = StdRng::seed_from_u64(22);
        let run = driver.run(&mut || nn.build(&mut arch));
        waits.push(run.mean_wait());
    }
    assert!(
        waits[1] < waits[0],
        "wait-1 ({}) should wait less than wait-all ({})",
        waits[1],
        waits[0]
    );
}

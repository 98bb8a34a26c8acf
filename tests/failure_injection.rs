//! Failure-injection integration tests: adversarial peers, malformed payloads,
//! asynchronous policies under attack, and audit behaviour — all on the full
//! decentralized stack through the public API.

use blockfed::chain::RetargetRule;
use blockfed::core::{ComputeProfile, Decentralized, DecentralizedConfig, Fault, TimedFault};
use blockfed::data::{partition_dataset, Dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::{Adversary, Attack, ClientId, WaitPolicy};
use blockfed::nn::SimpleNnConfig;
use blockfed::telemetry::MemorySink;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_world(seed: u64) -> (Vec<Dataset>, Vec<Dataset>) {
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew { alpha: 0.7 },
        &mut rng,
    );
    (shards, vec![test.clone(), test.clone(), test])
}

fn config(seed: u64) -> DecentralizedConfig {
    DecentralizedConfig {
        rounds: 2,
        local_epochs: 2,
        batch_size: 16,
        lr: 0.1,
        difficulty: 200_000,
        seed,
        ..Default::default()
    }
}

fn run(
    cfg: DecentralizedConfig,
    shards: &[Dataset],
    tests: &[Dataset],
    seed: u64,
) -> blockfed::core::DecentralizedRun {
    let driver = Decentralized::new(cfg, shards, tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    driver.run(&mut || nn.build(&mut arch_rng))
}

#[test]
fn two_simultaneous_adversaries_with_defences() {
    let (shards, tests) = tiny_world(21);
    let mut cfg = config(21);
    cfg.adversaries = vec![
        Adversary::new(ClientId(0), Attack::Scale { factor: 80.0 }),
        Adversary::new(ClientId(1), Attack::GaussianNoise { sigma: 5.0 }),
    ];
    cfg.norm_z_threshold = Some(1.2);
    cfg.fitness_threshold = Some(0.3);
    let out = run(cfg, &shards, &tests, 21);
    // The single honest peer still finishes every round.
    assert_eq!(out.peer_records[2].len(), 2);
    // With two of three peers hostile, the honest peer must have dropped or
    // excluded at least one attacker at least once.
    let honest_drops: Vec<_> = out
        .drops()
        .into_iter()
        .filter(|(peer, _, _)| *peer == 2)
        .collect();
    assert!(
        !honest_drops.is_empty(),
        "honest peer never screened anything"
    );
}

#[test]
fn nan_flood_under_async_wait_two_still_completes() {
    let (shards, tests) = tiny_world(22);
    let mut cfg = config(22);
    cfg.wait_policy = WaitPolicy::FirstK(2);
    cfg.adversaries = vec![Adversary::new(
        ClientId(1),
        Attack::NanInjection { fraction: 1.0 },
    )];
    let out = run(cfg, &shards, &tests, 22);
    for (peer, records) in out.peer_records.iter().enumerate() {
        assert_eq!(records.len(), 2, "peer {peer} stalled under NaN flood");
        for r in records {
            // The malformed model can never be aggregated.
            assert!(r.updates_used >= 1);
            assert!(
                !r.chosen.split(',').any(|c| c == "B"),
                "NaN model chosen: {}",
                r.chosen
            );
        }
    }
}

#[test]
fn sleeper_replay_does_not_stall_rounds() {
    let (shards, tests) = tiny_world(23);
    let mut cfg = config(23);
    cfg.rounds = 3;
    cfg.adversaries = vec![Adversary::new(ClientId(2), Attack::Replay).starting_at(2)];
    let out = run(cfg, &shards, &tests, 23);
    for records in &out.peer_records {
        assert_eq!(records.len(), 3);
    }
    // Replays are finite models: they stay aggregatable, so no drops needed.
    let drops = out.drops();
    assert!(
        drops.iter().all(|(_, _, d)| !d.ends_with(":malformed")),
        "{drops:?}"
    );
}

#[test]
fn constant_free_rider_is_gated_by_fitness() {
    // IID shards: with the tiny Dirichlet-skewed shards every *honest* solo
    // model also sits at chance on the balanced test, the whole cohort fails
    // the gate, and the fallback adopts the best single model — which can be
    // the free-rider's (an instructive failure mode in its own right, but not
    // what this test is about).
    let gen = SynthCifar::new(SynthCifarConfig::tiny());
    let (train, test) = gen.generate(24);
    let mut rng = StdRng::seed_from_u64(24);
    let shards = partition_dataset(&train, 3, Partition::Iid, &mut rng);
    let tests = vec![test.clone(), test.clone(), test];
    let mut cfg = config(24);
    // Enough local epochs that honest round-1 models clear the gate.
    cfg.local_epochs = 4;
    cfg.adversaries = vec![Adversary::new(ClientId(0), Attack::Constant { value: 0.0 })];
    // A constant-zero model predicts one class (~chance on 4 classes); the
    // gate sits just above that so honest-but-mediocre models survive.
    cfg.fitness_threshold = Some(0.26);
    let out = run(cfg, &shards, &tests, 24);
    for peer in 1..3 {
        for r in &out.peer_records[peer] {
            assert!(
                !r.chosen.split(',').any(|c| c == "A"),
                "peer {peer} round {} aggregated the free-rider: {}",
                r.round,
                r.chosen
            );
        }
    }
}

#[test]
fn audits_cover_every_published_update_even_under_attack() {
    let (shards, tests) = tiny_world(25);
    let mut cfg = config(25);
    cfg.adversaries = vec![
        Adversary::new(ClientId(0), Attack::SignFlip { scale: 2.0 }),
        Adversary::new(ClientId(1), Attack::NanInjection { fraction: 0.5 }),
    ];
    let out = run(cfg, &shards, &tests, 25);
    assert_eq!(out.audits.len(), out.published_updates.len());
    // Wait-all: every submission confirmed, every audit verifies — including
    // both attackers' poisoned artefacts (that is the non-repudiation point).
    assert!(out.audits.iter().all(|a| a.verified));
}

/// Runs a long, straggler-slow 3-peer round schedule whose miners all get a
/// 4× hash-rate shock at `shock_at` seconds, under the given retarget rule,
/// and returns `(target_interval, post_shock_tail_mean_interval)` in
/// virtual seconds. The target is the cadence the configured difficulty
/// implies against the genesis hash rate — the cadence the adaptive rules
/// defend.
fn shocked_cadence(rule: RetargetRule, seed: u64) -> (f64, f64) {
    let (shards, tests) = tiny_world(seed);
    let shock_at = 4.0;
    let compute = ComputeProfile {
        hashrate: 100_000.0,
        // Slow training keeps the run alive for tens of seconds after the
        // shock, leaving the controller room to re-converge.
        train_rate: 5.0,
        contention: 0.3,
        batch_parallel: false,
    };
    let mut cfg = config(seed);
    cfg.computes = vec![compute; 3];
    cfg.retarget = rule;
    cfg.timeline = (0..3)
        .map(|p| {
            TimedFault::at_secs(
                shock_at,
                Fault::HashRateShock {
                    peer: p,
                    factor: 4.0,
                },
            )
        })
        .collect();
    let difficulty = cfg.difficulty as f64;
    let driver = Decentralized::new(cfg, &shards, &tests);
    let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
    let mut arch_rng = StdRng::seed_from_u64(seed);
    let mut sink = MemorySink::new();
    driver.run_traced(&mut || nn.build(&mut arch_rng), &mut sink);

    // Everyone trains throughout, so the genesis (and pre-shock) hash rate
    // is three contention-reduced miners.
    let rate = 3.0 * compute.effective_hashrate(true);
    let target = difficulty / rate;

    let seals: Vec<f64> = sink
        .records()
        .iter()
        .filter(|r| r.name == "pow.sealed")
        .map(|r| r.time.as_secs_f64())
        .collect();
    let post: Vec<f64> = seals
        .windows(2)
        .filter(|w| w[0] > shock_at + 2.0 * target) // let the shock settle in
        .map(|w| w[1] - w[0])
        .collect();
    assert!(
        post.len() >= 12,
        "{rule}: only {} post-shock intervals; run too short",
        post.len()
    );
    // The tail, where an adaptive rule has had time to act.
    let tail = &post[post.len() / 2..];
    (target, tail.iter().sum::<f64>() / tail.len() as f64)
}

#[test]
fn pi_retarget_restores_cadence_after_hash_shock_homestead_does_not() {
    // A 4× hash-rate shock makes blocks 4× too fast at fixed difficulty.
    // The PI controller must pull the tail cadence back within 2× of the
    // configured target; Homestead's ±1/2048 fixed step cannot.
    let (target, pi_tail) = shocked_cadence(RetargetRule::Pi { kp: 0.3, ki: 0.05 }, 27);
    assert!(
        pi_tail >= target / 2.0 && pi_tail <= target * 2.0,
        "pi tail cadence {pi_tail:.3}s escaped [{:.3}, {:.3}]",
        target / 2.0,
        target * 2.0
    );

    let (target, homestead_tail) = shocked_cadence(RetargetRule::Homestead, 27);
    assert!(
        homestead_tail < target / 2.0,
        "homestead unexpectedly recovered: tail {homestead_tail:.3}s vs target {target:.3}s"
    );
    // And the adaptive rule's cadence error is strictly smaller.
    assert!((pi_tail - target).abs() < (homestead_tail - target).abs());
}

#[test]
fn heterogeneous_compute_with_attacker_keeps_latency_ladder() {
    let (shards, tests) = tiny_world(26);
    let stragglers = vec![
        ComputeProfile {
            hashrate: 100_000.0,
            train_rate: 500.0,
            contention: 0.3,
            batch_parallel: false,
        },
        ComputeProfile {
            hashrate: 100_000.0,
            train_rate: 500.0,
            contention: 0.3,
            batch_parallel: false,
        },
        ComputeProfile {
            hashrate: 100_000.0,
            train_rate: 5.0,
            contention: 0.3,
            batch_parallel: false,
        },
    ];
    let mut waits = Vec::new();
    for policy in [WaitPolicy::All, WaitPolicy::FirstK(2)] {
        let mut cfg = config(26);
        cfg.wait_policy = policy;
        cfg.computes = stragglers.clone();
        cfg.adversaries = vec![Adversary::new(
            ClientId(0),
            Attack::GaussianNoise { sigma: 0.1 },
        )];
        let out = run(cfg, &shards, &tests, 26);
        waits.push(out.mean_wait());
    }
    assert!(
        waits[1] < waits[0],
        "async under attack lost its latency edge: {:?} !< {:?}",
        waits[1],
        waits[0]
    );
}

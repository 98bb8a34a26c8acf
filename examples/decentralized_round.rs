//! The paper's headline system end to end: three peers that each train, mine
//! and aggregate on a private proof-of-work chain, with per-peer customized
//! aggregation over model combinations.
//!
//! ```text
//! cargo run --release --example decentralized_round
//! ```

use blockfed::core::{ComputeProfile, Decentralized, DecentralizedConfig};
use blockfed::data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
use blockfed::fl::{ClientId, WaitPolicy};
use blockfed::net::LinkSpec;
use blockfed::nn::SimpleNnConfig;
use blockfed::report::{fmt_acc, Table};
use blockfed::telemetry::MemorySink;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gen = SynthCifar::new(SynthCifarConfig::default());
    let (train, test) = gen.generate(11);
    let mut rng = StdRng::seed_from_u64(11);
    let shards = partition_dataset(
        &train,
        3,
        Partition::DirichletLabelSkew { alpha: 0.8 },
        &mut rng,
    );
    let tests = vec![test.clone(), test.clone(), test];

    let nn = SimpleNnConfig::paper();
    let config = DecentralizedConfig {
        rounds: 3,
        local_epochs: 5,
        wait_policy: WaitPolicy::All,
        payload_bytes: nn.payload_bytes(),
        computes: vec![ComputeProfile::paper_vm(); 3],
        link: LinkSpec::lan(),
        ..Default::default()
    };
    println!(
        "3 fully coupled peers: each trains (5 epochs), mines (PoW), and aggregates; \
         models travel as signed registry transactions ({} KB each).\n",
        config.payload_bytes / 1024
    );

    let driver = Decentralized::new(config, &shards, &tests);
    let mut arch_rng = StdRng::seed_from_u64(3);
    let mut sink = MemorySink::new();
    let run = driver.run_traced(&mut || nn.build(&mut arch_rng), &mut sink);

    for (peer, records) in run.peer_records.iter().enumerate() {
        let mut table = Table::new(
            format!("Peer {} — per-round aggregation choices", ClientId(peer)),
            &[
                "Round",
                "Chosen combo",
                "Accuracy",
                "Wait (s)",
                "Models used",
            ],
        );
        for r in records {
            table.row_owned(vec![
                r.round.to_string(),
                r.chosen.clone(),
                fmt_acc(r.chosen_accuracy),
                format!("{:.2}", r.wait.as_secs_f64()),
                r.updates_used.to_string(),
            ]);
        }
        println!("{table}");
    }

    println!("chain after the run (peer A's view):");
    println!("  canonical blocks : {}", run.chain.blocks);
    if let Some(interval) = run.chain.mean_block_interval {
        println!("  mean block time  : {:.2}s", interval.as_secs_f64());
    }
    println!("  transactions     : {}", run.chain.total_txs);
    println!(
        "  model payloads   : {:.1} MB",
        run.chain.total_payload_bytes as f64 / 1e6
    );
    println!(
        "  finished (virtual): {:.1}s",
        run.finished_at.as_secs_f64()
    );
    println!("\ntrace excerpt ({} records):", sink.records().len());
    for line in sink.to_jsonl().lines().take(8) {
        println!("  {line}");
    }
}

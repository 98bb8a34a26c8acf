//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p blockfed-bench --bin experiments -- <id> [--full] [--seed N]
//!
//! ids: table1 fig3 table2 table3 table4 fig4 tradeoff chainperf contention
//!      poisoning asyncopt sweep all
//! ```
//!
//! `all` runs every id except `sweep`. An unknown id prints the usage line
//! and exits with status 2.
//!
//! Text tables and ASCII figures go to stdout; CSVs land in `results/`.

use blockfed_bench::{
    prepare, run_asyncopt, run_chainperf, run_contention, run_poisoning, run_table1, run_tables234,
    run_tradeoff, run_tradeoff_sweep, Profile,
};
use blockfed_report::write_csv;

/// Every experiment id the binary accepts.
const IDS: [&str; 13] = [
    "table1",
    "fig3",
    "table2",
    "table3",
    "table4",
    "fig4",
    "tradeoff",
    "chainperf",
    "contention",
    "poisoning",
    "asyncopt",
    "sweep",
    "all",
];

fn usage() -> ! {
    eprintln!("usage: experiments <{}> [--full] [--seed N]", IDS.join("|"));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut full = false;
    let mut seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--seed" => {
                i += 1;
                seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            other if id.is_none() && !other.starts_with('-') => id = Some(other.to_owned()),
            _ => usage(),
        }
        i += 1;
    }
    let id = id.unwrap_or_else(|| "all".to_owned());
    if !IDS.contains(&id.as_str()) {
        usage();
    }
    let mut profile = if full {
        Profile::full()
    } else {
        Profile::quick()
    };
    if let Some(s) = seed {
        profile = profile.with_seed(s);
    }
    println!("profile: {} (seed {})", profile.name, profile.seed);

    let results_dir = "results";
    // Every id but these two trains on the prepared data (`sweep` prepares
    // its own per seed).
    let needs_data = !matches!(id.as_str(), "chainperf" | "sweep");
    let data = if needs_data {
        println!("preparing data (generate, partition, pretrain backbone)…");
        Some(prepare(profile.clone()))
    } else {
        None
    };

    let want = |x: &str| id == x || id == "all";

    if want("table1") || want("fig3") {
        let data = data.as_ref().expect("prepared");
        println!("running Table I / Figure 3 (Vanilla FL, both models × both strategies)…");
        let out = run_table1(data);
        println!("{}", out.table);
        for fig in &out.figures {
            println!("{fig}");
        }
        let path = write_csv(results_dir, "table1", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }

    if want("table2") || want("table3") || want("table4") || want("fig4") {
        let data = data.as_ref().expect("prepared");
        println!("running Tables II–IV / Figure 4 (decentralized, both models)…");
        let out = run_tables234(data);
        for (i, table) in out.tables.iter().enumerate() {
            let tid = format!("table{}", i + 2);
            if want(&tid) || want("fig4") || id == "all" {
                println!("{table}");
                let path = write_csv(results_dir, &tid, table).expect("write csv");
                println!("wrote {}", path.display());
            }
        }
        if want("fig4") {
            for fig in &out.figures {
                println!("{fig}");
            }
        }
        for (sel, run) in &out.runs {
            println!(
                "[{}] chain: {} blocks, mean interval {:?}, {} txs, {:.1} MB payload, finished at {:.1}s",
                sel.kind(),
                run.chain.blocks,
                run.chain.mean_block_interval.map(|d| d.as_secs_f64()),
                run.chain.total_txs,
                run.chain.total_payload_bytes as f64 / 1e6,
                run.finished_at.as_secs_f64(),
            );
        }
    }

    if want("tradeoff") {
        let data = data.as_ref().expect("prepared");
        println!("running the wait-or-not trade-off (both models × wait-all/2/1)…");
        let out = run_tradeoff(data);
        println!("{}", out.table);
        let path = write_csv(results_dir, "tradeoff", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }

    if want("chainperf") {
        println!("running the chain performance sweep…");
        let out = run_chainperf(&[3, 6, 12, 24], &[253_952, 21_200_000], 12, profile.seed);
        println!("{}", out.table);
        let path = write_csv(results_dir, "chainperf", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }

    if want("contention") {
        let data = data.as_ref().expect("prepared");
        println!("running the mining⇄training contention sweep…");
        let out = run_contention(data, &[0.0, 0.25, 0.5, 0.75]);
        println!("{}", out.table);
        let path = write_csv(results_dir, "contention", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }

    if want("poisoning") {
        let data = data.as_ref().expect("prepared");
        println!("running the poisoning / non-repudiation study (peer A compromised)…");
        let out = run_poisoning(data);
        println!("{}", out.table);
        let path = write_csv(results_dir, "poisoning", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }

    if want("asyncopt") {
        let data = data.as_ref().expect("prepared");
        println!("running the asynchronous-optimum study (wait-k + aggregation size)…");
        let out = run_asyncopt(data);
        println!("{}", out.waitk_table);
        println!("{}", out.bestk_table);
        let path = write_csv(results_dir, "asyncopt_waitk", &out.waitk_table).expect("write csv");
        println!("wrote {}", path.display());
        let path = write_csv(results_dir, "asyncopt_bestk", &out.bestk_table).expect("write csv");
        println!("wrote {}", path.display());
    }

    // The seed sweep re-prepares data per seed, so it is not part of `all`;
    // request it explicitly.
    if id == "sweep" {
        let seeds: Vec<u64> = (0..5).map(|i| profile.seed + i).collect();
        println!("running the trade-off seed sweep over seeds {seeds:?}…");
        let out = run_tradeoff_sweep(&profile, &seeds);
        println!("{}", out.table);
        let path = write_csv(results_dir, "tradeoff_sweep", &out.table).expect("write csv");
        println!("wrote {}", path.display());
    }
}

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

#![warn(clippy::too_many_lines)]

use blockfed_bench::{
    prepare, run_asyncopt, run_chainperf, run_contention, run_poisoning, run_table1, run_tables234,
    run_tradeoff, run_tradeoff_sweep, PreparedData, Profile,
};
use blockfed_report::{write_csv, Table};

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

/// Where the CSVs land.
const RESULTS_DIR: &str = "results";

/// The experiment id (default `all`) and profile the command line asks for;
/// exits through [`usage`] on anything else.
fn parse_args() -> (String, Profile) {
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
    (id, profile)
}

/// Writes `table` to `results/<name>.csv` and prints the path.
fn save(name: &str, table: &Table) {
    let path = write_csv(RESULTS_DIR, name, table).expect("write csv");
    println!("wrote {}", path.display());
}

/// Prints `table`, then [`save`]s it.
fn emit(name: &str, table: &Table) {
    println!("{table}");
    save(name, table);
}

/// Tables II–IV and Figure 4: one decentralized run per model, printing the
/// tables and figures `id` asks for and each run's chain summary.
fn tables234(id: &str, data: &PreparedData) {
    let want = |x: &str| id == x || id == "all";
    println!("running Tables II–IV / Figure 4 (decentralized, both models)…");
    let out = run_tables234(data);
    for (i, table) in out.tables.iter().enumerate() {
        let tid = format!("table{}", i + 2);
        if want(&tid) || want("fig4") {
            emit(&tid, table);
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

fn main() {
    let (id, profile) = parse_args();
    println!("profile: {} (seed {})", profile.name, profile.seed);

    // Every id but these two trains on the prepared data (`sweep` prepares
    // its own per seed).
    let needs_data = !matches!(id.as_str(), "chainperf" | "sweep");
    let data = if needs_data {
        println!("preparing data (generate, partition, pretrain backbone)…");
        Some(prepare(profile.clone()))
    } else {
        None
    };
    let data = || data.as_ref().expect("prepared");

    let want = |x: &str| id == x || id == "all";

    if want("table1") || want("fig3") {
        println!("running Table I / Figure 3 (Vanilla FL, both models × both strategies)…");
        let out = run_table1(data());
        println!("{}", out.table);
        for fig in &out.figures {
            println!("{fig}");
        }
        save("table1", &out.table);
    }

    if want("table2") || want("table3") || want("table4") || want("fig4") {
        tables234(&id, data());
    }

    if want("tradeoff") {
        println!("running the wait-or-not trade-off (both models × wait-all/2/1)…");
        emit("tradeoff", &run_tradeoff(data()).table);
    }

    if want("chainperf") {
        println!("running the chain performance sweep…");
        let out = run_chainperf(&[3, 6, 12, 24], &[253_952, 21_200_000], 12, profile.seed);
        emit("chainperf", &out.table);
    }

    if want("contention") {
        println!("running the mining⇄training contention sweep…");
        emit(
            "contention",
            &run_contention(data(), &[0.0, 0.25, 0.5, 0.75]).table,
        );
    }

    if want("poisoning") {
        println!("running the poisoning / non-repudiation study (peer A compromised)…");
        emit("poisoning", &run_poisoning(data()).table);
    }

    if want("asyncopt") {
        println!("running the asynchronous-optimum study (wait-k + aggregation size)…");
        let out = run_asyncopt(data());
        println!("{}", out.waitk_table);
        println!("{}", out.bestk_table);
        save("asyncopt_waitk", &out.waitk_table);
        save("asyncopt_bestk", &out.bestk_table);
    }

    // The seed sweep re-prepares data per seed, so it is not part of `all`;
    // request it explicitly.
    if id == "sweep" {
        let seeds: Vec<u64> = (0..5).map(|i| profile.seed + i).collect();
        println!("running the trade-off seed sweep over seeds {seeds:?}…");
        emit(
            "tradeoff_sweep",
            &run_tradeoff_sweep(&profile, &seeds).table,
        );
    }
}

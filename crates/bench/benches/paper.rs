//! End-to-end benches: one per paper artefact, at reduced (tiny) scale so the
//! suite finishes quickly. The full-scale regeneration is
//! `cargo run --release -p blockfed-bench --bin experiments -- all`.

use blockfed_bench::{
    decentralized_scenario, prepare, run_chainperf, run_contention, run_table1, run_tradeoff,
    vanilla_run, ModelSel, Profile,
};
use blockfed_fl::{Strategy, WaitPolicy};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_paper_artifacts(c: &mut Criterion) {
    let data = prepare(Profile::tiny());
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);

    // Table I / Figure 3 constituents.
    g.bench_function("table1_vanilla_consider_simple", |b| {
        b.iter(|| vanilla_run(&data, ModelSel::Simple, Strategy::Consider))
    });
    g.bench_function("table1_vanilla_notconsider_simple", |b| {
        b.iter(|| vanilla_run(&data, ModelSel::Simple, Strategy::NotConsider))
    });
    g.bench_function("table1_vanilla_consider_effnet", |b| {
        b.iter(|| vanilla_run(&data, ModelSel::EffNet, Strategy::Consider))
    });
    g.bench_function("fig3_table1_full", |b| b.iter(|| run_table1(&data)));

    // Tables II–IV / Figure 4 constituents.
    g.bench_function("tables234_decentralized_simple", |b| {
        let spec = decentralized_scenario(&data, ModelSel::Simple, WaitPolicy::All);
        b.iter(|| data.run(ModelSel::Simple, &spec))
    });
    g.bench_function("tables234_decentralized_effnet", |b| {
        let spec = decentralized_scenario(&data, ModelSel::EffNet, WaitPolicy::All);
        b.iter(|| data.run(ModelSel::EffNet, &spec))
    });

    // The wait-or-not trade-off.
    g.bench_function("tradeoff_wait1_simple", |b| {
        let spec = decentralized_scenario(&data, ModelSel::Simple, WaitPolicy::FirstK(1));
        b.iter(|| data.run(ModelSel::Simple, &spec))
    });
    g.bench_function("tradeoff_full", |b| b.iter(|| run_tradeoff(&data)));

    // Chain performance + contention.
    g.bench_function("chainperf_3_and_6_peers", |b| {
        b.iter(|| run_chainperf(&[3, 6], &[253_952], 2, 7))
    });
    g.bench_function("contention_sweep", |b| {
        b.iter(|| run_contention(&data, &[0.0, 0.5]))
    });
    g.finish();
}

criterion_group!(benches, bench_paper_artifacts);
criterion_main!(benches);

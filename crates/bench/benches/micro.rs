//! Microbenchmarks of the substrates: the kernels every experiment is built on.

use blockfed_chain::{GenesisSpec, Transaction};
use blockfed_crypto::{merkle_root, sha256::sha256, KeyPair, U256};
use blockfed_fl::{fed_avg, ClientId, ModelUpdate};
use blockfed_net::{LinkSpec, Network, NodeId, Topology};
use blockfed_tensor::{matmul, Tensor};
use blockfed_vm::BlockfedRuntime;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data_1k = vec![0xA5u8; 1024];
    g.bench_function("sha256_1KiB", |b| b.iter(|| sha256(black_box(&data_1k))));

    let leaves: Vec<_> = (0..256).map(|i: u32| sha256(&i.to_le_bytes())).collect();
    g.bench_function("merkle_root_256", |b| {
        b.iter(|| merkle_root(black_box(&leaves)))
    });

    let a =
        U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef").unwrap();
    let m = blockfed_crypto::secp::group_order();
    g.bench_function("u256_mul_mod", |b| {
        b.iter(|| black_box(a).mul_mod(black_box(a), m))
    });

    let key = KeyPair::generate(&mut StdRng::seed_from_u64(1));
    let msg = b"model update round 3";
    g.bench_function("schnorr_sign", |b| b.iter(|| key.sign(black_box(msg))));
    let sig = key.sign(msg);
    g.bench_function("schnorr_verify", |b| {
        b.iter(|| key.public().verify(black_box(msg), &sig).unwrap())
    });
    g.finish();
}

fn bench_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("chain");
    let key = KeyPair::generate(&mut StdRng::seed_from_u64(2));
    let spec = GenesisSpec::with_accounts(&[key.address()], u64::MAX / 4).with_difficulty(16);
    g.bench_function("block_build_and_import_10tx", |b| {
        b.iter(|| {
            let mut chain = blockfed_chain::Blockchain::new(&spec);
            let txs: Vec<Transaction> = (0..10)
                .map(|n| Transaction::transfer(key.address(), key.address(), 1, n).signed(&key))
                .collect();
            let block =
                chain.build_candidate(key.address(), txs, 1_000, &mut blockfed_chain::NullRuntime);
            chain
                .import(block, &mut blockfed_chain::NullRuntime)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    g.bench_function("registry_submit", |b| {
        use blockfed_chain::ContractRuntime;
        let mut rt = BlockfedRuntime::new();
        let mut state = blockfed_chain::State::new();
        let registry = blockfed_crypto::H160::from_bytes([0xEE; 20]);
        rt.install_fl_registry(&mut state, registry);
        let caller = blockfed_crypto::H160::from_bytes([1; 20]);
        let reg = blockfed_vm::RegistryCall::Register.encode();
        let ctx = blockfed_chain::CallContext {
            caller,
            contract: registry,
            calldata: reg,
            gas_budget: 10_000_000,
            block_number: 1,
            timestamp_ns: 0,
        };
        rt.execute(&ctx, b"native", &mut state);
        let mut round = 0u32;
        b.iter(|| {
            round += 1;
            let call = blockfed_vm::RegistryCall::SubmitModel {
                round,
                model_hash: sha256(&round.to_le_bytes()),
                payload_bytes: 253_952,
                sample_count: 100,
            };
            let ctx = blockfed_chain::CallContext {
                caller,
                contract: registry,
                calldata: call.encode(),
                gas_budget: 10_000_000,
                block_number: 1,
                timestamp_ns: 0,
            };
            rt.execute(&ctx, b"native", &mut state)
        })
    });
    g.finish();
}

fn bench_ml(c: &mut Criterion) {
    let mut g = c.benchmark_group("ml");
    let mut rng = StdRng::seed_from_u64(3);
    let a = Tensor::from_vec(
        (0..64 * 256).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        &[64, 256],
    );
    let b_m = Tensor::from_vec(
        (0..256 * 128).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        &[256, 128],
    );
    g.bench_function("matmul_64x256x128", |b| {
        b.iter(|| matmul(black_box(&a), black_box(&b_m)))
    });

    // FedAvg over three SimpleNN-sized updates (the paper's 62 K params).
    let updates: Vec<ModelUpdate> = (0..3)
        .map(|i| {
            let params: Vec<f32> = (0..61_890).map(|_| rng.gen_range(-0.5..0.5)).collect();
            ModelUpdate::new(ClientId(i), 1, params, 500)
        })
        .collect();
    let refs: Vec<&ModelUpdate> = updates.iter().collect();
    g.bench_function("fedavg_62k_x3", |b| {
        b.iter(|| fed_avg(black_box(&refs)).unwrap())
    });
    g.finish();
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    let network = Network::new(24, Topology::FullMesh, LinkSpec::lan());
    let mut rng = StdRng::seed_from_u64(4);
    g.bench_function("flood_24_peers_21MB", |b| {
        b.iter(|| network.flood(NodeId(0), 21_200_000, &mut rng))
    });
    // The flood-router pair the orchestrator's event loop rides on: the
    // allocating per-call API versus the reusable-scratch API it was
    // rebuilt over. Same RNG draws, same deliveries — the delta is exactly
    // the per-flood allocation churn (route maps, avoid sets, path vecs)
    // hoisted into `FloodScratch`.
    for n in [48usize, 128] {
        let wide = Network::new(n, Topology::FullMesh, LinkSpec::lan());
        g.bench_function(format!("flood_routes_alloc_n{n}"), |b| {
            b.iter(|| wide.flood_routes(NodeId(0), 10_000, &mut rng))
        });
        let mut scratch = blockfed_net::FloodScratch::new();
        g.bench_function(format!("flood_with_scratch_n{n}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                wide.flood_with(
                    NodeId(0),
                    10_000,
                    &mut rng,
                    &mut scratch,
                    |_, delay, path| {
                        acc = acc
                            .wrapping_add(delay.as_nanos())
                            .wrapping_add(path.len() as u64);
                    },
                );
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// Scalar-vs-parallel kernels: the perf trajectory of the compute backend.
///
/// `scalar` rows pin the compute layer to one worker; `parallel` rows use the
/// detected worker count.
/// The matmul shapes are the EffNet-lite layers the paper's heavy experiments
/// spend their time in (batch 32, backbone width 2270, 10 classes).
fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling");
    let mut rng = StdRng::seed_from_u64(5);
    let batch = 32usize;
    let width = 2270usize; // EffNetLiteConfig::paper().width
    let x = Tensor::from_vec(
        (0..batch * width)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
        &[batch, width],
    );
    let w_backbone = Tensor::from_vec(
        (0..width * width)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect(),
        &[width, width],
    );
    let w_head = Tensor::from_vec(
        (0..10 * width).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        &[10, width],
    );

    g.bench_function("matmul_bt_effnet_backbone_32x2270x2270_scalar", |b| {
        b.iter(|| {
            blockfed_tensor::matmul::reference::matmul_bt(black_box(&x), black_box(&w_backbone))
        })
    });
    g.bench_function("matmul_bt_effnet_backbone_32x2270x2270_parallel", |b| {
        b.iter(|| blockfed_tensor::matmul_bt(black_box(&x), black_box(&w_backbone)))
    });
    g.bench_function("matmul_bt_effnet_head_32x2270x10_scalar", |b| {
        b.iter(|| blockfed_tensor::matmul::reference::matmul_bt(black_box(&x), black_box(&w_head)))
    });
    g.bench_function("matmul_bt_effnet_head_32x2270x10_parallel", |b| {
        b.iter(|| blockfed_tensor::matmul_bt(black_box(&x), black_box(&w_head)))
    });

    // FedAvg over SimpleNN-sized updates: inline scalar loop vs the chunked
    // parallel kernel.
    let updates: Vec<ModelUpdate> = (0..8)
        .map(|i| {
            let params: Vec<f32> = (0..61_890).map(|_| rng.gen_range(-0.5..0.5)).collect();
            ModelUpdate::new(ClientId(i), 1, params, 100 + i)
        })
        .collect();
    let refs: Vec<&ModelUpdate> = updates.iter().collect();
    g.bench_function("fedavg_62k_x8_scalar", |b| {
        b.iter(|| {
            let dim = refs[0].params.len();
            let total: f64 = refs.iter().map(|u| u.sample_count as f64).sum();
            let mut out = vec![0.0f64; dim];
            for u in black_box(&refs) {
                let w = u.sample_count as f64 / total;
                for (o, &p) in out.iter_mut().zip(&u.params) {
                    *o += w * f64::from(p);
                }
            }
            out.into_iter().map(|v| v as f32).collect::<Vec<f32>>()
        })
    });
    g.bench_function("fedavg_62k_x8_parallel", |b| {
        b.iter(|| fed_avg(black_box(&refs)).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crypto,
    bench_chain,
    bench_vm,
    bench_ml,
    bench_net,
    bench_scaling
);
criterion_main!(benches);

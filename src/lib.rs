//! # blockfed
//!
//! A fully coupled **blockchain-based federated learning** system — an
//! open-source reproduction of *"Wait or Not to Wait: Evaluating Trade-Offs
//! between Speed and Precision in Blockchain-based Federated Aggregation"*
//! (ICDCS 2024).
//!
//! Every participant is simultaneously a trainer, an aggregator, and a
//! blockchain peer. Local models travel as signed transactions on a private
//! Ethereum-style proof-of-work chain; each peer customizes its own
//! aggregation by evaluating model *combinations* on its own test data, and
//! may aggregate *asynchronously* — without waiting for every peer — trading
//! a little precision for speed.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`compute`] | `blockfed-compute` | scoped-thread parallel compute layer (`BLOCKFED_THREADS`) |
//! | [`sim`] | `blockfed-sim` | deterministic discrete-event kernel |
//! | [`crypto`] | `blockfed-crypto` | SHA-256, secp256k1 Schnorr, merkle trees |
//! | [`chain`] | `blockfed-chain` | PoW blockchain (blocks, gas, mempool, forks) |
//! | [`vm`] | `blockfed-vm` | the native FL registry contract and its runtime |
//! | [`net`] | `blockfed-net` | p2p latency/bandwidth/loss simulation |
//! | [`tensor`] | `blockfed-tensor` | dense f32 tensor math |
//! | [`nn`] | `blockfed-nn` | layers, SGD, the SimpleNN / Efficient-B0 zoo |
//! | [`data`] | `blockfed-data` | SynthCifar + federated partitioning |
//! | [`fl`] | `blockfed-fl` | FedAvg, strategies (incl. best-k), wait policies, staleness decay, attacks |
//! | [`core`] | `blockfed-core` | the fully coupled decentralized system |
//! | [`scenario`] | `blockfed-scenario` | declarative N-peer scenarios: churn, partitions, parallel matrices |
//! | [`telemetry`] | `blockfed-telemetry` | deterministic spans/events, metric folding, trace exporters |
//! | [`report`] | `blockfed-report` | tables, CSV, terminal figures |
//!
//! # Quickstart
//!
//! ```
//! use blockfed::data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
//! use blockfed::fl::{Strategy, VanillaFl, VanillaFlConfig};
//! use blockfed::nn::SimpleNnConfig;
//! use rand::SeedableRng;
//!
//! // A tiny 3-client federated run.
//! let gen = SynthCifar::new(SynthCifarConfig::tiny());
//! let (train, test) = gen.generate(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let shards = partition_dataset(&train, 3, Partition::DirichletLabelSkew { alpha: 0.8 }, &mut rng);
//! let tests = vec![test.clone(), test.clone(), test.clone()];
//! let config = VanillaFlConfig { rounds: 2, local_epochs: 1, ..Default::default() };
//! let driver = VanillaFl::new(config, &shards, &tests, &test);
//! let nn = SimpleNnConfig::tiny(test.feature_dim(), test.num_classes());
//! let mut arch_rng = rand::rngs::StdRng::seed_from_u64(2);
//! let run = driver.run(&mut || nn.build(&mut arch_rng), &mut rng);
//! assert_eq!(run.records.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blockfed_chain as chain;
pub use blockfed_compute as compute;
pub use blockfed_core as core;
pub use blockfed_crypto as crypto;
pub use blockfed_data as data;
pub use blockfed_fl as fl;
pub use blockfed_net as net;
pub use blockfed_nn as nn;
pub use blockfed_report as report;
pub use blockfed_scenario as scenario;
pub use blockfed_sim as sim;
pub use blockfed_telemetry as telemetry;
pub use blockfed_tensor as tensor;
pub use blockfed_vm as vm;

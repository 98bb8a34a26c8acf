//! An Ethereum-style proof-of-work blockchain substrate, built from scratch for
//! the `blockfed` reproduction.
//!
//! The paper deploys its federated-learning system on a private Ethereum
//! network (Geth, PoW). This crate reproduces the pieces that experiment
//! actually exercises: signed transactions with gas accounting (including the
//! "transaction size exceeds the model size" payload metering), PoW
//! difficulty and its retargeting, mempools, full block validation with
//! re-execution, and total-difficulty fork choice with reorg support. The
//! mining race itself is simulated: [`pow::sample_mining_delay`] draws who
//! seals when, and import trusts the seal (see [`SealPolicy`]). Contract
//! execution is delegated through [`runtime::ContractRuntime`] so
//! `blockfed-vm` can plug in the native federated-learning registry.
//!
//! # Examples
//!
//! ```
//! use blockfed_chain::{Blockchain, GenesisSpec, NullRuntime, Transaction};
//! use blockfed_crypto::KeyPair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let key = KeyPair::generate(&mut rng);
//! let spec = GenesisSpec::with_accounts(&[key.address()], 1_000_000).with_difficulty(16);
//! let mut chain = Blockchain::new(&spec);
//! let tx = Transaction::transfer(key.address(), key.address(), 1, 0).signed(&key);
//! // An unmined candidate imports: the simulated race already picked its sealer.
//! let block = chain.build_candidate(key.address(), vec![tx], 1_000, &mut NullRuntime);
//! chain.import(block, &mut NullRuntime).unwrap();
//! assert_eq!(chain.height(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod executor;
pub mod gas;
pub mod genesis;
pub mod mempool;
pub mod pow;
pub mod receipt;
pub mod retarget;
pub mod runtime;
pub mod state;
pub mod store;
pub mod tx;

pub use block::{Block, Header};
pub use chain::{Blockchain, ImportError, ImportOutcome, SealPolicy};
pub use executor::{
    execute_block_txs, execute_block_txs_with, execute_tx, execute_tx_with, BlockEnv,
    ExecutionResult,
};
pub use genesis::GenesisSpec;
pub use mempool::{Mempool, MempoolError};
pub use receipt::{ExecStatus, LogEntry, Receipt};
pub use retarget::{simulate_cadence, DifficultyController, RetargetRule};
pub use runtime::{CallContext, ContractRuntime, ExecOutcome, NullRuntime};
pub use state::{Account, State, StateError};
pub use store::{ChainStore, SigCache, StoreCounters, StoreLimits};
pub use tx::{contract_address, Transaction, TxError};

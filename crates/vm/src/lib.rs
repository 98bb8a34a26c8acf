//! Smart-contract execution for `blockfed`: the native federated-learning
//! registry contract.
//!
//! The paper implements its asynchronous aggregation as a Solidity contract on
//! private Ethereum. Here [`registry`] provides the same observable behaviour
//! as a native contract (register, submit model fingerprints per round, record
//! chosen aggregates) behind the chain's `ContractRuntime` interface, and
//! [`mask`] encodes which participants entered an aggregate.
//!
//! [`BlockfedRuntime`] is the dispatcher the chain executes blocks with: it
//! runs the registry at the addresses it was installed at and reverts a call
//! to any other code.
//!
//! # Examples
//!
//! ```
//! use blockfed_vm::{parse_u64, BlockfedRuntime, RegistryCall, NATIVE_REGISTRY_CODE};
//! use blockfed_chain::{CallContext, ContractRuntime, State};
//! use blockfed_crypto::H160;
//!
//! let mut rt = BlockfedRuntime::new();
//! let mut state = State::new();
//! let registry = H160::from_bytes([0xEE; 20]);
//! rt.install_fl_registry(&mut state, registry);
//! let ctx = CallContext {
//!     caller: H160::zero(),
//!     contract: registry,
//!     calldata: RegistryCall::Register.encode(),
//!     gas_budget: 100_000,
//!     block_number: 0,
//!     timestamp_ns: 0,
//! };
//! let out = rt.execute(&ctx, NATIVE_REGISTRY_CODE, &mut state);
//! assert!(out.success);
//! assert_eq!(parse_u64(&out.output), Some(0)); // the first participant's index
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mask;
pub mod registry;
pub mod runtime;

pub use mask::{ComboMask, MASK_STORAGE_WORDS, MAX_MASK_BITS, MAX_MASK_BYTES};
pub use registry::{parse_aggregate, parse_submission, parse_u64, RegistryCall};
pub use runtime::{BlockfedRuntime, NativeContract, NATIVE_REGISTRY_CODE};

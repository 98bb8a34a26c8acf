//! The contract-execution interface the chain delegates to.
//!
//! The chain crate stays VM-agnostic: block execution calls into a
//! [`ContractRuntime`], and `blockfed-vm` supplies the real implementation
//! (the native FL registry).

use blockfed_crypto::H160;

use crate::receipt::LogEntry;
use crate::state::State;

/// Everything a contract invocation can see about its environment.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// The externally owned account that signed the transaction.
    pub caller: H160,
    /// The contract being executed.
    pub contract: H160,
    /// Input data.
    pub calldata: Vec<u8>,
    /// Gas available for execution (after intrinsic costs).
    pub gas_budget: u64,
    /// Height of the block being built/validated.
    pub block_number: u64,
    /// Block timestamp (simulation nanoseconds).
    pub timestamp_ns: u64,
}

/// The result of a contract invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Whether the call succeeded (state changes keep) or reverted.
    pub success: bool,
    /// Gas consumed by execution (≤ the budget).
    pub gas_used: u64,
    /// Return data.
    pub output: Vec<u8>,
    /// Emitted event logs.
    pub logs: Vec<LogEntry>,
}

impl ExecOutcome {
    /// A successful, empty outcome.
    pub fn ok() -> Self {
        ExecOutcome {
            success: true,
            gas_used: 0,
            output: Vec::new(),
            logs: Vec::new(),
        }
    }

    /// A reverted outcome consuming `gas_used`.
    pub fn reverted(gas_used: u64) -> Self {
        ExecOutcome {
            success: false,
            gas_used,
            output: Vec::new(),
            logs: Vec::new(),
        }
    }
}

/// Executes contract code against the world state.
pub trait ContractRuntime {
    /// Runs `code` (the target account's stored code) under `ctx`.
    ///
    /// Implementations mutate `state` freely; the block executor snapshots the
    /// state beforehand and rolls back if `success` is false.
    fn execute(&mut self, ctx: &CallContext, code: &[u8], state: &mut State) -> ExecOutcome;

    /// A stable fingerprint of this runtime's *execution semantics*, used to
    /// key the block-execution memo in the run-scoped
    /// [`crate::ChainStore`]: a validated block's result is reused only
    /// between runtimes reporting the same fingerprint (and only by chains
    /// sharing the store handle). Two runtimes with equal fingerprints MUST
    /// execute every
    /// `(context, code, state)` identically — so a runtime whose behaviour
    /// depends on instance configuration (e.g. which native contracts are
    /// registered) must fold that configuration in.
    fn execution_fingerprint(&self) -> u64;
}

/// A runtime that treats every contract call as a successful no-op — useful
/// for chains that only move value (and for tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRuntime;

impl ContractRuntime for NullRuntime {
    fn execute(&mut self, _ctx: &CallContext, _code: &[u8], _state: &mut State) -> ExecOutcome {
        ExecOutcome::ok()
    }

    fn execution_fingerprint(&self) -> u64 {
        0 // the no-op semantics: one shared bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_runtime_is_a_noop() {
        let mut rt = NullRuntime;
        let mut state = State::new();
        let before = state.root();
        let ctx = CallContext {
            caller: H160::zero(),
            contract: H160::zero(),
            calldata: vec![1, 2, 3],
            gas_budget: 100,
            block_number: 1,
            timestamp_ns: 0,
        };
        let out = rt.execute(&ctx, &[0xFF], &mut state);
        assert!(out.success);
        assert_eq!(out.gas_used, 0);
        assert_eq!(state.root(), before);
    }

    #[test]
    fn outcome_constructors() {
        assert!(ExecOutcome::ok().success);
        let r = ExecOutcome::reverted(42);
        assert!(!r.success);
        assert_eq!(r.gas_used, 42);
    }
}

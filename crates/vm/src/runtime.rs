//! The contract runtime wired into the chain: native contracts (the FL
//! registry) at registered addresses; a call to any other code reverts.

use std::collections::HashMap;

use blockfed_chain::{CallContext, ContractRuntime, ExecOutcome, State};
use blockfed_crypto::H160;

use crate::registry::execute_registry;

/// Marker installed as "code" at native contract addresses so the chain
/// executor recognizes the account as a contract.
pub const NATIVE_REGISTRY_CODE: &[u8] = b"native:blockfed-fl-registry";

/// The production runtime: dispatches to natives and reverts any other call.
#[derive(Debug, Default)]
pub struct BlockfedRuntime {
    natives: HashMap<H160, NativeContract>,
}

/// Kinds of built-in native contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeContract {
    /// The federated-learning registry.
    FlRegistry,
}

impl BlockfedRuntime {
    /// A runtime with no natives (every contract call reverts).
    pub fn new() -> Self {
        BlockfedRuntime::default()
    }

    /// Registers a native contract at an address.
    pub fn register_native(&mut self, addr: H160, contract: NativeContract) {
        self.natives.insert(addr, contract);
    }

    /// Installs the FL registry: marker code in the state (so the executor
    /// treats the account as a contract) and a native dispatch entry here.
    pub fn install_fl_registry(&mut self, state: &mut State, addr: H160) {
        state.set_code(addr, NATIVE_REGISTRY_CODE.to_vec());
        self.register_native(addr, NativeContract::FlRegistry);
    }

    /// Whether an address hosts a native contract.
    pub fn is_native(&self, addr: &H160) -> bool {
        self.natives.contains_key(addr)
    }
}

impl ContractRuntime for BlockfedRuntime {
    fn execute(&mut self, ctx: &CallContext, _code: &[u8], state: &mut State) -> ExecOutcome {
        match self.natives.get(&ctx.contract) {
            Some(NativeContract::FlRegistry) => execute_registry(ctx, state),
            // Non-native code is invalid code: EVM semantics revert the call
            // and consume the whole budget.
            None => ExecOutcome::reverted(ctx.gas_budget),
        }
    }

    fn execution_fingerprint(&self) -> u64 {
        // The registered native set: two instances execute identically iff
        // they dispatch the same natives at the same addresses, so fold each
        // (address, kind) pair in order-independently.
        let mut acc: u64 = 0xB10C_FEED_0000_0001;
        for (addr, native) in &self.natives {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
            for b in addr.as_bytes() {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            let kind = match native {
                NativeContract::FlRegistry => 1u64,
            };
            acc ^= h.wrapping_mul(kind.wrapping_add(0x9E37_79B9_7F4A_7C15));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{parse_u64, RegistryCall};

    fn addr(n: u8) -> H160 {
        let mut b = [0u8; 20];
        b[0] = n;
        H160::from_bytes(b)
    }

    fn ctx(caller: H160, contract: H160, calldata: Vec<u8>) -> CallContext {
        CallContext {
            caller,
            contract,
            calldata,
            gas_budget: 1_000_000,
            block_number: 1,
            timestamp_ns: 0,
        }
    }

    #[test]
    fn dispatches_native_registry() {
        let mut rt = BlockfedRuntime::new();
        let mut state = State::new();
        let registry = addr(0xEE);
        rt.install_fl_registry(&mut state, registry);
        assert!(rt.is_native(&registry));
        assert_eq!(state.code(&registry), NATIVE_REGISTRY_CODE.to_vec());

        let out = rt.execute(
            &ctx(addr(1), registry, RegistryCall::Register.encode()),
            NATIVE_REGISTRY_CODE,
            &mut state,
        );
        assert!(out.success);
        assert_eq!(parse_u64(&out.output), Some(0));
    }

    #[test]
    fn non_native_code_reverts_within_budget() {
        let mut rt = BlockfedRuntime::new();
        let mut state = State::new();
        state.credit(addr(2), 5);
        let before = state.root();
        let call = ctx(addr(1), addr(0xCD), vec![]);
        let out = rt.execute(&call, &[0x60, 0x01, 0x00], &mut state);
        assert!(!out.success);
        assert_eq!(out.gas_used, call.gas_budget);
        assert_eq!(state.root(), before);
    }

    #[test]
    fn native_address_shadows_bytecode() {
        let mut rt = BlockfedRuntime::new();
        let mut state = State::new();
        let registry = addr(0xEE);
        rt.install_fl_registry(&mut state, registry);
        // Even if someone hands us bytecode for this address, the native wins.
        let bytecode = [0x01, 0x01, 0x01, 0x01];
        let out = rt.execute(
            &ctx(addr(1), registry, RegistryCall::ParticipantCount.encode()),
            &bytecode,
            &mut state,
        );
        assert!(out.success);
        assert_eq!(parse_u64(&out.output), Some(0));
    }
}

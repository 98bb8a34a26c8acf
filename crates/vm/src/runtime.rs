//! The contract runtime wired into the chain: MiniVM bytecode by default,
//! native contracts (the FL registry) at registered addresses.

use std::collections::HashMap;

use blockfed_chain::{CallContext, ContractRuntime, ExecOutcome, State};
use blockfed_crypto::H160;

use crate::interp;
use crate::registry::execute_registry;

/// Marker installed as "code" at native contract addresses so the chain
/// executor recognizes the account as a contract.
pub const NATIVE_REGISTRY_CODE: &[u8] = b"native:blockfed-fl-registry";

/// The production runtime: dispatches to natives, falls back to MiniVM.
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
    /// A runtime with no natives (pure MiniVM).
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
    fn execute(&mut self, ctx: &CallContext, code: &[u8], state: &mut State) -> ExecOutcome {
        match self.natives.get(&ctx.contract) {
            Some(NativeContract::FlRegistry) => execute_registry(ctx, state),
            None => interp::run(ctx, code, state),
        }
    }

    fn execution_fingerprint(&self) -> u64 {
        // MiniVM semantics plus the registered native set: two instances
        // execute identically iff they dispatch the same natives at the same
        // addresses, so fold each (address, kind) pair in order-independently.
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
    use crate::asm::assemble;
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
    fn falls_back_to_minivm_for_plain_contracts() {
        let mut rt = BlockfedRuntime::new();
        let mut state = State::new();
        let contract = addr(0xCD);
        let code = assemble("PUSH8 40\nPUSH8 2\nADD\nPUSH8 1\nRETURN").unwrap();
        let out = rt.execute(&ctx(addr(1), contract, vec![]), &code, &mut state);
        assert!(out.success);
        assert_eq!(out.output[31], 42);
    }

    /// The same "counter" behaviour implemented (a) as MiniVM bytecode and
    /// (b) directly against storage must agree — the check that bytecode and
    /// native contracts share one storage semantics.
    #[test]
    fn minivm_counter_matches_native_semantics() {
        // Counter: slot 0 += calldata[0..32] (as a word); returns new value.
        let src = "\
PUSH8 0
SLOAD
PUSH8 0
CALLDATALOAD
ADD
DUP1
PUSH8 0
SSTORE
PUSH8 1
RETURN";
        let code = assemble(src).unwrap();
        let mut rt = BlockfedRuntime::new();
        let mut vm_state = State::new();
        let contract = addr(0x77);

        let mut native_counter: u64 = 0;
        for add in [5u64, 10, 1] {
            let mut calldata = vec![0u8; 32];
            calldata[24..].copy_from_slice(&add.to_be_bytes());
            let out = rt.execute(&ctx(addr(1), contract, calldata), &code, &mut vm_state);
            assert!(out.success);
            native_counter += add; // the "native" implementation
            let mut expect = [0u8; 32];
            expect[24..].copy_from_slice(&native_counter.to_be_bytes());
            assert_eq!(out.output, expect.to_vec(), "after adding {add}");
        }
    }

    #[test]
    fn native_address_shadows_bytecode() {
        let mut rt = BlockfedRuntime::new();
        let mut state = State::new();
        let registry = addr(0xEE);
        rt.install_fl_registry(&mut state, registry);
        // Even if someone hands us bytecode for this address, the native wins.
        let bytecode = assemble("PUSH8 1\nPUSH8 1\nRETURN").unwrap();
        let out = rt.execute(
            &ctx(addr(1), registry, RegistryCall::ParticipantCount.encode()),
            &bytecode,
            &mut state,
        );
        assert!(out.success);
        assert_eq!(parse_u64(&out.output), Some(0));
    }
}

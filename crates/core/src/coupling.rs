//! The blockchain⇄FL coupling: turning model updates into signed registry
//! transactions and reading confirmed updates back off a peer's chain.

use blockfed_chain::{Block, Blockchain, CallContext, Receipt, Transaction};
use blockfed_crypto::sha256::sha256;
use blockfed_crypto::{KeyPair, H160, H256};
use blockfed_fl::ModelUpdate;
use blockfed_nn::serialize::encode_params;
use blockfed_vm::{parse_aggregate, ComboMask, RegistryCall};

/// Fingerprint of a model update: the hash of its serialized parameters.
pub fn model_fingerprint(update: &ModelUpdate) -> H256 {
    sha256(&encode_params(&update.params))
}

/// Builds the signed `submit_model` transaction for an update.
///
/// The transaction's declared `payload_bytes` is the update's full artifact
/// size (21.2 MB for the complex model), so gas and bandwidth behave as in the
/// paper's "transaction size exceeds the model's size" configuration.
pub fn submit_model_tx(
    update: &ModelUpdate,
    registry: H160,
    key: &KeyPair,
    nonce: u64,
) -> Transaction {
    let call = RegistryCall::SubmitModel {
        round: update.round,
        model_hash: model_fingerprint(update),
        payload_bytes: update.payload_bytes,
        sample_count: update.sample_count as u64,
    };
    Transaction::call(key.address(), registry, call.encode(), nonce)
        .with_payload_bytes(update.payload_bytes)
        .with_gas_limit(100_000_000)
        .signed(key)
}

/// Builds the signed `register` transaction.
pub fn register_tx(registry: H160, key: &KeyPair, nonce: u64) -> Transaction {
    Transaction::call(
        key.address(),
        registry,
        RegistryCall::Register.encode(),
        nonce,
    )
    .signed(key)
}

/// Builds the signed `record_aggregate` transaction. The mask is the
/// variable-width member bitset, so populations past 32 peers record their
/// full combination on chain.
pub fn record_aggregate_tx(
    round: u32,
    combo_mask: ComboMask,
    agg_hash: H256,
    registry: H160,
    key: &KeyPair,
    nonce: u64,
) -> Transaction {
    let call = RegistryCall::RecordAggregate {
        round,
        combo_mask,
        agg_hash,
    };
    Transaction::call(key.address(), registry, call.encode(), nonce).signed(key)
}

/// A model submission confirmed on a peer's canonical chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmedSubmission {
    /// The submitting account.
    pub sender: H160,
    /// Communication round.
    pub round: u32,
    /// Model fingerprint anchored on chain.
    pub model_hash: H256,
    /// Declared artifact size.
    pub payload_bytes: u64,
    /// FedAvg weight.
    pub sample_count: u64,
    /// Hash of the carrying transaction (evidence pointer).
    pub tx_hash: H256,
    /// Hash of the including block.
    pub block_hash: H256,
}

/// Scans a peer's canonical chain for successfully executed `submit_model`
/// calls to `registry` in the given round, in chain order.
///
/// This is the public audit path and the test oracle: it decodes every
/// canonical block's calldata on each call. A running simulation reads the
/// same answer off the run's block log, which decoded each sealed block once.
pub fn confirmed_submissions(
    chain: &Blockchain,
    registry: H160,
    round: u32,
) -> Vec<ConfirmedSubmission> {
    submissions_in(chain, registry, round, |_| None)
}

/// [`confirmed_submissions`] over calls that `decoded` may already hold (see
/// [`for_each_registry_call`]).
pub(crate) fn submissions_in<'a>(
    chain: &Blockchain,
    registry: H160,
    round: u32,
    decoded: impl Fn(&H256) -> Option<&'a [RegistryEntry]>,
) -> Vec<ConfirmedSubmission> {
    let mut out = Vec::new();
    for_each_registry_call(chain, registry, decoded, |block_hash, e| match e.call {
        RegistryCall::SubmitModel {
            round: r,
            model_hash,
            payload_bytes,
            sample_count,
        } if r == round => out.push(ConfirmedSubmission {
            sender: e.sender,
            round,
            model_hash,
            payload_bytes,
            sample_count,
            tx_hash: e.tx_hash,
            block_hash,
        }),
        _ => {}
    });
    out
}

/// One successfully executed call to the registry, decoded from its
/// transaction's calldata.
#[derive(Debug)]
pub(crate) struct RegistryEntry {
    /// The calling account.
    pub sender: H160,
    /// Hash of the carrying transaction, as its receipt recorded it.
    pub tx_hash: H256,
    /// The decoded call.
    pub call: RegistryCall,
}

/// Decodes `block`'s successfully executed calls to `registry`, in block
/// order, given the block's `receipts` (none for a block never executed).
/// The only decoder of registry calldata on the read side: the run's block
/// log calls it once per sealed block, the chain scans below once per block
/// per scan.
pub(crate) fn registry_calls(
    block: &Block,
    receipts: &[Receipt],
    registry: H160,
) -> Vec<RegistryEntry> {
    block
        .transactions
        .iter()
        .zip(receipts)
        .filter(|(tx, receipt)| tx.to == Some(registry) && receipt.is_success())
        .filter_map(|(tx, receipt)| {
            Some(RegistryEntry {
                sender: tx.from,
                tx_hash: receipt.tx_hash,
                call: RegistryCall::decode(&tx.data)?,
            })
        })
        .collect()
}

/// Visits every successfully executed call to `registry` on `chain`'s
/// canonical chain, in chain order, with the hash of its block. `decoded`
/// returns a block's calls when they were decoded already; any other block
/// goes through [`registry_calls`] here.
pub(crate) fn for_each_registry_call<'a>(
    chain: &Blockchain,
    registry: H160,
    decoded: impl Fn(&H256) -> Option<&'a [RegistryEntry]>,
    mut visit: impl FnMut(H256, &RegistryEntry),
) {
    for block_hash in chain.canonical_chain() {
        let fresh;
        let calls = match decoded(&block_hash) {
            Some(calls) => calls,
            None => {
                let block = chain.block(&block_hash).expect("canonical block exists");
                let receipts = chain.receipts(&block_hash).unwrap_or_default();
                fresh = registry_calls(block, receipts, registry);
                &fresh[..]
            }
        };
        for entry in calls {
            visit(block_hash, entry);
        }
    }
}

/// A `record_aggregate` call confirmed on a peer's canonical chain, decoded
/// from calldata only — the light form the tier-2 committee merge polls on
/// every block arrival (see [`confirmed_aggregate_records`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateRecord {
    /// The peer that recorded the aggregate.
    pub sender: H160,
    /// Communication round.
    pub round: u32,
    /// The member bitset the record committed to.
    pub combo_mask: ComboMask,
    /// Fingerprint of the aggregated model.
    pub agg_hash: H256,
}

/// Scans a peer's canonical chain for successfully executed
/// `record_aggregate` calls to `registry` in the given round, decoding
/// calldata without any storage readback.
///
/// Unlike [`confirmed_aggregates`], this wants receipts + calldata only and
/// sees *every* confirmed record, including re-recorded rounds: it is what
/// the tier-2 merge's readiness check computes. Like
/// [`confirmed_submissions`] it is the public path and the test oracle; the
/// merge itself reads the run's block log, which decoded each sealed block
/// once.
pub fn confirmed_aggregate_records(
    chain: &Blockchain,
    registry: H160,
    round: u32,
) -> Vec<AggregateRecord> {
    aggregate_records_in(chain, registry, round, |_| None)
}

/// [`confirmed_aggregate_records`] over calls that `decoded` may already
/// hold (see [`for_each_registry_call`]).
pub(crate) fn aggregate_records_in<'a>(
    chain: &Blockchain,
    registry: H160,
    round: u32,
    decoded: impl Fn(&H256) -> Option<&'a [RegistryEntry]>,
) -> Vec<AggregateRecord> {
    let mut out = Vec::new();
    for_each_registry_call(chain, registry, decoded, |_, e| match &e.call {
        RegistryCall::RecordAggregate {
            round: r,
            combo_mask,
            agg_hash,
        } if *r == round => out.push(AggregateRecord {
            sender: e.sender,
            round,
            combo_mask: combo_mask.clone(),
            agg_hash: *agg_hash,
        }),
        _ => {}
    });
    out
}

/// An aggregate decision confirmed on a peer's canonical chain, read back
/// through the registry's `get_aggregate` ABI — i.e. out of the contract's
/// packed mask storage, not merely re-decoded from transaction calldata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmedAggregate {
    /// The peer that recorded the aggregate.
    pub aggregator: H160,
    /// Communication round.
    pub round: u32,
    /// The member bitset the aggregator committed to.
    pub combo_mask: ComboMask,
    /// Fingerprint of the aggregated model.
    pub agg_hash: H256,
    /// Hash of the carrying transaction.
    pub tx_hash: H256,
    /// Hash of the including block.
    pub block_hash: H256,
}

/// Scans a peer's canonical chain for successfully executed
/// `record_aggregate` calls to `registry` and reads each one back through
/// the executed `get_aggregate` path against the chain's final state — so a
/// returned entry proves the storage-packed mask decodes to the member set
/// that was submitted. The registry lets an aggregator re-record a round
/// (latest write wins in storage); a superseded transaction's readback no
/// longer matches its calldata and is skipped, so every returned entry's
/// mask is both what its transaction said and what storage still holds.
pub fn confirmed_aggregates(chain: &Blockchain, registry: H160) -> Vec<ConfirmedAggregate> {
    let mut out = Vec::new();
    let mut state = chain.state().clone();
    let head_number = chain.head_block().number();
    for_each_registry_call(
        chain,
        registry,
        |_| None,
        |block_hash, e| {
            let RegistryCall::RecordAggregate {
                round,
                combo_mask: ref submitted_mask,
                agg_hash: submitted_hash,
            } = e.call
            else {
                return;
            };
            let read = RegistryCall::GetAggregate {
                round,
                aggregator: e.sender,
            };
            let ctx = CallContext {
                caller: e.sender,
                contract: registry,
                calldata: read.encode(),
                gas_budget: 1_000_000,
                block_number: head_number,
                timestamp_ns: 0,
            };
            let got = blockfed_vm::registry::execute_registry(&ctx, &mut state);
            // A mismatch means a later re-record for this round superseded it.
            match parse_aggregate(&got.output).filter(|_| got.success) {
                Some((agg_hash, combo_mask))
                    if agg_hash == submitted_hash && combo_mask == *submitted_mask =>
                {
                    out.push(ConfirmedAggregate {
                        aggregator: e.sender,
                        round,
                        combo_mask,
                        agg_hash,
                        tx_hash: e.tx_hash,
                        block_hash,
                    });
                }
                _ => {}
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockfed_chain::GenesisSpec;
    use blockfed_fl::ClientId;
    use blockfed_vm::BlockfedRuntime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(seed))
    }

    fn registry_addr() -> H160 {
        let mut b = [0u8; 20];
        b[0] = 0xEE;
        H160::from_bytes(b)
    }

    fn update(client: usize, round: u32) -> ModelUpdate {
        ModelUpdate::new(ClientId(client), round, vec![0.5, -0.5, 1.0], 100)
            .with_payload_bytes(253_952)
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = update(0, 1);
        let mut b = update(0, 1);
        assert_eq!(model_fingerprint(&a), model_fingerprint(&b));
        b.params[0] += 0.1;
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }

    #[test]
    fn txs_are_signed_and_payload_stamped() {
        let k = key(1);
        let tx = submit_model_tx(&update(0, 3), registry_addr(), &k, 1);
        assert!(tx.verify_signature().is_ok());
        assert_eq!(tx.payload_bytes, 253_952);
        assert_eq!(tx.nonce, 1);
        let reg = register_tx(registry_addr(), &k, 0);
        assert!(reg.verify_signature().is_ok());
        let agg = record_aggregate_tx(
            3,
            ComboMask::from_u32(0b111),
            sha256(b"agg"),
            registry_addr(),
            &k,
            2,
        );
        assert!(agg.verify_signature().is_ok());
    }

    #[test]
    fn wide_aggregates_confirm_through_storage_readback() {
        // A mask spanning bit 40 — impossible under the old u32 ABI — must
        // survive tx → block → contract storage → get_aggregate readback.
        let k = key(5);
        let registry = registry_addr();
        let spec = GenesisSpec::with_accounts(&[k.address()], u64::MAX / 4)
            .with_code(registry, blockfed_vm::NATIVE_REGISTRY_CODE.to_vec());
        let mut chain = Blockchain::new(&spec);
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry, blockfed_vm::NativeContract::FlRegistry);

        let mask = ComboMask::from_members([0, 2, 33, 40]);
        let txs = vec![
            register_tx(registry, &k, 0),
            record_aggregate_tx(1, mask.clone(), sha256(b"agg"), registry, &k, 1),
        ];
        let block = chain.build_candidate(k.address(), txs, 1_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();

        let confirmed = confirmed_aggregates(&chain, registry);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].aggregator, k.address());
        assert_eq!(confirmed[0].round, 1);
        assert_eq!(confirmed[0].combo_mask, mask);
        assert_eq!(confirmed[0].agg_hash, sha256(b"agg"));

        // Re-record the same round with a different mask: storage now holds
        // the new mask, so the superseded transaction must be skipped rather
        // than misattributed the latest member set.
        let second = ComboMask::from_members([1, 2]);
        let tx = record_aggregate_tx(1, second.clone(), sha256(b"agg2"), registry, &k, 2);
        let block = chain.build_candidate(k.address(), vec![tx], 2_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();
        let confirmed = confirmed_aggregates(&chain, registry);
        assert_eq!(confirmed.len(), 1, "{confirmed:?}");
        assert_eq!(confirmed[0].combo_mask, second);
        assert_eq!(confirmed[0].agg_hash, sha256(b"agg2"));
    }

    #[test]
    fn light_record_scan_sees_every_confirmed_record() {
        let k = key(7);
        let registry = registry_addr();
        let spec = GenesisSpec::with_accounts(&[k.address()], u64::MAX / 4)
            .with_code(registry, blockfed_vm::NATIVE_REGISTRY_CODE.to_vec());
        let mut chain = Blockchain::new(&spec);
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry, blockfed_vm::NativeContract::FlRegistry);

        let mask = ComboMask::from_members([0, 300]);
        let txs = vec![
            register_tx(registry, &k, 0),
            record_aggregate_tx(2, mask.clone(), sha256(b"c0"), registry, &k, 1),
            record_aggregate_tx(3, mask.clone(), sha256(b"other-round"), registry, &k, 2),
        ];
        let block = chain.build_candidate(k.address(), txs, 1_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();

        let recs = confirmed_aggregate_records(&chain, registry, 2);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].sender, k.address());
        assert_eq!(recs[0].round, 2);
        assert_eq!(recs[0].combo_mask, mask);
        assert_eq!(recs[0].agg_hash, sha256(b"c0"));
        // Unlike the readback audit, a re-record keeps *both* entries: the
        // merge wants every confirmed record for the round, superseded or
        // not, so a tier-1 record overwritten in storage stays visible.
        let tx = record_aggregate_tx(2, mask.clone(), sha256(b"c0-again"), registry, &k, 3);
        let block = chain.build_candidate(k.address(), vec![tx], 2_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();
        assert_eq!(confirmed_aggregate_records(&chain, registry, 2).len(), 2);
    }

    #[test]
    fn end_to_end_submission_confirmation() {
        let peers: Vec<KeyPair> = (1..=3).map(key).collect();
        let addrs: Vec<H160> = peers.iter().map(KeyPair::address).collect();
        let registry = registry_addr();
        let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_code(registry, blockfed_vm::NATIVE_REGISTRY_CODE.to_vec());
        let mut chain = Blockchain::new(&spec);
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry, blockfed_vm::NativeContract::FlRegistry);

        // Block 1: everyone registers. Block 2: two submissions for round 1.
        let mut txs = Vec::new();
        for k in &peers {
            txs.push(register_tx(registry, k, 0));
        }
        let block1 = chain.build_candidate(addrs[0], txs, 1_000, &mut runtime);
        chain.import(block1, &mut runtime).unwrap();

        let u0 = update(0, 1);
        let u1 = update(1, 1);
        let txs = vec![
            submit_model_tx(&u0, registry, &peers[0], 1),
            submit_model_tx(&u1, registry, &peers[1], 1),
        ];
        let block2 = chain.build_candidate(addrs[1], txs, 2_000, &mut runtime);
        chain.import(block2, &mut runtime).unwrap();

        let confirmed = confirmed_submissions(&chain, registry, 1);
        assert_eq!(confirmed.len(), 2);
        assert_eq!(confirmed[0].sender, addrs[0]);
        assert_eq!(confirmed[0].model_hash, model_fingerprint(&u0));
        assert_eq!(confirmed[0].sample_count, 100);
        assert_eq!(confirmed[1].sender, addrs[1]);
        // No submissions confirmed for other rounds.
        assert!(confirmed_submissions(&chain, registry, 2).is_empty());
    }

    #[test]
    fn failed_submissions_are_not_confirmed() {
        let k = key(9);
        let registry = registry_addr();
        let spec = GenesisSpec::with_accounts(&[k.address()], u64::MAX / 4)
            .with_code(registry, blockfed_vm::NATIVE_REGISTRY_CODE.to_vec());
        let mut chain = Blockchain::new(&spec);
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry, blockfed_vm::NativeContract::FlRegistry);

        // Submission without registration reverts; it must not count.
        let tx = submit_model_tx(&update(0, 1), registry, &k, 0);
        let block = chain.build_candidate(k.address(), vec![tx], 1_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();
        assert!(confirmed_submissions(&chain, registry, 1).is_empty());
    }
}

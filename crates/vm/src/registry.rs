//! The federated-learning registry contract — the system's on-chain heart.
//!
//! This is the Rust-native equivalent of the paper's Solidity aggregation
//! contract: participants register, publish local model fingerprints per
//! communication round, and record which combination they aggregated. The
//! chain's ordering plus the transaction signatures give the paper's Case 3
//! (non-repudiation): nobody can later deny having published a model.
//!
//! ## ABI
//!
//! Calldata is `[method: u8][little-endian args…]`:
//!
//! | method | name | args | returns |
//! |---|---|---|---|
//! | 0 | `register` | — | participant index (u64 LE) |
//! | 1 | `submit_model` | round u32, model_hash 32B, payload_bytes u64, sample_count u64 | submission index (u64 LE) |
//! | 2 | `round_count` | round u32 | count (u64 LE) |
//! | 3 | `get_submission` | round u32, index u64 | sender 20B ‖ model_hash 32B ‖ payload u64 ‖ samples u64 |
//! | 4 | `record_aggregate` | round u32, mask_len u8, mask bytes (LE bitset, ≤ 128B), agg_hash 32B | — |
//! | 5 | `participant_count` | — | count (u64 LE) |
//! | 6 | `get_aggregate` | round u32, aggregator 20B | agg_hash 32B ‖ mask_len u8 ‖ mask bytes |
//!
//! The combination mask is a variable-width [`ComboMask`]: a length-prefixed
//! little-endian bitset over participant indices (up to
//! [`crate::mask::MAX_MASK_BITS`] participants). Storage packs it across
//! 64-bit words (`.mask.len` plus `.mask.w0..w3`), and the
//! `AggregateRecorded` event carries the full length-prefixed mask in its
//! data, so log consumers hash and verify the complete member set rather
//! than a 32-bit truncation.
//!
//! Reverts on malformed calldata (including non-canonical mask encodings),
//! double registration, submissions from unregistered accounts, and
//! duplicate per-round submissions.

use blockfed_chain::{CallContext, ExecOutcome, LogEntry, State};
use blockfed_crypto::sha256::{sha256, Sha256};
use blockfed_crypto::{H160, H256};

use crate::mask::{ComboMask, MASK_STORAGE_WORDS};

/// Gas charged per registry operation (flat; the dominant cost is the
/// transaction's payload gas, as configured in the paper).
pub const REGISTRY_OP_GAS: u64 = 30_000;

/// Event topic for model submissions.
pub fn topic_model_submitted() -> H256 {
    sha256(b"ModelSubmitted(round,sender,hash)")
}

/// Event topic for recorded aggregates. The signature names the
/// variable-width mask encoding, so consumers of the old fixed-width
/// `u32` topic can never mistake a truncated mask for the full member set.
pub fn topic_aggregate_recorded() -> H256 {
    sha256(b"AggregateRecorded(round,sender,mask_len,mask_bytes)")
}

/// Event topic for registrations.
pub fn topic_registered() -> H256 {
    sha256(b"Registered(sender)")
}

/// Methods of the registry, with their calldata encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryCall {
    /// Register the caller as a participant.
    Register,
    /// Publish a local model for a round.
    SubmitModel {
        /// Communication round.
        round: u32,
        /// Fingerprint of the serialized model.
        model_hash: H256,
        /// Size of the full model artifact in bytes.
        payload_bytes: u64,
        /// Training examples behind the update (FedAvg weight).
        sample_count: u64,
    },
    /// How many submissions a round has.
    RoundCount {
        /// Communication round.
        round: u32,
    },
    /// Fetch one submission.
    GetSubmission {
        /// Communication round.
        round: u32,
        /// Submission index.
        index: u64,
    },
    /// Record the aggregate the caller chose for a round.
    RecordAggregate {
        /// Communication round.
        round: u32,
        /// Variable-width bitset over participant indices included in the
        /// aggregation.
        combo_mask: ComboMask,
        /// Fingerprint of the aggregated model.
        agg_hash: H256,
    },
    /// How many participants are registered.
    ParticipantCount,
    /// Fetch the aggregate a peer recorded for a round.
    GetAggregate {
        /// Communication round.
        round: u32,
        /// The aggregator peer.
        aggregator: H160,
    },
}

impl RegistryCall {
    /// Encodes the call into calldata.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RegistryCall::Register => out.push(0),
            RegistryCall::SubmitModel {
                round,
                model_hash,
                payload_bytes,
                sample_count,
            } => {
                out.push(1);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(model_hash.as_bytes());
                out.extend_from_slice(&payload_bytes.to_le_bytes());
                out.extend_from_slice(&sample_count.to_le_bytes());
            }
            RegistryCall::RoundCount { round } => {
                out.push(2);
                out.extend_from_slice(&round.to_le_bytes());
            }
            RegistryCall::GetSubmission { round, index } => {
                out.push(3);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&index.to_le_bytes());
            }
            RegistryCall::RecordAggregate {
                round,
                combo_mask,
                agg_hash,
            } => {
                out.push(4);
                out.extend_from_slice(&round.to_le_bytes());
                combo_mask.encode_into(&mut out);
                out.extend_from_slice(agg_hash.as_bytes());
            }
            RegistryCall::ParticipantCount => out.push(5),
            RegistryCall::GetAggregate { round, aggregator } => {
                out.push(6);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(aggregator.as_bytes());
            }
        }
        out
    }

    /// Decodes calldata into a call.
    pub fn decode(data: &[u8]) -> Option<RegistryCall> {
        let (&method, rest) = data.split_first()?;
        match method {
            0 if rest.is_empty() => Some(RegistryCall::Register),
            1 => {
                if rest.len() != 4 + 32 + 8 + 8 {
                    return None;
                }
                let round = u32::from_le_bytes(rest[0..4].try_into().ok()?);
                let mut hash = [0u8; 32];
                hash.copy_from_slice(&rest[4..36]);
                let payload_bytes = u64::from_le_bytes(rest[36..44].try_into().ok()?);
                let sample_count = u64::from_le_bytes(rest[44..52].try_into().ok()?);
                Some(RegistryCall::SubmitModel {
                    round,
                    model_hash: H256::from_bytes(hash),
                    payload_bytes,
                    sample_count,
                })
            }
            2 => {
                if rest.len() != 4 {
                    return None;
                }
                Some(RegistryCall::RoundCount {
                    round: u32::from_le_bytes(rest.try_into().ok()?),
                })
            }
            3 => {
                if rest.len() != 12 {
                    return None;
                }
                Some(RegistryCall::GetSubmission {
                    round: u32::from_le_bytes(rest[0..4].try_into().ok()?),
                    index: u64::from_le_bytes(rest[4..12].try_into().ok()?),
                })
            }
            4 => {
                if rest.len() < 4 + 1 + 32 {
                    return None;
                }
                let round = u32::from_le_bytes(rest[0..4].try_into().ok()?);
                let (combo_mask, used) = ComboMask::decode_from(&rest[4..])?;
                let tail = &rest[4 + used..];
                if tail.len() != 32 {
                    return None;
                }
                let mut hash = [0u8; 32];
                hash.copy_from_slice(tail);
                Some(RegistryCall::RecordAggregate {
                    round,
                    combo_mask,
                    agg_hash: H256::from_bytes(hash),
                })
            }
            5 if rest.is_empty() => Some(RegistryCall::ParticipantCount),
            6 => {
                if rest.len() != 24 {
                    return None;
                }
                let mut addr = [0u8; 20];
                addr.copy_from_slice(&rest[4..24]);
                Some(RegistryCall::GetAggregate {
                    round: u32::from_le_bytes(rest[0..4].try_into().ok()?),
                    aggregator: H160::from_bytes(addr),
                })
            }
            _ => None,
        }
    }
}

// Storage keys are hashes of structured labels.
fn slot(parts: &[&[u8]]) -> H256 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

fn get_u64(state: &State, contract: &H160, key: &H256) -> u64 {
    let v = state.storage_get(contract, key);
    u64::from_le_bytes(v.as_bytes()[..8].try_into().expect("8 bytes"))
}

fn set_u64(state: &mut State, contract: H160, key: H256, value: u64) {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&value.to_le_bytes());
    state.storage_set(contract, key, H256::from_bytes(bytes));
}

fn set_addr(state: &mut State, contract: H160, key: H256, value: H160) {
    let mut bytes = [0u8; 32];
    bytes[..20].copy_from_slice(value.as_bytes());
    state.storage_set(contract, key, H256::from_bytes(bytes));
}

fn get_addr(state: &State, contract: &H160, key: &H256) -> H160 {
    let v = state.storage_get(contract, key);
    let mut out = [0u8; 20];
    out.copy_from_slice(&v.as_bytes()[..20]);
    H160::from_bytes(out)
}

/// Packs a mask into storage under `base`: its canonical byte length in
/// `.mask.len` and its bits across [`MASK_STORAGE_WORDS`] 64-bit words in
/// `.mask.w{i}`. Every word is written (zeroed beyond the length) so a
/// re-recorded, narrower aggregate can never resurrect stale wide bits.
fn set_mask(state: &mut State, contract: H160, base: &[u8], mask: &ComboMask) {
    set_u64(
        state,
        contract,
        slot(&[base, b".mask.len"]),
        mask.byte_len() as u64,
    );
    for (i, word) in mask.to_words().iter().enumerate() {
        set_u64(
            state,
            contract,
            slot(&[base, b".mask.w", &[i as u8]]),
            *word,
        );
    }
}

/// Reads a mask back from storage under `base`. `None` if the stored length
/// and words disagree (corrupt or never-written storage read as non-empty).
fn get_mask(state: &State, contract: &H160, base: &[u8]) -> Option<ComboMask> {
    let len = get_u64(state, contract, &slot(&[base, b".mask.len"])) as usize;
    let mut words = [0u64; MASK_STORAGE_WORDS];
    for (i, word) in words.iter_mut().enumerate() {
        *word = get_u64(state, contract, &slot(&[base, b".mask.w", &[i as u8]]));
    }
    ComboMask::from_words(&words, len)
}

/// What a successful registry call returns: its output and its logs. `None`
/// reverts the call; every call checks before it writes, so a revert leaves
/// storage untouched.
type CallResult = Option<(Vec<u8>, Vec<LogEntry>)>;

/// Executes a registry call: the native runtime's dispatch target.
pub fn execute_registry(ctx: &CallContext, state: &mut State) -> ExecOutcome {
    if ctx.gas_budget < REGISTRY_OP_GAS {
        return ExecOutcome::reverted(ctx.gas_budget);
    }
    let me = ctx.contract;
    let result = RegistryCall::decode(&ctx.calldata).and_then(|call| match call {
        RegistryCall::Register => register(ctx, state),
        RegistryCall::SubmitModel {
            round,
            model_hash,
            payload_bytes,
            sample_count,
        } => submit_model(ctx, state, round, model_hash, payload_bytes, sample_count),
        RegistryCall::RoundCount { round } => {
            let count = get_u64(state, &me, &round_count_key(round));
            Some((count.to_le_bytes().to_vec(), vec![]))
        }
        RegistryCall::GetSubmission { round, index } => get_submission(state, me, round, index),
        RegistryCall::RecordAggregate {
            round,
            combo_mask,
            agg_hash,
        } => record_aggregate(ctx, state, round, &combo_mask, agg_hash),
        RegistryCall::ParticipantCount => {
            let count = get_u64(state, &me, &slot(&[b"participants.count"]));
            Some((count.to_le_bytes().to_vec(), vec![]))
        }
        RegistryCall::GetAggregate { round, aggregator } => {
            get_aggregate(state, me, round, aggregator)
        }
    });
    match result {
        Some((output, logs)) => ExecOutcome {
            success: true,
            gas_used: REGISTRY_OP_GAS,
            output,
            logs,
        },
        None => ExecOutcome::reverted(REGISTRY_OP_GAS.min(ctx.gas_budget)),
    }
}

/// Storage key of `caller`'s member index (+1, so zero means "absent").
fn member_key(caller: &H160) -> H256 {
    slot(&[b"member", caller.as_bytes()])
}

/// Storage key of `round`'s submission count.
fn round_count_key(round: u32) -> H256 {
    slot(&[b"round.count", &round.to_le_bytes()])
}

/// Storage prefix of `round`'s `index`-th submission.
fn submission_base(round: u32, index: u64) -> Vec<u8> {
    [
        b"sub".as_slice(),
        &round.to_le_bytes(),
        &index.to_le_bytes(),
    ]
    .concat()
}

/// Storage prefix of `aggregator`'s recorded aggregate for `round`.
fn aggregate_base(round: u32, aggregator: &H160) -> Vec<u8> {
    [
        b"agg".as_slice(),
        &round.to_le_bytes(),
        aggregator.as_bytes(),
    ]
    .concat()
}

/// `Register`: appends the caller to the participant list; reverts on a
/// second registration.
fn register(ctx: &CallContext, state: &mut State) -> CallResult {
    let me = ctx.contract;
    let member_key = member_key(&ctx.caller);
    if !state.storage_get(&me, &member_key).is_zero() {
        return None; // double registration
    }
    let count_key = slot(&[b"participants.count"]);
    let index = get_u64(state, &me, &count_key);
    set_u64(state, me, count_key, index + 1);
    // member index is stored +1 so zero means "absent".
    set_u64(state, me, member_key, index + 1);
    set_addr(
        state,
        me,
        slot(&[b"participant", &index.to_le_bytes()]),
        ctx.caller,
    );
    let log = LogEntry {
        address: me,
        topic: topic_registered(),
        data: ctx.caller.as_bytes().to_vec(),
    };
    Some((index.to_le_bytes().to_vec(), vec![log]))
}

/// `SubmitModel`: stores a registered caller's one submission for `round`.
fn submit_model(
    ctx: &CallContext,
    state: &mut State,
    round: u32,
    model_hash: H256,
    payload_bytes: u64,
    sample_count: u64,
) -> CallResult {
    let me = ctx.contract;
    if state.storage_get(&me, &member_key(&ctx.caller)).is_zero() {
        return None; // not registered
    }
    let dup_key = slot(&[b"submitted", &round.to_le_bytes(), ctx.caller.as_bytes()]);
    if !state.storage_get(&me, &dup_key).is_zero() {
        return None; // one submission per round per peer
    }
    let count_key = round_count_key(round);
    let index = get_u64(state, &me, &count_key);
    set_u64(state, me, count_key, index + 1);
    set_u64(state, me, dup_key, 1);
    let base = submission_base(round, index);
    set_addr(state, me, slot(&[&base, b".sender"]), ctx.caller);
    state.storage_set(me, slot(&[&base, b".hash"]), model_hash);
    set_u64(state, me, slot(&[&base, b".payload"]), payload_bytes);
    set_u64(state, me, slot(&[&base, b".samples"]), sample_count);
    let mut data = ctx.caller.as_bytes().to_vec();
    data.extend_from_slice(&round.to_le_bytes());
    data.extend_from_slice(model_hash.as_bytes());
    let log = LogEntry {
        address: me,
        topic: topic_model_submitted(),
        data,
    };
    Some((index.to_le_bytes().to_vec(), vec![log]))
}

/// `GetSubmission`: sender, hash, payload bytes and sample count of
/// `round`'s `index`-th submission.
fn get_submission(state: &State, me: H160, round: u32, index: u64) -> CallResult {
    let count = get_u64(state, &me, &round_count_key(round));
    if index >= count {
        return None;
    }
    let base = submission_base(round, index);
    let sender = get_addr(state, &me, &slot(&[&base, b".sender"]));
    let hash = state.storage_get(&me, &slot(&[&base, b".hash"]));
    let payload = get_u64(state, &me, &slot(&[&base, b".payload"]));
    let samples = get_u64(state, &me, &slot(&[&base, b".samples"]));
    let mut out = sender.as_bytes().to_vec();
    out.extend_from_slice(hash.as_bytes());
    out.extend_from_slice(&payload.to_le_bytes());
    out.extend_from_slice(&samples.to_le_bytes());
    Some((out, vec![]))
}

/// `RecordAggregate`: stores a registered caller's aggregate fingerprint and
/// member mask for `round`.
fn record_aggregate(
    ctx: &CallContext,
    state: &mut State,
    round: u32,
    combo_mask: &ComboMask,
    agg_hash: H256,
) -> CallResult {
    let me = ctx.contract;
    if state.storage_get(&me, &member_key(&ctx.caller)).is_zero() {
        return None;
    }
    let base = aggregate_base(round, &ctx.caller);
    state.storage_set(me, slot(&[&base, b".hash"]), agg_hash);
    set_mask(state, me, &base, combo_mask);
    let mut data = ctx.caller.as_bytes().to_vec();
    data.extend_from_slice(&round.to_le_bytes());
    combo_mask.encode_into(&mut data);
    let log = LogEntry {
        address: me,
        topic: topic_aggregate_recorded(),
        data,
    };
    Some((Vec::new(), vec![log]))
}

/// `GetAggregate`: the fingerprint and mask `aggregator` recorded for
/// `round`; reverts if none was recorded or the mask storage is corrupt.
fn get_aggregate(state: &State, me: H160, round: u32, aggregator: H160) -> CallResult {
    let base = aggregate_base(round, &aggregator);
    let hash = state.storage_get(&me, &slot(&[&base, b".hash"]));
    if hash.is_zero() {
        return None;
    }
    let mask = get_mask(state, &me, &base)?; // None: corrupt mask storage
    let mut out = hash.as_bytes().to_vec();
    mask.encode_into(&mut out);
    Some((out, vec![]))
}

/// Parses the output of a successful `GetSubmission` call.
pub fn parse_submission(output: &[u8]) -> Option<(H160, H256, u64, u64)> {
    if output.len() != 20 + 32 + 8 + 8 {
        return None;
    }
    let mut addr = [0u8; 20];
    addr.copy_from_slice(&output[..20]);
    let mut hash = [0u8; 32];
    hash.copy_from_slice(&output[20..52]);
    let payload = u64::from_le_bytes(output[52..60].try_into().ok()?);
    let samples = u64::from_le_bytes(output[60..68].try_into().ok()?);
    Some((
        H160::from_bytes(addr),
        H256::from_bytes(hash),
        payload,
        samples,
    ))
}

/// Parses a little-endian u64 returned by count-style methods.
pub fn parse_u64(output: &[u8]) -> Option<u64> {
    output.try_into().ok().map(u64::from_le_bytes)
}

/// Parses the output of a successful `GetAggregate` call:
/// `agg_hash 32B ‖ mask_len u8 ‖ mask bytes`.
pub fn parse_aggregate(output: &[u8]) -> Option<(H256, ComboMask)> {
    if output.len() < 32 + 1 {
        return None;
    }
    let mut hash = [0u8; 32];
    hash.copy_from_slice(&output[..32]);
    let (mask, used) = ComboMask::decode_from(&output[32..])?;
    if 32 + used != output.len() {
        return None;
    }
    Some((H256::from_bytes(hash), mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> H160 {
        let mut b = [0u8; 20];
        b[0] = n;
        H160::from_bytes(b)
    }

    fn registry() -> H160 {
        addr(0xEE)
    }

    fn call(state: &mut State, caller: H160, call: RegistryCall) -> ExecOutcome {
        let ctx = CallContext {
            caller,
            contract: registry(),
            calldata: call.encode(),
            gas_budget: 1_000_000,
            block_number: 1,
            timestamp_ns: 0,
        };
        execute_registry(&ctx, state)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let calls = vec![
            RegistryCall::Register,
            RegistryCall::SubmitModel {
                round: 3,
                model_hash: sha256(b"m"),
                payload_bytes: 253_952,
                sample_count: 1500,
            },
            RegistryCall::RoundCount { round: 9 },
            RegistryCall::GetSubmission { round: 2, index: 1 },
            RegistryCall::RecordAggregate {
                round: 1,
                combo_mask: ComboMask::from_u32(0b101),
                agg_hash: sha256(b"a"),
            },
            RegistryCall::RecordAggregate {
                round: 1,
                combo_mask: ComboMask::from_members([0, 33, 120]),
                agg_hash: sha256(b"wide"),
            },
            RegistryCall::ParticipantCount,
            RegistryCall::GetAggregate {
                round: 4,
                aggregator: addr(7),
            },
        ];
        for c in calls {
            assert_eq!(RegistryCall::decode(&c.encode()), Some(c));
        }
        assert_eq!(RegistryCall::decode(&[]), None);
        assert_eq!(RegistryCall::decode(&[99]), None);
        assert_eq!(RegistryCall::decode(&[1, 0, 0]), None);
    }

    #[test]
    fn registration_assigns_indices() {
        let mut state = State::new();
        let r1 = call(&mut state, addr(1), RegistryCall::Register);
        assert!(r1.success);
        assert_eq!(parse_u64(&r1.output), Some(0));
        let r2 = call(&mut state, addr(2), RegistryCall::Register);
        assert_eq!(parse_u64(&r2.output), Some(1));
        let count = call(&mut state, addr(9), RegistryCall::ParticipantCount);
        assert_eq!(parse_u64(&count.output), Some(2));
        assert_eq!(r1.logs.len(), 1);
        assert_eq!(r1.logs[0].topic, topic_registered());
    }

    #[test]
    fn double_registration_reverts() {
        let mut state = State::new();
        assert!(call(&mut state, addr(1), RegistryCall::Register).success);
        assert!(!call(&mut state, addr(1), RegistryCall::Register).success);
    }

    #[test]
    fn submission_requires_registration() {
        let mut state = State::new();
        let submit = RegistryCall::SubmitModel {
            round: 0,
            model_hash: sha256(b"m"),
            payload_bytes: 10,
            sample_count: 5,
        };
        assert!(!call(&mut state, addr(1), submit.clone()).success);
        call(&mut state, addr(1), RegistryCall::Register);
        assert!(call(&mut state, addr(1), submit).success);
    }

    #[test]
    fn one_submission_per_round_per_peer() {
        let mut state = State::new();
        call(&mut state, addr(1), RegistryCall::Register);
        let submit = |h: &[u8]| RegistryCall::SubmitModel {
            round: 1,
            model_hash: sha256(h),
            payload_bytes: 1,
            sample_count: 1,
        };
        assert!(call(&mut state, addr(1), submit(b"first")).success);
        assert!(!call(&mut state, addr(1), submit(b"second")).success);
        // A different round is fine.
        let other_round = RegistryCall::SubmitModel {
            round: 2,
            model_hash: sha256(b"x"),
            payload_bytes: 1,
            sample_count: 1,
        };
        assert!(call(&mut state, addr(1), other_round).success);
    }

    #[test]
    fn submissions_are_retrievable_in_order() {
        let mut state = State::new();
        for i in 1..=3u8 {
            call(&mut state, addr(i), RegistryCall::Register);
            let out = call(
                &mut state,
                addr(i),
                RegistryCall::SubmitModel {
                    round: 7,
                    model_hash: sha256(&[i]),
                    payload_bytes: u64::from(i) * 100,
                    sample_count: u64::from(i),
                },
            );
            assert!(out.success);
        }
        let count = call(&mut state, addr(9), RegistryCall::RoundCount { round: 7 });
        assert_eq!(parse_u64(&count.output), Some(3));
        for i in 0..3u64 {
            let out = call(
                &mut state,
                addr(9),
                RegistryCall::GetSubmission { round: 7, index: i },
            );
            assert!(out.success);
            let (sender, hash, payload, samples) = parse_submission(&out.output).unwrap();
            assert_eq!(sender, addr(i as u8 + 1));
            assert_eq!(hash, sha256(&[i as u8 + 1]));
            assert_eq!(payload, (i + 1) * 100);
            assert_eq!(samples, i + 1);
        }
        // Out of range reverts.
        assert!(
            !call(
                &mut state,
                addr(9),
                RegistryCall::GetSubmission { round: 7, index: 3 }
            )
            .success
        );
    }

    #[test]
    fn aggregates_recorded_and_fetched() {
        let mut state = State::new();
        call(&mut state, addr(1), RegistryCall::Register);
        let record = RegistryCall::RecordAggregate {
            round: 2,
            combo_mask: ComboMask::from_u32(0b011),
            agg_hash: sha256(b"agg"),
        };
        assert!(call(&mut state, addr(1), record).success);
        let got = call(
            &mut state,
            addr(9),
            RegistryCall::GetAggregate {
                round: 2,
                aggregator: addr(1),
            },
        );
        assert!(got.success);
        let (hash, mask) = parse_aggregate(&got.output).unwrap();
        assert_eq!(hash, sha256(b"agg"));
        assert_eq!(mask, ComboMask::from_u32(0b011));
        // Missing aggregate reverts.
        assert!(
            !call(
                &mut state,
                addr(9),
                RegistryCall::GetAggregate {
                    round: 3,
                    aggregator: addr(1)
                }
            )
            .success
        );
        // Unregistered recorder reverts.
        assert!(
            !call(
                &mut state,
                addr(5),
                RegistryCall::RecordAggregate {
                    round: 2,
                    combo_mask: ComboMask::from_u32(1),
                    agg_hash: sha256(b"x")
                }
            )
            .success
        );
    }

    #[test]
    fn wide_masks_round_trip_through_storage() {
        // Masks past the legacy 32-bit boundary survive the full
        // record → storage-packing → get path, including a multi-word one.
        let mut state = State::new();
        call(&mut state, addr(1), RegistryCall::Register);
        for (round, members) in [
            (1u32, vec![31usize]),                 // last legacy bit
            (2, vec![32]),                         // first wide bit
            (3, vec![0, 33, 47]),                  // the 48-peer regime
            (4, (0..128).collect::<Vec<usize>>()), // two storage words, full
            (5, vec![0, 255, 256, 1023]),          // past the old 256-bit cap
        ] {
            let mask = ComboMask::from_members(members.iter().copied());
            let record = RegistryCall::RecordAggregate {
                round,
                combo_mask: mask.clone(),
                agg_hash: sha256(&round.to_le_bytes()),
            };
            let out = call(&mut state, addr(1), record);
            assert!(out.success, "round {round} record failed");
            // The event carries the full length-prefixed mask.
            assert_eq!(out.logs.len(), 1);
            assert_eq!(out.logs[0].topic, topic_aggregate_recorded());
            assert_eq!(&out.logs[0].data[24..], mask.encode().as_slice());
            let got = call(
                &mut state,
                addr(9),
                RegistryCall::GetAggregate {
                    round,
                    aggregator: addr(1),
                },
            );
            assert!(got.success, "round {round} get failed");
            let (hash, back) = parse_aggregate(&got.output).unwrap();
            assert_eq!(hash, sha256(&round.to_le_bytes()));
            assert_eq!(back.members(), members, "round {round} mask mangled");
        }
    }

    #[test]
    fn rerecording_a_narrower_mask_clears_stale_wide_words() {
        // A wide mask then a narrow one under the same (round, aggregator)
        // key: the read must return exactly the narrow mask, not a hybrid.
        let mut state = State::new();
        call(&mut state, addr(1), RegistryCall::Register);
        for mask in [
            ComboMask::from_members(0..100),
            ComboMask::from_members([2, 5]),
        ] {
            assert!(
                call(
                    &mut state,
                    addr(1),
                    RegistryCall::RecordAggregate {
                        round: 7,
                        combo_mask: mask.clone(),
                        agg_hash: sha256(b"re"),
                    }
                )
                .success
            );
            let got = call(
                &mut state,
                addr(9),
                RegistryCall::GetAggregate {
                    round: 7,
                    aggregator: addr(1),
                },
            );
            let (_, back) = parse_aggregate(&got.output).unwrap();
            assert_eq!(back, mask);
        }
    }

    #[test]
    fn record_aggregate_rejects_malformed_masks() {
        let mut state = State::new();
        call(&mut state, addr(1), RegistryCall::Register);
        let good = RegistryCall::RecordAggregate {
            round: 1,
            combo_mask: ComboMask::from_members([0, 40]),
            agg_hash: sha256(b"ok"),
        }
        .encode();
        assert!(RegistryCall::decode(&good).is_some());
        // Oversize declared length: 129 mask bytes would address bits past
        // the cap, and the body really is present so only the length check
        // can reject it.
        let mut oversize = Vec::new();
        oversize.push(4u8);
        oversize.extend_from_slice(&1u32.to_le_bytes());
        oversize.push(129u8);
        oversize.extend_from_slice(&[1u8; 129]);
        oversize.extend_from_slice(sha256(b"big").as_bytes());
        assert_eq!(RegistryCall::decode(&oversize), None);
        // Declared length longer than the remaining calldata.
        let mut truncated = good.clone();
        truncated[5] = 30;
        assert_eq!(RegistryCall::decode(&truncated), None);
        // Non-canonical (zero-padded) mask body.
        let mut padded = Vec::new();
        padded.push(4u8);
        padded.extend_from_slice(&1u32.to_le_bytes());
        padded.extend_from_slice(&[2u8, 0b1, 0b0]); // len 2, trailing zero
        padded.extend_from_slice(sha256(b"pad").as_bytes());
        assert_eq!(RegistryCall::decode(&padded), None);
    }

    #[test]
    fn malformed_calldata_reverts() {
        let mut state = State::new();
        let ctx = CallContext {
            caller: addr(1),
            contract: registry(),
            calldata: vec![1, 2, 3],
            gas_budget: 1_000_000,
            block_number: 1,
            timestamp_ns: 0,
        };
        assert!(!execute_registry(&ctx, &mut state).success);
    }

    #[test]
    fn insufficient_gas_reverts_with_budget() {
        let mut state = State::new();
        let ctx = CallContext {
            caller: addr(1),
            contract: registry(),
            calldata: RegistryCall::Register.encode(),
            gas_budget: 10,
            block_number: 1,
            timestamp_ns: 0,
        };
        let out = execute_registry(&ctx, &mut state);
        assert!(!out.success);
        assert_eq!(out.gas_used, 10);
    }

    #[test]
    fn topics_are_distinct() {
        assert_ne!(topic_model_submitted(), topic_aggregate_recorded());
        assert_ne!(topic_model_submitted(), topic_registered());
    }
}

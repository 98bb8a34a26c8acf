//! Non-repudiation auditing (the paper's Case 3).
//!
//! "The integration of blockchain technology in our system ensures participants
//! cannot deny their authorship, providing strong evidence against detected
//! abnormal clients." The audit trail for a model is: a signed transaction,
//! included under a merkle root, in a proof-of-work block, carrying the model's
//! fingerprint. This module assembles and verifies that evidence.

use blockfed_chain::{Block, Blockchain};
use blockfed_crypto::{MerkleProof, MerkleTree, H160, H256};
use blockfed_fl::ModelUpdate;

use crate::coupling::{confirmed_submissions, model_fingerprint};

/// The complete evidence bundle tying a model to its author.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The accused/credited author.
    pub author: H160,
    /// Communication round.
    pub round: u32,
    /// The model fingerprint anchored on chain.
    pub model_hash: H256,
    /// The carrying transaction's hash.
    pub tx_hash: H256,
    /// The including block's hash.
    pub block_hash: H256,
    /// Merkle inclusion proof of the transaction in the block.
    pub inclusion: MerkleProof,
}

/// Why evidence verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// No confirmed submission matches the update.
    NotOnChain,
    /// The block the evidence points at is unknown.
    UnknownBlock,
    /// The transaction is missing from the referenced block.
    TxNotInBlock,
    /// The transaction's signature does not verify.
    BadSignature,
    /// The signer does not match the claimed author.
    AuthorMismatch,
    /// The on-chain fingerprint does not match the model parameters.
    FingerprintMismatch,
    /// The merkle inclusion proof is invalid.
    BadInclusionProof,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            AuditError::NotOnChain => "no confirmed submission matches the update",
            AuditError::UnknownBlock => "referenced block is unknown",
            AuditError::TxNotInBlock => "transaction missing from referenced block",
            AuditError::BadSignature => "transaction signature invalid",
            AuditError::AuthorMismatch => "signer does not match claimed author",
            AuditError::FingerprintMismatch => "model fingerprint mismatch",
            AuditError::BadInclusionProof => "merkle inclusion proof invalid",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for AuditError {}

fn tx_merkle_proof(block: &Block, tx_hash: &H256) -> Option<(usize, MerkleProof)> {
    let leaves: Vec<H256> = block.transactions.iter().map(|t| t.hash()).collect();
    let index = leaves.iter().position(|h| h == tx_hash)?;
    let tree = MerkleTree::from_leaves(leaves);
    tree.proof(index).map(|p| (index, p))
}

/// Collects the evidence bundle proving `update` was published by `author`.
///
/// # Errors
///
/// Returns [`AuditError::NotOnChain`] if no matching confirmed submission
/// exists on the peer's canonical chain.
pub fn collect_evidence(
    chain: &Blockchain,
    registry: H160,
    author: H160,
    update: &ModelUpdate,
) -> Result<Evidence, AuditError> {
    let fingerprint = model_fingerprint(update);
    let submission = confirmed_submissions(chain, registry, update.round)
        .into_iter()
        .find(|s| s.sender == author && s.model_hash == fingerprint)
        .ok_or(AuditError::NotOnChain)?;
    let block = chain
        .block(&submission.block_hash)
        .ok_or(AuditError::UnknownBlock)?;
    let (_, inclusion) =
        tx_merkle_proof(block, &submission.tx_hash).ok_or(AuditError::TxNotInBlock)?;
    Ok(Evidence {
        author,
        round: update.round,
        model_hash: fingerprint,
        tx_hash: submission.tx_hash,
        block_hash: submission.block_hash,
        inclusion,
    })
}

/// Independently verifies an evidence bundle against a chain and the model
/// parameters it claims to cover.
///
/// # Errors
///
/// Returns the first [`AuditError`] found.
pub fn verify_evidence(
    chain: &Blockchain,
    evidence: &Evidence,
    update: &ModelUpdate,
) -> Result<(), AuditError> {
    if model_fingerprint(update) != evidence.model_hash {
        return Err(AuditError::FingerprintMismatch);
    }
    let block = chain
        .block(&evidence.block_hash)
        .ok_or(AuditError::UnknownBlock)?;
    let tx = block
        .transactions
        .iter()
        .find(|t| t.hash() == evidence.tx_hash)
        .ok_or(AuditError::TxNotInBlock)?;
    tx.verify_signature()
        .map_err(|_| AuditError::BadSignature)?;
    if tx.from != evidence.author {
        return Err(AuditError::AuthorMismatch);
    }
    if !evidence
        .inclusion
        .verify(&evidence.tx_hash, &block.header.tx_root)
    {
        return Err(AuditError::BadInclusionProof);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::{register_tx, submit_model_tx};
    use blockfed_chain::GenesisSpec;
    use blockfed_crypto::KeyPair;
    use blockfed_fl::ClientId;
    use blockfed_vm::BlockfedRuntime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        chain: Blockchain,
        registry: H160,
        keys: Vec<KeyPair>,
        update: ModelUpdate,
    }

    fn fixture() -> Fixture {
        let keys: Vec<KeyPair> = (1..=2)
            .map(|s| KeyPair::generate(&mut StdRng::seed_from_u64(s)))
            .collect();
        let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
        let mut reg_bytes = [0u8; 20];
        reg_bytes[0] = 0xEE;
        let registry = H160::from_bytes(reg_bytes);
        let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_code(registry, blockfed_vm::NATIVE_REGISTRY_CODE.to_vec());
        let mut chain = Blockchain::new(&spec);
        let mut runtime = BlockfedRuntime::new();
        runtime.register_native(registry, blockfed_vm::NativeContract::FlRegistry);

        let update = ModelUpdate::new(ClientId(0), 1, vec![0.1, 0.2, 0.3], 50);
        let txs = vec![
            register_tx(registry, &keys[0], 0),
            register_tx(registry, &keys[1], 0),
            submit_model_tx(&update, registry, &keys[0], 1),
        ];
        let block = chain.build_candidate(addrs[0], txs, 1_000, &mut runtime);
        chain.import(block, &mut runtime).unwrap();
        Fixture {
            chain,
            registry,
            keys,
            update,
        }
    }

    #[test]
    fn evidence_roundtrip() {
        let fx = fixture();
        let author = fx.keys[0].address();
        let ev = collect_evidence(&fx.chain, fx.registry, author, &fx.update).unwrap();
        assert_eq!(ev.author, author);
        assert_eq!(ev.round, 1);
        verify_evidence(&fx.chain, &ev, &fx.update).unwrap();
    }

    #[test]
    fn wrong_author_cannot_be_framed() {
        let fx = fixture();
        let not_author = fx.keys[1].address();
        assert_eq!(
            collect_evidence(&fx.chain, fx.registry, not_author, &fx.update),
            Err(AuditError::NotOnChain)
        );
    }

    #[test]
    fn tampered_model_fails_fingerprint() {
        let fx = fixture();
        let author = fx.keys[0].address();
        let ev = collect_evidence(&fx.chain, fx.registry, author, &fx.update).unwrap();
        let mut tampered = fx.update.clone();
        tampered.params[0] = 9.9;
        assert_eq!(
            verify_evidence(&fx.chain, &ev, &tampered),
            Err(AuditError::FingerprintMismatch)
        );
    }

    #[test]
    fn tampered_evidence_fields_fail() {
        let fx = fixture();
        let author = fx.keys[0].address();
        let ev = collect_evidence(&fx.chain, fx.registry, author, &fx.update).unwrap();

        let mut wrong_block = ev.clone();
        wrong_block.block_hash = blockfed_crypto::sha256::sha256(b"nope");
        assert_eq!(
            verify_evidence(&fx.chain, &wrong_block, &fx.update),
            Err(AuditError::UnknownBlock)
        );

        let mut wrong_tx = ev.clone();
        wrong_tx.tx_hash = blockfed_crypto::sha256::sha256(b"nope");
        assert_eq!(
            verify_evidence(&fx.chain, &wrong_tx, &fx.update),
            Err(AuditError::TxNotInBlock)
        );

        let mut wrong_author = ev.clone();
        wrong_author.author = fx.keys[1].address();
        // The tx exists but was signed by keys[0]: author mismatch.
        assert_eq!(
            verify_evidence(&fx.chain, &wrong_author, &fx.update),
            Err(AuditError::AuthorMismatch)
        );
    }

    #[test]
    fn unsubmitted_update_has_no_evidence() {
        let fx = fixture();
        let ghost = ModelUpdate::new(ClientId(0), 2, vec![1.0], 10);
        assert_eq!(
            collect_evidence(&fx.chain, fx.registry, fx.keys[0].address(), &ghost),
            Err(AuditError::NotOnChain)
        );
    }

    #[test]
    fn audit_error_display() {
        assert!(AuditError::NotOnChain.to_string().contains("no confirmed"));
        assert!(AuditError::BadInclusionProof.to_string().contains("merkle"));
    }
}

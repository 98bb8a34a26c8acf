//! The run's block log: every block a peer sealed, in seal order, indexed by
//! hash, with each block's successful registry calls decoded once when it
//! was sealed. Floods and syncs carry indices into it, and a peer's
//! readiness checks read the decoded calls instead of its chain's calldata.

use std::collections::HashMap;
use std::sync::Arc;

use blockfed_chain::{Block, Blockchain};
use blockfed_crypto::H256;

use super::registry_address;
use crate::coupling::{registry_calls, RegistryEntry};

#[derive(Default)]
pub(super) struct BlockLog {
    blocks: Vec<Arc<Block>>,
    /// Each hash's first index in `blocks`.
    index: HashMap<H256, usize>,
    /// Aligned with `blocks`.
    calls: Vec<Box<[RegistryEntry]>>,
}

impl BlockLog {
    /// Appends `block`, decoding its registry calls from the receipts of
    /// `sealer`, the chain that imported it. The receipts belong to the
    /// block's one validated record, which every peer's chain shares through
    /// the run's store, so every peer holds these same receipts.
    /// Returns the block's index.
    pub fn push(&mut self, block: Arc<Block>, sealer: &Blockchain) -> usize {
        let (idx, hash) = (self.blocks.len(), block.hash());
        let receipts = sealer.receipts(&hash).unwrap_or_default();
        self.calls
            .push(registry_calls(&block, receipts, registry_address()).into());
        self.index.entry(hash).or_insert(idx);
        self.blocks.push(block);
        idx
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn block(&self, idx: usize) -> &Arc<Block> {
        &self.blocks[idx]
    }

    /// The index of the first logged block with this hash.
    pub fn position(&self, hash: &H256) -> Option<usize> {
        self.index.get(hash).copied()
    }

    /// The decoded registry calls of the logged block with this hash.
    pub fn calls(&self, hash: &H256) -> Option<&[RegistryEntry]> {
        self.position(hash).map(|i| &*self.calls[i])
    }
}

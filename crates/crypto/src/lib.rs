//! Cryptographic primitives for the `blockfed` workspace, implemented from scratch.
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (the hash under everything else),
//! * [`hash`] — fixed-size [`H256`] / [`H160`] digest and address newtypes,
//! * [`u256`] — 256-bit integers used for proof-of-work targets and field math,
//! * [`secp`] — secp256k1 group arithmetic,
//! * [`keys`] — Schnorr signatures providing the paper's non-repudiation property,
//! * [`merkle`] — binary merkle trees for block transaction commitments.
//!
//! # Examples
//!
//! ```
//! use blockfed_crypto::{sha256::sha256, KeyPair};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let kp = KeyPair::generate(&mut rng);
//! let digest = sha256(b"local model, round 3");
//! let sig = kp.sign(digest.as_bytes());
//! assert!(kp.public().verify(digest.as_bytes(), &sig).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function over 120 counted lines (threshold in the root clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod hash;
pub mod keys;
pub mod merkle;
pub mod secp;
pub mod sha256;
pub mod u256;

pub use hash::{H160, H256};
pub use keys::{KeyPair, PublicKey, Signature, SignatureError};
pub use merkle::{merkle_root, MerkleProof, MerkleTree};
pub use u256::{U256, U512};

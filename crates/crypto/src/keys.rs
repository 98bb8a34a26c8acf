//! Schnorr signatures over secp256k1, providing the non-repudiation property the
//! paper's Case 3 relies on: a peer that published a (possibly abnormal) model
//! cannot later deny authorship, because the model transaction carries a
//! signature only that peer's secret key could have produced.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::hash::{H160, H256};
use crate::secp::{group_order, mul_generator, schnorr_equation_holds, Point};
use crate::sha256::Sha256;
use crate::u256::U256;

/// A secret/public key pair. Its `Debug` output shows only the public half.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyPair {
    secret: U256,
    public: PublicKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .field("address", &self.address())
            .finish_non_exhaustive()
    }
}

/// A public key (a point on secp256k1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    x: [u8; 32],
    y: [u8; 32],
}

/// A Schnorr signature `(R, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    rx: [u8; 32],
    ry: [u8; 32],
    s: [u8; 32],
}

/// Error verifying or decoding signature material.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The public key bytes are not a canonical encoding of a finite curve
    /// point.
    InvalidPublicKey,
    /// The signature bytes are malformed (R not a canonical finite curve
    /// point, or s out of range).
    MalformedSignature,
    /// The signature does not verify for this key and message.
    VerificationFailed,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::InvalidPublicKey => write!(f, "public key is not a curve point"),
            SignatureError::MalformedSignature => write!(f, "signature bytes are malformed"),
            SignatureError::VerificationFailed => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

fn join64(a: &[u8; 32], b: &[u8; 32]) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(a);
    out[32..].copy_from_slice(b);
    out
}

fn split64(bytes: &[u8; 64]) -> ([u8; 32], [u8; 32]) {
    let mut a = [0u8; 32];
    let mut b = [0u8; 32];
    a.copy_from_slice(&bytes[..32]);
    b.copy_from_slice(&bytes[32..]);
    (a, b)
}

fn hash_to_scalar(parts: &[&[u8]]) -> U256 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    let digest = U256::from_be_bytes(h.finalize().to_bytes());
    // A 256-bit value is below 2n, so one subtraction reduces it.
    digest.checked_sub(group_order()).unwrap_or(digest)
}

impl KeyPair {
    /// Generates a key pair from an RNG.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockfed_crypto::KeyPair;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let kp = KeyPair::generate(&mut rng);
    /// let sig = kp.sign(b"hello");
    /// assert!(kp.public().verify(b"hello", &sig).is_ok());
    /// ```
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            let candidate = U256::from_be_bytes(bytes);
            if !candidate.is_zero() && candidate < group_order() {
                return Self::from_secret(candidate);
            }
        }
    }

    /// Builds a key pair from a secret scalar.
    ///
    /// # Panics
    ///
    /// Panics if the scalar is zero or not below the group order.
    pub fn from_secret(secret: U256) -> Self {
        assert!(
            !secret.is_zero() && secret < group_order(),
            "secret out of range"
        );
        let point = mul_generator(secret);
        let (x, y) = split64(&point.to_bytes());
        KeyPair {
            secret,
            public: PublicKey { x, y },
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The address derived from the public key.
    pub fn address(&self) -> H160 {
        self.public.address()
    }

    /// Signs a message (deterministic nonce derived from the secret and message).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let n = group_order();
        // Deterministic nonce: k = H(secret ‖ message) mod n, nonzero by re-hash.
        let mut k = hash_to_scalar(&[&self.secret.to_be_bytes(), message]);
        while k.is_zero() {
            k = hash_to_scalar(&[&k.to_be_bytes(), message, b"retry"]);
        }
        let r_point = mul_generator(k);
        let (rx, ry) = split64(&r_point.to_bytes());
        let e = hash_to_scalar(&[&rx, &ry, &self.public.x, &self.public.y, message]);
        let s = k.add_mod(e.mul_mod(self.secret, n), n);
        Signature {
            rx,
            ry,
            s: s.to_be_bytes(),
        }
    }
}

impl PublicKey {
    /// The 64-byte (x ‖ y) encoding.
    pub fn to_point_bytes(&self) -> [u8; 64] {
        join64(&self.x, &self.y)
    }

    /// Reconstructs a public key from its encoding.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::InvalidPublicKey`] if the bytes are not a
    /// canonical encoding of a finite curve point.
    pub fn from_bytes(bytes: [u8; 64]) -> Result<Self, SignatureError> {
        match Point::from_bytes(&bytes) {
            Some(p) if !p.is_infinity() => {
                let (x, y) = split64(&p.to_bytes());
                Ok(PublicKey { x, y })
            }
            _ => Err(SignatureError::InvalidPublicKey),
        }
    }

    /// The account address: the low 20 bytes of `sha256(x ‖ y)`.
    pub fn address(&self) -> H160 {
        let mut h = Sha256::new();
        h.update(&self.x);
        h.update(&self.y);
        let digest = h.finalize();
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[12..]);
        H160::from_bytes(out)
    }

    /// Verifies a signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError`] if the key or signature is malformed (a
    /// coordinate not canonical, a point off the curve or at infinity, `s`
    /// not below the group order) or the equation `s·G = R + e·P` does not
    /// hold.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        let pk_point =
            Point::from_bytes(&self.to_point_bytes()).ok_or(SignatureError::InvalidPublicKey)?;
        if pk_point.is_infinity() {
            return Err(SignatureError::InvalidPublicKey);
        }
        let r_point = Point::from_bytes(&join64(&sig.rx, &sig.ry))
            .filter(|r| !r.is_infinity())
            .ok_or(SignatureError::MalformedSignature)?;
        let s = U256::from_be_bytes(sig.s);
        if s >= group_order() {
            return Err(SignatureError::MalformedSignature);
        }
        let e = hash_to_scalar(&[&sig.rx, &sig.ry, &self.x, &self.y, message]);
        if schnorr_equation_holds(s, e, pk_point, r_point) {
            Ok(())
        } else {
            Err(SignatureError::VerificationFailed)
        }
    }
}

impl Signature {
    /// A compact digest of the signature, suitable for embedding in receipts.
    pub fn digest(&self) -> H256 {
        let mut h = Sha256::new();
        h.update(&self.rx);
        h.update(&self.ry);
        h.update(&self.s);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyPair::generate(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(1);
        let sig = kp.sign(b"model update round 3");
        assert!(kp.public().verify(b"model update round 3", &sig).is_ok());
    }

    #[test]
    fn tampered_message_fails() {
        let kp = keypair(2);
        let sig = kp.sign(b"original");
        assert_eq!(
            kp.public().verify(b"tampered", &sig),
            Err(SignatureError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = keypair(3);
        let kp2 = keypair(4);
        let sig = kp1.sign(b"msg");
        assert_eq!(
            kp2.public().verify(b"msg", &sig),
            Err(SignatureError::VerificationFailed)
        );
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair(5);
        assert_eq!(kp.sign(b"x"), kp.sign(b"x"));
        assert_ne!(kp.sign(b"x"), kp.sign(b"y"));
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        let a = keypair(6);
        let b = keypair(7);
        assert_eq!(a.address(), a.public().address());
        assert_ne!(a.address(), b.address());
        assert!(!a.address().is_zero());
    }

    #[test]
    fn public_key_decoding_validates_curve_membership() {
        let kp = keypair(8);
        let ok = PublicKey::from_bytes(kp.public().to_point_bytes());
        assert_eq!(ok, Ok(kp.public()));
        let mut bad = kp.public().to_point_bytes();
        bad[0] ^= 0xFF;
        assert_eq!(
            PublicKey::from_bytes(bad),
            Err(SignatureError::InvalidPublicKey)
        );
        assert_eq!(
            PublicKey::from_bytes([0u8; 64]),
            Err(SignatureError::InvalidPublicKey)
        );
    }

    #[test]
    fn malformed_signature_detected() {
        let kp = keypair(9);
        let mut sig = kp.sign(b"m");
        sig.rx[1] ^= 1; // knock R off the curve
        assert_eq!(
            kp.public().verify(b"m", &sig),
            Err(SignatureError::MalformedSignature)
        );
    }

    /// `x = 1 + p` names the same field element as `x = 1`: decoding it
    /// would give the point `(1, √8)` a second encoding, so a second address.
    fn non_canonical_encoding() -> [u8; 64] {
        let (x, y) = crate::secp::tests::point_at_x_one();
        let x = x.wrapping_add(crate::secp::field_prime());
        join64(&x.to_be_bytes(), &y.to_be_bytes())
    }

    #[test]
    fn non_canonical_public_key_rejected() {
        let bytes = non_canonical_encoding();
        assert_eq!(
            PublicKey::from_bytes(bytes),
            Err(SignatureError::InvalidPublicKey)
        );
        let (x, y) = split64(&bytes);
        let sig = keypair(12).sign(b"m");
        assert_eq!(
            PublicKey { x, y }.verify(b"m", &sig),
            Err(SignatureError::InvalidPublicKey)
        );
    }

    #[test]
    fn non_canonical_or_infinite_r_rejected() {
        let kp = keypair(13);
        let mut sig = kp.sign(b"m");
        (sig.rx, sig.ry) = split64(&non_canonical_encoding());
        assert_eq!(
            kp.public().verify(b"m", &sig),
            Err(SignatureError::MalformedSignature)
        );
        (sig.rx, sig.ry) = ([0; 32], [0; 32]);
        assert_eq!(
            kp.public().verify(b"m", &sig),
            Err(SignatureError::MalformedSignature)
        );
    }

    #[test]
    fn debug_output_hides_the_secret() {
        let kp = keypair(14);
        let shown = format!("{kp:?}");
        assert!(shown.contains("KeyPair") && shown.contains("address"));
        assert!(!shown.contains(&format!("{:x}", kp.secret)), "{shown}");
        assert!(!shown.contains(&format!("{:?}", kp.secret)), "{shown}");
        assert!(!shown.contains(&kp.secret.to_string()), "{shown}");
    }

    #[test]
    fn oversized_s_rejected() {
        let kp = keypair(10);
        let mut sig = kp.sign(b"m");
        sig.s = [0xFF; 32]; // >= group order
        assert_eq!(
            kp.public().verify(b"m", &sig),
            Err(SignatureError::MalformedSignature)
        );
    }

    #[test]
    fn signature_digest_is_stable() {
        let kp = keypair(11);
        let sig = kp.sign(b"m");
        assert_eq!(sig.digest(), sig.digest());
        assert_ne!(sig.digest(), kp.sign(b"n").digest());
    }

    #[test]
    #[should_panic(expected = "secret out of range")]
    fn zero_secret_rejected() {
        let _ = KeyPair::from_secret(U256::ZERO);
    }

    /// Known-answer test: 200 seeded keys each sign one message; the digest
    /// over every public key and signature pins the exact bytes keygen and
    /// signing produce, so a kernel change cannot move a key, an address or
    /// a transaction hash unnoticed.
    #[test]
    fn signature_known_answer() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = Sha256::new();
        for i in 0..200 {
            let kp = KeyPair::generate(&mut rng);
            let msg = format!("message {i}");
            let sig = kp.sign(msg.as_bytes());
            assert!(kp.public().verify(msg.as_bytes(), &sig).is_ok());
            h.update(&kp.public().to_point_bytes());
            h.update(sig.digest().as_bytes());
        }
        assert_eq!(
            h.finalize().to_hex(),
            "615da39dfb9b852385905b4f7f1cf0a7f625207f7640b2d0d5d48be1c175043e"
        );
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SignatureError::InvalidPublicKey
            .to_string()
            .contains("public key"));
        assert!(SignatureError::MalformedSignature
            .to_string()
            .contains("malformed"));
        assert!(SignatureError::VerificationFailed
            .to_string()
            .contains("failed"));
    }
}

//! secp256k1 elliptic-curve arithmetic, implemented from scratch on [`U256`].
//!
//! The curve is `y² = x³ + 7` over the prime field `GF(p)` with
//! `p = 2^256 − 2^32 − 977`. Points are manipulated in Jacobian coordinates so a
//! scalar multiplication needs only one field inversion. The group order `n`
//! is exposed for scalar arithmetic in the signature scheme ([`crate::keys`]).
//!
//! Two scalar-multiplication kernels sit under the signature scheme:
//! `mul_generator` reads a precomputed table of `j·16^i·G` (64 windows × 15
//! affine points, built once on first use), so `k·G` costs 64 mixed additions
//! and no doublings; [`Point::mul_scalar`] scans the scalar in 4-bit windows
//! against a 15-entry table of the point's own multiples. Verification
//! compares `s·G − e·P` against `R` in Jacobian coordinates, so it needs no
//! inversion at all.

use std::sync::OnceLock;

use crate::u256::{U256, U512};

/// `p = 2^256 − 2^32 − 977`.
const P: U256 = U256::from_limbs([0xFFFF_FFFE_FFFF_FC2F, u64::MAX, u64::MAX, u64::MAX]);

/// The group order `n`.
const N: U256 = U256::from_limbs([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    u64::MAX,
]);

/// The generator's affine coordinates.
const G: (U256, U256) = (
    U256::from_limbs([
        0x59F2_815B_16F8_1798,
        0x029B_FCDB_2DCE_28D9,
        0x55A0_6295_CE87_0B07,
        0x79BE_667E_F9DC_BBAC,
    ]),
    U256::from_limbs([
        0x9C47_D08F_FB10_D4B8,
        0xFD17_B448_A685_5419,
        0x5DA4_FBFC_0E11_08A8,
        0x483A_DA77_26A3_C465,
    ]),
);

/// The field prime `p = 2^256 − 2^32 − 977`.
pub const fn field_prime() -> U256 {
    P
}

/// The group order `n`.
pub const fn group_order() -> U256 {
    N
}

/// The standard generator point `G`.
pub const fn generator() -> Point {
    Point::Affine { x: G.0, y: G.1 }
}

/// `2^256 ≡ C (mod p)` with `C = 2^32 + 977`, which makes reduction cheap.
const C: u64 = 0x1_0000_03D1;

/// Reduces a 512-bit product modulo the field prime using the special form of `p`.
fn reduce_p(wide: U512) -> U256 {
    let (hi, lo) = wide.split_halves();
    // value ≡ hi*C + lo (mod p)
    let (t, t_carry) = hi.mul_u64_carry(C);
    let (sum, c1) = t.overflowing_add(lo);
    let extra = t_carry + u64::from(c1); // ≤ C + 1, tiny
    let add = U256::from_u128(u128::from(extra) * u128::from(C));
    let (mut r, c2) = sum.overflowing_add(add);
    if c2 {
        // One more wrap: + 2^256 ≡ + C.  r is tiny after wrapping, no overflow.
        r = r.wrapping_add(U256::from_u64(C));
    }
    while r >= P {
        r = r.wrapping_sub(P);
    }
    r
}

fn fmul(a: U256, b: U256) -> U256 {
    reduce_p(a.mul_wide(b))
}

fn fsq(a: U256) -> U256 {
    fmul(a, a)
}

/// `a^(2^k)`: `k` successive squarings.
fn fsqn(mut a: U256, k: u32) -> U256 {
    for _ in 0..k {
        a = fsq(a);
    }
    a
}

fn fadd(a: U256, b: U256) -> U256 {
    a.add_mod(b, P)
}

/// `2a`, the cheap way to multiply by a small constant.
fn fdbl(a: U256) -> U256 {
    fadd(a, a)
}

fn fsub(a: U256, b: U256) -> U256 {
    a.sub_mod(b, P)
}

fn fneg(a: U256) -> U256 {
    if a.is_zero() {
        a
    } else {
        P.wrapping_sub(a)
    }
}

/// Field inversion via Fermat's little theorem (`a^(p−2)`), along the
/// 255-squaring, 15-multiplication addition chain for `p − 2`, whose bits
/// read (high to low) 223 ones, a zero, 22 ones, `0000`, `1`, `0`, `11`, `0`,
/// `1`. `xk` below is `a^(2^k − 1)`, a run of `k` ones.
fn finv(a: U256) -> U256 {
    assert!(!a.is_zero(), "inversion of zero");
    let x2 = fmul(fsq(a), a);
    let x3 = fmul(fsq(x2), a);
    let x6 = fmul(fsqn(x3, 3), x3);
    let x9 = fmul(fsqn(x6, 3), x3);
    let x11 = fmul(fsqn(x9, 2), x2);
    let x22 = fmul(fsqn(x11, 11), x11);
    let x44 = fmul(fsqn(x22, 22), x22);
    let x88 = fmul(fsqn(x44, 44), x44);
    let x176 = fmul(fsqn(x88, 88), x88);
    let x220 = fmul(fsqn(x176, 44), x44);
    let x223 = fmul(fsqn(x220, 3), x3);
    let t = fmul(fsqn(x223, 23), x22);
    let t = fmul(fsqn(t, 5), a);
    let t = fmul(fsqn(t, 3), x2);
    fmul(fsqn(t, 2), a)
}

/// A point on secp256k1, either the identity or an affine coordinate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// The identity element (point at infinity).
    Infinity,
    /// A finite point with affine coordinates.
    Affine {
        /// x coordinate.
        x: U256,
        /// y coordinate.
        y: U256,
    },
}

/// Internal Jacobian representation `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`.
#[derive(Debug, Clone, Copy)]
struct Jacobian {
    x: U256,
    y: U256,
    z: U256,
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian {
        x: U256::ONE,
        y: U256::ONE,
        z: U256::ZERO,
    };

    fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    fn from_affine(p: Point) -> Jacobian {
        match p {
            Point::Infinity => Jacobian::INFINITY,
            Point::Affine { x, y } => Jacobian { x, y, z: U256::ONE },
        }
    }

    fn to_affine(self) -> Point {
        if self.is_infinity() {
            return Point::Infinity;
        }
        let (x, y) = self.scaled_by(finv(self.z));
        Point::Affine { x, y }
    }

    /// The affine coordinates, given `zinv = 1/Z`.
    fn scaled_by(self, zinv: U256) -> (U256, U256) {
        let zinv2 = fsq(zinv);
        (fmul(self.x, zinv2), fmul(self.y, fmul(zinv2, zinv)))
    }

    fn negate(self) -> Jacobian {
        Jacobian {
            y: fneg(self.y),
            ..self
        }
    }

    /// Point doubling (a = 0 curve): 3 multiplications, 4 squarings.
    fn double(self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let y2 = fsq(self.y);
        let s = fdbl(fdbl(fmul(self.x, y2))); // 4·X·Y²
        let xx = fsq(self.x);
        let m = fadd(fdbl(xx), xx); // 3·X²
        let x3 = fsub(fsq(m), fdbl(s));
        let y4_8 = fdbl(fdbl(fdbl(fsq(y2)))); // 8·Y⁴
        let y3 = fsub(fmul(m, fsub(s, x3)), y4_8);
        let z3 = fmul(fdbl(self.y), self.z);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    fn add(self, other: Jacobian) -> Jacobian {
        if self.is_infinity() {
            return other;
        }
        if other.is_infinity() {
            return self;
        }
        let z1z1 = fsq(self.z);
        let z2z2 = fsq(other.z);
        let u1 = fmul(self.x, z2z2);
        let u2 = fmul(other.x, z1z1);
        let s1 = fmul(fmul(self.y, z2z2), other.z);
        let s2 = fmul(fmul(other.y, z1z1), self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = fsub(u2, u1);
        let r = fsub(s2, s1);
        let h2 = fsq(h);
        let h3 = fmul(h2, h);
        let u1h2 = fmul(u1, h2);
        let x3 = fsub(fsub(fsq(r), h3), fdbl(u1h2));
        let y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(s1, h3));
        let z3 = fmul(fmul(self.z, other.z), h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of an affine point (`Z₂ = 1`): 11 field products
    /// instead of [`Jacobian::add`]'s 16.
    fn add_affine(self, (x, y): (U256, U256)) -> Jacobian {
        if self.is_infinity() {
            return Jacobian { x, y, z: U256::ONE };
        }
        let z1z1 = fsq(self.z);
        let u2 = fmul(x, z1z1);
        let s2 = fmul(fmul(y, z1z1), self.z);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = fsub(u2, self.x);
        let r = fsub(s2, self.y);
        let h2 = fsq(h);
        let h3 = fmul(h2, h);
        let u1h2 = fmul(self.x, h2);
        let x3 = fsub(fsub(fsq(r), h3), fdbl(u1h2));
        let y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(self.y, h3));
        Jacobian {
            x: x3,
            y: y3,
            z: fmul(self.z, h),
        }
    }
}

/// Converts finite Jacobian points to affine with one shared inversion
/// (Montgomery's trick).
fn batch_to_affine(points: &[Jacobian]) -> Vec<(U256, U256)> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = U256::ONE;
    for p in points {
        debug_assert!(!p.is_infinity());
        acc = fmul(acc, p.z);
        prefix.push(acc);
    }
    // Walking back, `inv` is the inverse of z_0 ⋯ z_i.
    let mut inv = finv(acc);
    let mut out = vec![(U256::ZERO, U256::ZERO); points.len()];
    for i in (0..points.len()).rev() {
        let zinv = if i == 0 {
            inv
        } else {
            fmul(inv, prefix[i - 1])
        };
        inv = fmul(inv, points[i].z);
        out[i] = points[i].scaled_by(zinv);
    }
    out
}

/// Nibble `i` (0 = least significant) of `k`.
fn nibble(k: U256, i: usize) -> usize {
    ((k.limbs()[i / 16] >> (4 * (i % 16))) & 0xF) as usize
}

/// `row[j − 1] = j·16^i·G` for window `i`.
type BaseRow = [(U256, U256); 15];

/// The fixed-base table: 64 rows of [`BaseRow`], ~60 KB. A curve constant,
/// built on first use and identical in every run.
fn base_table() -> &'static [BaseRow] {
    static TABLE: OnceLock<Vec<BaseRow>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut multiples = Vec::with_capacity(64 * 15);
        let mut window = Jacobian::from_affine(generator());
        for _ in 0..64 {
            let mut m = window;
            for _ in 0..15 {
                multiples.push(m);
                m = m.add(window);
            }
            window = m; // 16 · window
        }
        // No entry is the identity: j·16^i ≤ 15·2^252 < n.
        let affine = batch_to_affine(&multiples);
        affine
            .chunks_exact(15)
            .map(|row| row.try_into().expect("rows of 15"))
            .collect()
    })
}

/// `k·G` by the fixed-base table: one mixed addition per nonzero nibble.
fn mul_generator_jacobian(k: U256) -> Jacobian {
    let mut acc = Jacobian::INFINITY;
    for (i, row) in base_table().iter().enumerate() {
        let digit = nibble(k, i);
        if digit != 0 {
            acc = acc.add_affine(row[digit - 1]);
        }
    }
    acc
}

/// `k·p` by a 4-bit fixed window: 256 doublings and one addition per
/// nonzero nibble, against a table of `p`'s first 15 multiples.
fn mul_jacobian(p: Point, k: U256) -> Jacobian {
    let Point::Affine { x, y } = p else {
        return Jacobian::INFINITY;
    };
    let mut table = [Jacobian::INFINITY; 16];
    for j in 1..16 {
        table[j] = table[j - 1].add_affine((x, y));
    }
    let mut acc = Jacobian::INFINITY;
    for i in (0..64).rev() {
        for _ in 0..4 {
            acc = acc.double();
        }
        let digit = nibble(k, i);
        if digit != 0 {
            acc = acc.add(table[digit]);
        }
    }
    acc
}

/// Scalar multiplication of the generator, `k·G`, by the precomputed
/// fixed-base table. Equal to `generator().mul_scalar(k)`, several times
/// faster.
pub(crate) fn mul_generator(k: U256) -> Point {
    mul_generator_jacobian(k).to_affine()
}

/// The Schnorr verification equation `s·G − e·P = R` for a finite `r`,
/// checked without leaving Jacobian coordinates: `(X, Y, Z)` equals affine
/// `(x, y)` iff `X = x·Z²` and `Y = y·Z³`.
pub(crate) fn schnorr_equation_holds(s: U256, e: U256, pk: Point, r: Point) -> bool {
    let Point::Affine { x, y } = r else {
        return false;
    };
    let t = mul_generator_jacobian(s).add(mul_jacobian(pk, e).negate());
    if t.is_infinity() {
        return false;
    }
    let zz = fsq(t.z);
    t.x == fmul(x, zz) && t.y == fmul(y, fmul(zz, t.z))
}

impl Point {
    /// Whether this is the identity element.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// The affine coordinates, or `None` for the identity.
    pub fn coordinates(&self) -> Option<(U256, U256)> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => Some((*x, *y)),
        }
    }

    /// Whether the point satisfies the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = fsq(*y);
                let rhs = fadd(fmul(fsq(*x), *x), U256::from_u64(7));
                lhs == rhs
            }
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        Jacobian::from_affine(*self)
            .add(Jacobian::from_affine(*other))
            .to_affine()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        Jacobian::from_affine(*self).double().to_affine()
    }

    /// The additive inverse `(x, −y)`.
    pub fn negate(&self) -> Point {
        match self {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine { x: *x, y: fneg(*y) },
        }
    }

    /// Scalar multiplication `k·P` by a 4-bit fixed window. (Keygen and
    /// signing multiply `G` through a precomputed fixed-base table instead.)
    pub fn mul_scalar(&self, k: U256) -> Point {
        mul_jacobian(*self, k).to_affine()
    }

    /// Serializes the point as 64 bytes (`x ‖ y` big-endian), or 64 zero bytes
    /// for the identity.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        if let Point::Affine { x, y } = self {
            out[..32].copy_from_slice(&x.to_be_bytes());
            out[32..].copy_from_slice(&y.to_be_bytes());
        }
        out
    }

    /// Deserializes a point from [`Point::to_bytes`] output, validating that
    /// both coordinates are canonical field elements (below `p`) and that
    /// the point lies on the curve.
    ///
    /// # Errors
    ///
    /// Returns `None` if a coordinate is `≥ p` — which would give one point a
    /// second encoding — or the coordinates are not on the curve.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Point> {
        if bytes.iter().all(|&b| b == 0) {
            return Some(Point::Infinity);
        }
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        let (x, y) = (U256::from_be_bytes(xb), U256::from_be_bytes(yb));
        if x >= P || y >= P {
            return None;
        }
        let p = Point::Affine { x, y };
        p.is_on_curve().then_some(p)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook double-and-add `k·p`: the oracle the windowed and
    /// fixed-base kernels are checked against.
    fn mul_reference(p: &Point, k: U256) -> Point {
        if k.is_zero() || p.is_infinity() {
            return Point::Infinity;
        }
        let base = Jacobian::from_affine(*p);
        let mut acc = Jacobian::INFINITY;
        for i in (0..k.bits()).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(base);
            }
        }
        acc.to_affine()
    }

    /// Scalars at the kernels' edges: zero, one, the group order and its
    /// neighbours, the top bit alone, and every nibble set.
    fn edge_scalars() -> Vec<U256> {
        let n = group_order();
        vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(15),
            U256::from_u64(16),
            n.wrapping_sub(U256::ONE),
            n,
            n.wrapping_add(U256::ONE),
            U256::ONE << 255,
            U256::MAX,
        ]
    }

    fn scalar() -> impl Strategy<Value = U256> {
        prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
    }

    #[test]
    fn constants_match_their_published_hex() {
        let hex = |s| U256::from_hex(s).unwrap();
        assert_eq!(
            field_prime(),
            hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        );
        assert_eq!(
            group_order(),
            hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
        );
        assert_eq!(
            generator(),
            Point::Affine {
                x: hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
                y: hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
            }
        );
    }

    #[test]
    fn kernels_match_double_and_add_on_edge_scalars() {
        let g = generator();
        let p = mul_reference(&g, U256::from_u64(0xC0FFEE));
        for k in edge_scalars() {
            assert_eq!(mul_generator(k), mul_reference(&g, k), "k·G, k = {k:x}");
            assert_eq!(
                g.mul_scalar(k),
                mul_reference(&g, k),
                "window k·G, k = {k:x}"
            );
            assert_eq!(p.mul_scalar(k), mul_reference(&p, k), "k·P, k = {k:x}");
        }
        assert_eq!(Point::Infinity.mul_scalar(U256::ONE), Point::Infinity);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn kernels_match_double_and_add(k in scalar(), b in 1u64..u64::MAX) {
            let g = generator();
            let p = mul_reference(&g, U256::from_u64(b));
            prop_assert_eq!(mul_generator(k), mul_reference(&g, k));
            prop_assert_eq!(p.mul_scalar(k), mul_reference(&p, k));
        }
    }

    #[test]
    fn base_table_rows_are_digit_multiples_of_window_powers() {
        let table = base_table();
        assert_eq!(table.len(), 64);
        for i in [0usize, 1, 31, 63] {
            for j in [1usize, 2, 15] {
                let k = U256::from_u64(j as u64) << (4 * i as u32);
                let (x, y) = table[i][j - 1];
                assert_eq!(Point::Affine { x, y }, mul_reference(&generator(), k));
            }
        }
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(generator().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let g = generator();
        assert_eq!(g.add(&Point::Infinity), g);
        assert_eq!(Point::Infinity.add(&g), g);
        assert_eq!(g.add(&g.negate()), Point::Infinity);
        assert!(Point::Infinity.is_on_curve());
    }

    #[test]
    fn doubling_matches_addition() {
        let g = generator();
        assert_eq!(g.double(), g.add(&g));
        let g2 = g.double();
        assert!(g2.is_on_curve());
        assert_ne!(g2, g);
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let g = generator();
        // (a + b)G == aG + bG
        let a = U256::from_u64(123456789);
        let b = U256::from_u64(987654321);
        let lhs = g.mul_scalar(a.wrapping_add(b));
        let rhs = g.mul_scalar(a).add(&g.mul_scalar(b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn small_scalar_multiples_agree_with_repeated_addition() {
        let g = generator();
        let mut acc = Point::Infinity;
        for k in 1..=8u64 {
            acc = acc.add(&g);
            assert_eq!(g.mul_scalar(U256::from_u64(k)), acc, "k = {k}");
            assert_eq!(mul_generator(U256::from_u64(k)), acc, "k = {k}");
            assert!(acc.is_on_curve());
        }
    }

    #[test]
    fn order_times_generator_is_identity() {
        let g = generator();
        assert_eq!(g.mul_scalar(group_order()), Point::Infinity);
        // (n-1)G = -G
        let n_minus_1 = group_order().wrapping_sub(U256::ONE);
        assert_eq!(g.mul_scalar(n_minus_1), g.negate());
    }

    #[test]
    fn scalar_mul_associativity_via_composition() {
        // (ab)G == a(bG)
        let g = generator();
        let a = U256::from_u64(31337);
        let b = U256::from_u64(271828);
        let ab = a.mul_mod(b, group_order());
        assert_eq!(g.mul_scalar(ab), g.mul_scalar(b).mul_scalar(a));
    }

    #[test]
    fn schnorr_equation_matches_affine_arithmetic() {
        let g = generator();
        let pk = mul_generator(U256::from_u64(77));
        let (s, e) = (U256::from_u64(1_000_003), U256::from_u64(424_242));
        let r = mul_generator(s).add(&pk.mul_scalar(e).negate());
        assert!(schnorr_equation_holds(s, e, pk, r));
        assert!(!schnorr_equation_holds(s, e, pk, r.negate()));
        assert!(!schnorr_equation_holds(s, e, pk, g));
        // s·G − e·P = ∞ never matches: R is a finite point.
        assert!(!schnorr_equation_holds(
            U256::from_u64(77),
            U256::ONE,
            pk,
            g
        ));
        assert!(!schnorr_equation_holds(s, e, pk, Point::Infinity));
    }

    #[test]
    fn point_serialization_roundtrip() {
        let p = generator().mul_scalar(U256::from_u64(42));
        let bytes = p.to_bytes();
        assert_eq!(Point::from_bytes(&bytes), Some(p));
        assert_eq!(Point::from_bytes(&[0u8; 64]), Some(Point::Infinity));
        // Corrupt a byte: no longer on the curve.
        let mut bad = bytes;
        bad[5] ^= 1;
        assert_eq!(Point::from_bytes(&bad), None);
    }

    /// `(1, √8)` is on the curve (`1 + 7 = 8`); `√8 = 8^((p+1)/4)` since
    /// `p ≡ 3 (mod 4)`.
    pub(crate) fn point_at_x_one() -> (U256, U256) {
        let p = field_prime();
        let exp = p.wrapping_add(U256::ONE) >> 2;
        let y = U256::from_u64(8).pow_mod(exp, p);
        assert_eq!(fsq(y), U256::from_u64(8));
        (U256::ONE, y)
    }

    #[test]
    fn non_canonical_coordinates_are_rejected() {
        let (x, y) = point_at_x_one();
        let encode = |x: U256, y: U256| Point::Affine { x, y }.to_bytes();
        assert_eq!(
            Point::from_bytes(&encode(x, y)),
            Some(Point::Affine { x, y })
        );
        // x + p names the same field element: a second encoding of the
        // same point, which must not decode.
        let x_plus_p = x.wrapping_add(field_prime());
        assert!(Point::Affine { x: x_plus_p, y }.is_on_curve());
        assert_eq!(Point::from_bytes(&encode(x_plus_p, y)), None);
        assert_eq!(Point::from_bytes(&encode(x, field_prime())), None);
        assert_eq!(Point::from_bytes(&encode(x, U256::MAX)), None);
    }

    #[test]
    fn reduce_p_agrees_with_generic_reduction() {
        let p = field_prime();
        let a = U256::from_hex("deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef")
            .unwrap();
        let b = U256::from_hex("cafebabecafebabecafebabecafebabecafebabecafebabecafebabecafebabe")
            .unwrap();
        let fast = fmul(a, b);
        let slow = a.mul_mod(b, p);
        assert_eq!(fast, slow);
    }

    #[test]
    fn field_inverse() {
        let a = U256::from_u64(1234567);
        assert_eq!(fmul(a, finv(a)), U256::ONE);
        assert_eq!(finv(U256::ONE), U256::ONE);
        let p = field_prime();
        let b = p.wrapping_sub(U256::from_u64(3));
        assert_eq!(finv(b), b.pow_mod(p.wrapping_sub(U256::from_u64(2)), p));
    }

    #[test]
    #[should_panic(expected = "inversion of zero")]
    fn zero_inverse_panics() {
        let _ = finv(U256::ZERO);
    }

    #[test]
    fn negation_is_involutive() {
        let p = generator().mul_scalar(U256::from_u64(7));
        assert_eq!(p.negate().negate(), p);
        assert_eq!(Point::Infinity.negate(), Point::Infinity);
    }

    #[test]
    fn coordinates_accessor() {
        assert_eq!(Point::Infinity.coordinates(), None);
        let (x, _) = generator().coordinates().unwrap();
        assert_eq!(
            x,
            U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
                .unwrap()
        );
    }
}

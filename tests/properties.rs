//! Property-based tests of the core invariants, spanning crates.

use blockfed::chain::{ContractRuntime, DifficultyController, RetargetRule};
use blockfed::crypto::{merkle_root, sha256::Sha256, MerkleTree, U256};
use blockfed::fl::{fed_avg, Attack, ClientId, ModelUpdate, StalenessDecay, WaitPolicy};
use blockfed::nn::serialize::{decode_params, encode_params};
use blockfed::tensor::{matmul, Tensor};
use proptest::prelude::*;

fn u256_strategy() -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- U256 ring axioms -------------------------------------

    #[test]
    fn u256_addition_commutes(a in u256_strategy(), b in u256_strategy()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn u256_add_sub_roundtrip(a in u256_strategy(), b in u256_strategy()) {
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
    }

    #[test]
    fn u256_multiplication_commutes(a in u256_strategy(), b in u256_strategy()) {
        prop_assert_eq!(a.wrapping_mul(b), b.wrapping_mul(a));
    }

    #[test]
    fn u256_div_rem_reconstructs(a in u256_strategy(), b in u256_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(b);
        prop_assert!(r < b);
        prop_assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn u256_be_bytes_roundtrip(a in u256_strategy()) {
        prop_assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
    }

    #[test]
    fn u256_shift_inverse(a in u256_strategy(), s in 0u32..255) {
        // (a >> s) << s clears the low bits but must match masking.
        let masked = (a >> s) << s;
        let reconstructed = a & (U256::MAX >> s << s);
        prop_assert_eq!(masked, reconstructed);
    }

    #[test]
    fn u256_mul_mod_matches_wide_rem(a in u256_strategy(), b in u256_strategy(), m in u256_strategy()) {
        prop_assume!(!m.is_zero());
        let via_mod = a.mul_mod(b, m);
        let via_wide = a.mul_wide(b).rem(m);
        prop_assert_eq!(via_mod, via_wide);
        prop_assert!(via_mod < m);
    }

    // ---------------- hashing ----------------------------------------------

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), blockfed::crypto::sha256::sha256(&data));
    }

    #[test]
    fn merkle_proofs_verify_for_random_trees(n in 1usize..40, probe in 0usize..40) {
        let leaves: Vec<_> = (0..n)
            .map(|i| blockfed::crypto::sha256::sha256(&(i as u64).to_le_bytes()))
            .collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let idx = probe % n;
        let proof = tree.proof(idx).expect("in range");
        prop_assert!(proof.verify(&leaves[idx], &tree.root()));
        // Wrong leaf fails (when distinguishable).
        if n > 1 {
            let other = (idx + 1) % n;
            prop_assert!(!proof.verify(&leaves[other], &tree.root()));
        }
        prop_assert_eq!(merkle_root(&leaves), tree.root());
    }

    // ---------------- FedAvg invariants -------------------------------------

    #[test]
    fn fedavg_stays_in_convex_hull(
        params_a in prop::collection::vec(-10.0f32..10.0, 1..32),
        deltas in prop::collection::vec(-5.0f32..5.0, 1..32),
        w_a in 1usize..100,
        w_b in 1usize..100,
    ) {
        let n = params_a.len().min(deltas.len());
        let a_params: Vec<f32> = params_a[..n].to_vec();
        let b_params: Vec<f32> = a_params.iter().zip(&deltas[..n]).map(|(a, d)| a + d).collect();
        let a = ModelUpdate::new(ClientId(0), 0, a_params.clone(), w_a);
        let b = ModelUpdate::new(ClientId(1), 0, b_params.clone(), w_b);
        let avg = fed_avg(&[&a, &b]).unwrap();
        for i in 0..n {
            let lo = a_params[i].min(b_params[i]) - 1e-4;
            let hi = a_params[i].max(b_params[i]) + 1e-4;
            prop_assert!(avg[i] >= lo && avg[i] <= hi, "component {} out of hull", i);
        }
    }

    #[test]
    fn fedavg_of_identical_updates_is_identity(
        params in prop::collection::vec(-10.0f32..10.0, 1..64),
        weights in prop::collection::vec(1usize..1000, 2..5),
    ) {
        let updates: Vec<ModelUpdate> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| ModelUpdate::new(ClientId(i), 0, params.clone(), w))
            .collect();
        let refs: Vec<&ModelUpdate> = updates.iter().collect();
        let avg = fed_avg(&refs).unwrap();
        for (x, y) in avg.iter().zip(&params) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    // ---------------- serialization -----------------------------------------

    #[test]
    fn param_codec_roundtrips(params in prop::collection::vec(-1e6f32..1e6, 0..256)) {
        let decoded = decode_params(&encode_params(&params)).unwrap();
        prop_assert_eq!(params.len(), decoded.len());
        for (a, b) in params.iter().zip(&decoded) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn param_codec_rejects_truncation(params in prop::collection::vec(-1.0f32..1.0, 1..64), cut in 1usize..64) {
        let mut bytes = encode_params(&params);
        let cut = cut.min(bytes.len() - 1);
        bytes.truncate(bytes.len() - cut);
        prop_assert!(decode_params(&bytes).is_err());
    }

    // ---------------- tensor algebra ----------------------------------------

    #[test]
    fn matmul_identity_is_neutral(rows in 1usize..8, cols in 1usize..8, vals in prop::collection::vec(-5.0f32..5.0, 64)) {
        let data: Vec<f32> = vals.iter().cycle().take(rows * cols).copied().collect();
        let a = Tensor::from_vec(data, &[rows, cols]);
        let mut eye = Tensor::zeros(&[cols, cols]);
        for i in 0..cols {
            eye.set(&[i, i], 1.0);
        }
        let out = matmul(&a, &eye);
        prop_assert!(out.max_abs_diff(&a) < 1e-5);
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..10, cols in 1usize..10, vals in prop::collection::vec(-5.0f32..5.0, 128)) {
        let data: Vec<f32> = vals.iter().cycle().take(rows * cols).copied().collect();
        let a = Tensor::from_vec(data, &[rows, cols]);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..6, cols in 1usize..8, vals in prop::collection::vec(-30.0f32..30.0, 64)) {
        let data: Vec<f32> = vals.iter().cycle().take(rows * cols).copied().collect();
        let logits = Tensor::from_vec(data, &[rows, cols]);
        let p = blockfed::tensor::ops::softmax_rows(&logits);
        for r in 0..rows {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    // ---------------- staleness & wait policies ------------------------------

    #[test]
    fn staleness_decays_are_bounded_and_monotone(
        a in 0.0f64..4.0,
        lambda in 0.0f64..4.0,
        cutoff in 0u32..16,
        s in 0u32..64,
    ) {
        for decay in [
            StalenessDecay::Constant,
            StalenessDecay::Polynomial { a },
            StalenessDecay::Exponential { lambda },
            StalenessDecay::Cutoff { max_staleness: cutoff },
        ] {
            let f0 = decay.factor(s);
            let f1 = decay.factor(s + 1);
            prop_assert!((0.0..=1.0).contains(&f0));
            prop_assert!(f1 <= f0 + 1e-12, "{decay} increased with staleness");
        }
    }

    #[test]
    fn wait_policy_ready_is_monotone_in_received(k in 0usize..10, total in 1usize..10, r in 0usize..10) {
        for policy in [WaitPolicy::All, WaitPolicy::FirstK(k)] {
            let r2 = (r + 1).min(total);
            let r1 = r.min(total);
            if policy.ready(r1, total) {
                prop_assert!(policy.ready(r2, total), "{policy} lost readiness");
            }
            prop_assert!(policy.expected(total) <= total);
        }
    }

    // ---------------- attacks -------------------------------------------------

    #[test]
    fn sign_flip_is_involutive_at_unit_scale(params in prop::collection::vec(-10.0f32..10.0, 1..32)) {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut u = ModelUpdate::new(ClientId(0), 0, params.clone(), 1);
        let flip = Attack::SignFlip { scale: 1.0 };
        flip.apply(&mut u, &mut rng);
        flip.apply(&mut u, &mut rng);
        prop_assert_eq!(u.params, params);
    }

    #[test]
    fn constant_attack_is_idempotent(params in prop::collection::vec(-10.0f32..10.0, 1..32), v in -5.0f32..5.0) {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut u = ModelUpdate::new(ClientId(0), 0, params, 1);
        let a = Attack::Constant { value: v };
        a.apply(&mut u, &mut rng);
        let once = u.params.clone();
        a.apply(&mut u, &mut rng);
        prop_assert_eq!(u.params, once);
    }

    // ---------------- difficulty control --------------------------------------

    #[test]
    fn controllers_stay_in_bounds_under_arbitrary_intervals(
        intervals in prop::collection::vec(1u64..100_000_000_000, 1..64),
        initial in 16u128..1_000_000_000,
    ) {
        for rule in [
            RetargetRule::Homestead,
            RetargetRule::MovingAverage { window: 4 },
            RetargetRule::Pi { kp: 0.4, ki: 0.1 },
        ] {
            let mut c = DifficultyController::new(rule, initial);
            let mut prev = c.difficulty();
            for &i in &intervals {
                let next = c.observe(i);
                prop_assert!(next >= blockfed::chain::pow::MIN_DIFFICULTY);
                // Adaptive rules move at most 2x per observation; Homestead
                // moves by parent/2048 (plus the minimum clamp).
                prop_assert!(next <= prev.saturating_mul(2).max(blockfed::chain::pow::MIN_DIFFICULTY));
                prop_assert!(next >= prev / 2);
                prev = next;
            }
        }
    }

    // ---------------- VM robustness -----------------------------------------

    #[test]
    fn random_bytecode_never_panics_and_respects_gas(code in prop::collection::vec(any::<u8>(), 0..256), budget in 0u64..50_000) {
        let ctx = blockfed::chain::CallContext {
            caller: blockfed::crypto::H160::zero(),
            contract: blockfed::crypto::H160::from_bytes([9; 20]),
            calldata: vec![1, 2, 3, 4],
            gas_budget: budget,
            block_number: 1,
            timestamp_ns: 0,
        };
        let mut state = blockfed::chain::State::new();
        state.credit(blockfed::crypto::H160::from_bytes([1; 20]), 5);
        let before = state.root();
        let out = blockfed::vm::BlockfedRuntime::new().execute(&ctx, &code, &mut state);
        prop_assert!(out.gas_used <= budget, "gas overrun: {} > {}", out.gas_used, budget);
        prop_assert!(!out.success, "non-native code must revert");
        prop_assert_eq!(state.root(), before);
    }
}

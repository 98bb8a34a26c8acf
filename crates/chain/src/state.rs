//! World state: accounts, balances, contract code and storage.

use std::collections::BTreeMap;

use blockfed_crypto::sha256::Sha256;
use blockfed_crypto::{H160, H256};
use serde::{Deserialize, Serialize};

/// One account's mutable state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Account {
    /// Transactions sent so far.
    pub nonce: u64,
    /// Spendable balance.
    pub balance: u64,
    /// Contract code (empty for externally owned accounts).
    pub code: Vec<u8>,
}

impl Account {
    /// Whether this account holds contract code.
    pub fn is_contract(&self) -> bool {
        !self.code.is_empty()
    }
}

/// The full world state. Deterministically hashable into a state root.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct State {
    accounts: BTreeMap<H160, Account>,
    storage: BTreeMap<H160, BTreeMap<H256, H256>>,
}

/// Error applying a state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// Sender balance is insufficient.
    InsufficientBalance {
        /// What the operation needed.
        needed: u64,
        /// What the account held.
        available: u64,
    },
    /// Transaction nonce does not match the account nonce.
    NonceMismatch {
        /// The account's expected next nonce.
        expected: u64,
        /// The nonce the transaction carried.
        got: u64,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::InsufficientBalance { needed, available } => {
                write!(f, "insufficient balance: need {needed}, have {available}")
            }
            StateError::NonceMismatch { expected, got } => {
                write!(f, "nonce mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl State {
    /// An empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Read-only view of an account (default if untouched).
    pub fn account(&self, addr: &H160) -> Account {
        self.accounts.get(addr).cloned().unwrap_or_default()
    }

    /// Mutable access, creating the account if absent.
    pub fn account_mut(&mut self, addr: H160) -> &mut Account {
        self.accounts.entry(addr).or_default()
    }

    /// Current balance.
    pub fn balance(&self, addr: &H160) -> u64 {
        self.accounts.get(addr).map(|a| a.balance).unwrap_or(0)
    }

    /// Current nonce.
    pub fn nonce(&self, addr: &H160) -> u64 {
        self.accounts.get(addr).map(|a| a.nonce).unwrap_or(0)
    }

    /// Credits an account (genesis allocation, mining rewards).
    pub fn credit(&mut self, addr: H160, amount: u64) {
        let acct = self.account_mut(addr);
        acct.balance = acct.balance.saturating_add(amount);
    }

    /// Debits an account.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] without mutating on failure.
    pub fn debit(&mut self, addr: H160, amount: u64) -> Result<(), StateError> {
        let acct = self.account_mut(addr);
        if acct.balance < amount {
            return Err(StateError::InsufficientBalance {
                needed: amount,
                available: acct.balance,
            });
        }
        acct.balance -= amount;
        Ok(())
    }

    /// Transfers value between accounts.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] without mutating on failure.
    pub fn transfer(&mut self, from: H160, to: H160, amount: u64) -> Result<(), StateError> {
        self.debit(from, amount)?;
        self.credit(to, amount);
        Ok(())
    }

    /// Consumes a nonce: verifies `got` matches and increments.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NonceMismatch`] without mutating on failure.
    pub fn consume_nonce(&mut self, addr: H160, got: u64) -> Result<(), StateError> {
        let expected = self.nonce(&addr);
        if expected != got {
            return Err(StateError::NonceMismatch { expected, got });
        }
        self.account_mut(addr).nonce += 1;
        Ok(())
    }

    /// Reads a contract storage slot (zero if unset).
    pub fn storage_get(&self, addr: &H160, key: &H256) -> H256 {
        self.storage
            .get(addr)
            .and_then(|slots| slots.get(key))
            .copied()
            .unwrap_or_else(H256::zero)
    }

    /// Writes a contract storage slot (writing zero clears it).
    pub fn storage_set(&mut self, addr: H160, key: H256, value: H256) {
        let slots = self.storage.entry(addr).or_default();
        if value.is_zero() {
            slots.remove(&key);
        } else {
            slots.insert(key, value);
        }
    }

    /// Number of non-zero storage slots under an address.
    pub fn storage_len(&self, addr: &H160) -> usize {
        self.storage.get(addr).map(BTreeMap::len).unwrap_or(0)
    }

    /// Deploys code at an address.
    pub fn set_code(&mut self, addr: H160, code: Vec<u8>) {
        self.account_mut(addr).code = code;
    }

    /// The contract code at an address (empty if none).
    pub fn code(&self, addr: &H160) -> Vec<u8> {
        self.accounts
            .get(addr)
            .map(|a| a.code.clone())
            .unwrap_or_default()
    }

    /// Deterministic digest of the whole state (accounts and storage in
    /// canonical order) — the header's `state_root`.
    pub fn root(&self) -> H256 {
        let mut h = Sha256::new();
        for (addr, acct) in &self.accounts {
            h.update(addr.as_bytes());
            h.update(&acct.nonce.to_le_bytes());
            h.update(&acct.balance.to_le_bytes());
            h.update(&(acct.code.len() as u64).to_le_bytes());
            h.update(&acct.code);
        }
        for (addr, slots) in &self.storage {
            if slots.is_empty() {
                continue;
            }
            h.update(addr.as_bytes());
            for (k, v) in slots {
                h.update(k.as_bytes());
                h.update(v.as_bytes());
            }
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> H160 {
        let mut b = [0u8; 20];
        b[0] = n;
        H160::from_bytes(b)
    }

    #[test]
    fn fresh_accounts_are_zeroed() {
        let s = State::new();
        assert_eq!(s.balance(&addr(1)), 0);
        assert_eq!(s.nonce(&addr(1)), 0);
        assert!(!s.account(&addr(1)).is_contract());
    }

    #[test]
    fn credit_debit_roundtrip() {
        let mut s = State::new();
        s.credit(addr(1), 100);
        assert_eq!(s.balance(&addr(1)), 100);
        s.debit(addr(1), 30).unwrap();
        assert_eq!(s.balance(&addr(1)), 70);
        assert_eq!(
            s.debit(addr(1), 71),
            Err(StateError::InsufficientBalance {
                needed: 71,
                available: 70
            })
        );
        assert_eq!(s.balance(&addr(1)), 70, "failed debit must not mutate");
    }

    #[test]
    fn transfer_moves_value() {
        let mut s = State::new();
        s.credit(addr(1), 50);
        s.transfer(addr(1), addr(2), 20).unwrap();
        assert_eq!(s.balance(&addr(1)), 30);
        assert_eq!(s.balance(&addr(2)), 20);
        assert!(s.transfer(addr(1), addr(2), 31).is_err());
    }

    #[test]
    fn nonce_consumption_is_strict() {
        let mut s = State::new();
        s.consume_nonce(addr(1), 0).unwrap();
        s.consume_nonce(addr(1), 1).unwrap();
        assert_eq!(
            s.consume_nonce(addr(1), 1),
            Err(StateError::NonceMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(s.nonce(&addr(1)), 2);
    }

    #[test]
    fn storage_slots() {
        let mut s = State::new();
        let k = blockfed_crypto::sha256::sha256(b"slot");
        let v = blockfed_crypto::sha256::sha256(b"value");
        assert!(s.storage_get(&addr(1), &k).is_zero());
        s.storage_set(addr(1), k, v);
        assert_eq!(s.storage_get(&addr(1), &k), v);
        assert_eq!(s.storage_len(&addr(1)), 1);
        // Writing zero clears.
        s.storage_set(addr(1), k, H256::zero());
        assert_eq!(s.storage_len(&addr(1)), 0);
    }

    #[test]
    fn code_deployment() {
        let mut s = State::new();
        s.set_code(addr(3), vec![1, 2, 3]);
        assert!(s.account(&addr(3)).is_contract());
        assert_eq!(s.code(&addr(3)), vec![1, 2, 3]);
        assert_eq!(s.code(&addr(4)), Vec::<u8>::new());
    }

    #[test]
    fn root_changes_with_any_mutation() {
        let mut s = State::new();
        let r0 = s.root();
        s.credit(addr(1), 1);
        let r1 = s.root();
        assert_ne!(r0, r1);
        s.storage_set(addr(1), H256::zero(), blockfed_crypto::sha256::sha256(b"x"));
        let r2 = s.root();
        assert_ne!(r1, r2);
        // Same mutations from scratch give the same root (determinism).
        let mut t = State::new();
        t.credit(addr(1), 1);
        t.storage_set(addr(1), H256::zero(), blockfed_crypto::sha256::sha256(b"x"));
        assert_eq!(t.root(), r2);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let mut a = State::new();
        a.credit(addr(1), 5);
        a.credit(addr(2), 7);
        let mut b = State::new();
        b.credit(addr(2), 7);
        b.credit(addr(1), 5);
        assert_eq!(a.root(), b.root());
    }
}

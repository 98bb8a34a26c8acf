//! Combination enumeration and fitness-threshold filtering.
//!
//! Section III of the paper: "a test dataset is prepared to evaluate the fitness
//! of the shared model. If the evaluation is over a pre-set threshold, the worker
//! will then include that model in their aggregation process; otherwise, it will
//! be ignored."

use crate::update::ClientId;

/// A subset of clients whose models are aggregated together.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Combination(Vec<ClientId>);

impl Combination {
    /// Creates a combination, sorting and deduplicating members.
    pub fn new(mut members: Vec<ClientId>) -> Self {
        members.sort();
        members.dedup();
        Combination(members)
    }

    /// The sorted members.
    pub fn members(&self) -> &[ClientId] {
        &self.0
    }

    /// Number of member clients.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the combination is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `client` participates.
    pub fn contains(&self, client: ClientId) -> bool {
        self.0.contains(&client)
    }

    /// The paper's label style: members concatenated with the owner first if
    /// present (e.g. client B labels `{A, B}` as `"B,A"`). With no owner the
    /// label is plain member order (`"A,B"`).
    pub fn label(&self, owner: Option<ClientId>) -> String {
        let mut ids: Vec<ClientId> = self.0.clone();
        if let Some(o) = owner {
            if let Some(pos) = ids.iter().position(|&c| c == o) {
                let me = ids.remove(pos);
                ids.insert(0, me);
            }
        }
        ids.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl std::fmt::Display for Combination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label(None))
    }
}

/// Enumerates every non-empty subset of the given clients, ordered by size then
/// lexicographically — the candidate space of the "consider" aggregation.
///
/// # Examples
///
/// ```
/// use blockfed_fl::{all_combinations, ClientId};
///
/// let combos = all_combinations(&[ClientId(0), ClientId(1)]);
/// assert_eq!(combos.len(), 3); // {A}, {B}, {A,B}
/// ```
pub fn all_combinations(clients: &[ClientId]) -> Vec<Combination> {
    let n = clients.len();
    assert!(
        n <= 20,
        "combination enumeration beyond 20 clients is intractable"
    );
    if n == 0 {
        return Vec::new();
    }
    // Enumerate k-subsets via an index vector (lexicographic successor),
    // size by size — no machine-word bitmask caps the client count; the
    // tractability assert above is the only bound.
    let mut out = Vec::with_capacity((1usize << n) - 1);
    let mut idx: Vec<usize> = Vec::with_capacity(n);
    for k in 1..=n {
        idx.clear();
        idx.extend(0..k);
        loop {
            out.push(Combination::new(idx.iter().map(|&i| clients[i]).collect()));
            // Advance to the next k-subset of 0..n in lexicographic order:
            // bump the rightmost index that still has headroom and reset
            // everything after it.
            let Some(pos) = (0..k).rev().find(|&i| idx[i] < n - k + i) else {
                break;
            };
            idx[pos] += 1;
            for i in pos + 1..k {
                idx[i] = idx[i - 1] + 1;
            }
        }
    }
    out.sort_by(|a, b| (a.len(), a.members()).cmp(&(b.len(), b.members())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<ClientId> {
        (0..n).map(ClientId).collect()
    }

    #[test]
    fn enumerates_all_nonempty_subsets() {
        let combos = all_combinations(&ids(3));
        assert_eq!(combos.len(), 7);
        // Ordered by size: three singletons, three pairs, one triple.
        assert_eq!(combos[0].len(), 1);
        assert_eq!(combos[3].len(), 2);
        assert_eq!(combos[6].len(), 3);
        assert_eq!(combos[6].members(), &ids(3));
    }

    #[test]
    fn empty_input_gives_no_combinations() {
        assert!(all_combinations(&[]).is_empty());
    }

    #[test]
    fn combination_dedups_and_sorts() {
        let c = Combination::new(vec![ClientId(2), ClientId(0), ClientId(2)]);
        assert_eq!(c.members(), &[ClientId(0), ClientId(2)]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(ClientId(0)));
        assert!(!c.contains(ClientId(1)));
    }

    #[test]
    fn labels_match_paper_style() {
        let c = Combination::new(vec![ClientId(0), ClientId(1)]);
        assert_eq!(c.label(None), "A,B");
        // Client B writes its own combination as "B,A" (Table III's row names).
        assert_eq!(c.label(Some(ClientId(1))), "B,A");
        // Owner not in the combination leaves the order untouched.
        assert_eq!(c.label(Some(ClientId(2))), "A,B");
        assert_eq!(c.to_string(), "A,B");
    }

    #[test]
    #[should_panic(expected = "intractable")]
    fn refuses_huge_enumerations() {
        let _ = all_combinations(&ids(21));
    }
}

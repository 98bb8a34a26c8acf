//! Combination enumeration and the record of a combination search's scores.
//!
//! Section III of the paper: "a test dataset is prepared to evaluate the fitness
//! of the shared model. If the evaluation is over a pre-set threshold, the worker
//! will then include that model in their aggregation process; otherwise, it will
//! be ignored."

use std::fmt;
use std::ops::ControlFlow;

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
    ///
    /// Built on demand: a [`CandidateScores`] record keeps scores, not
    /// labels, and writes each candidate's label only when it is read.
    pub fn label(&self, owner: Option<ClientId>) -> String {
        let mut out = String::with_capacity(2 * self.0.len());
        write_label(&mut out, self.0.iter().copied(), owner);
        out
    }
}

impl fmt::Display for Combination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label(None))
    }
}

/// Appends the label of the sorted `members` to `out`: the owner first if it
/// is a member, then the rest in order, comma-separated.
fn write_label(
    out: &mut String,
    members: impl Iterator<Item = ClientId> + Clone,
    owner: Option<ClientId>,
) {
    use fmt::Write;
    let owner = owner.filter(|&o| members.clone().any(|c| c == o));
    let rest = members.filter(|&c| Some(c) != owner);
    for (i, id) in owner.into_iter().chain(rest).enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{id}").expect("writing to a String cannot fail");
    }
}

/// The most clients a combination search enumerates (`2^20 - 1` candidates).
const MAX_SEARCH_CLIENTS: usize = 20;

/// The subsets of `0..n` in size-then-lexicographic order, from the first
/// subset of a given size through the full set — the one successor loop
/// behind [`all_combinations`], the "consider" search's candidate masks and
/// a [`CandidateScores`] record's labels.
pub(crate) struct SubsetWalk {
    n: usize,
    idx: Vec<usize>,
    fresh: bool,
}

impl SubsetWalk {
    /// Every non-empty subset of `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 20: the search would score over a million
    /// candidates.
    pub(crate) fn non_empty(n: usize) -> Self {
        assert!(
            n <= MAX_SEARCH_CLIENTS,
            "combination enumeration beyond 20 clients is intractable"
        );
        SubsetWalk::from_size(n, 1)
    }

    /// A walk that starts at `{0, …, k-1}`: `k = n` visits only the full
    /// set. Empty when `k > n`.
    fn from_size(n: usize, k: usize) -> Self {
        SubsetWalk {
            n,
            idx: (0..k).collect(),
            fresh: true,
        }
    }

    /// The next subset as sorted indices, or `None` once the full set has
    /// been visited.
    pub(crate) fn advance(&mut self) -> Option<&[usize]> {
        let (n, k) = (self.n, self.idx.len());
        if k > n {
            return None;
        }
        if std::mem::take(&mut self.fresh) {
            return Some(&self.idx);
        }
        // Bump the rightmost index that still has headroom and reset
        // everything after it; past the last k-subset, start the first
        // (k+1)-subset.
        match (0..k).rev().find(|&i| self.idx[i] < n - k + i) {
            Some(pos) => {
                self.idx[pos] += 1;
                for i in pos + 1..k {
                    self.idx[i] = self.idx[i - 1] + 1;
                }
            }
            None if k < n => {
                self.idx.clear();
                self.idx.extend(0..=k);
            }
            None => return None,
        }
        Some(&self.idx)
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
    let mut walk = SubsetWalk::non_empty(n);
    let mut out = Vec::with_capacity((1usize << n) - 1);
    while let Some(idx) = walk.advance() {
        out.push(Combination::new(idx.iter().map(|&i| clients[i]).collect()));
    }
    // The walk follows the order of `clients`; sorting puts unsorted input
    // in member order too.
    out.sort_by(|a, b| (a.len(), a.members()).cmp(&(b.len(), b.members())));
    out
}

/// Every candidate one aggregation scored, without a label or a member list
/// per candidate: the sorted member clients and one score per candidate.
///
/// An exhaustive ("consider") record holds `2^n - 1` scores for `n` clients,
/// and score `i` belongs to the `i`-th combination in [`all_combinations`]
/// order. A single-candidate record (`NotConsider`, `BestK`) holds one score,
/// which belongs to the whole member set. Labels are the paper's owner-first
/// [`Combination::label`]s for the owner set by
/// [`CandidateScores::with_owner`], written only when read: `Debug` prints
/// exactly what a `Vec<(String, f64)>` of `(label, score)` pairs prints.
///
/// # Examples
///
/// ```
/// use blockfed_fl::{CandidateScores, ClientId};
///
/// let scores = CandidateScores::exhaustive(vec![ClientId(0), ClientId(1)], vec![0.5, 0.75, 0.25])
///     .with_owner(ClientId(1));
/// assert_eq!(scores.len(), 3);
/// assert_eq!(scores.accuracy_of("B,A"), Some(0.25));
/// assert_eq!(format!("{scores:?}"), r#"[("A", 0.5), ("B", 0.75), ("B,A", 0.25)]"#);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct CandidateScores {
    members: Vec<ClientId>,
    owner: Option<ClientId>,
    scores: Vec<f64>,
}

impl CandidateScores {
    /// The record of a search over every non-empty subset of `members`.
    ///
    /// # Panics
    ///
    /// Panics unless `members` is sorted without duplicates, at most 20
    /// long, and `scores` holds one score per non-empty subset.
    pub fn exhaustive(members: Vec<ClientId>, mut scores: Vec<f64>) -> Self {
        assert!(
            members.len() <= MAX_SEARCH_CLIENTS,
            "combination enumeration beyond 20 clients is intractable"
        );
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and distinct"
        );
        assert_eq!(
            scores.len(),
            (1usize << members.len()) - 1,
            "one score per non-empty subset"
        );
        scores.shrink_to_fit();
        CandidateScores {
            members,
            owner: None,
            scores,
        }
    }

    /// The record of a strategy that scored one candidate.
    pub fn single(combination: Combination, score: f64) -> Self {
        CandidateScores {
            members: combination.0,
            owner: None,
            scores: vec![score],
        }
    }

    /// Labels candidates owner-first for `owner` (see [`Combination::label`]).
    #[must_use]
    pub fn with_owner(mut self, owner: ClientId) -> Self {
        self.owner = Some(owner);
        self
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether no candidate was scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The member indices of each candidate, in candidate order: the whole
    /// set for a single candidate, however many members it has.
    fn walk(&self) -> SubsetWalk {
        let n = self.members.len();
        if self.scores.len() == 1 {
            SubsetWalk::from_size(n, n)
        } else {
            SubsetWalk::non_empty(n)
        }
    }

    /// Every candidate's combination with its score, in candidate order.
    pub fn combinations(&self) -> impl Iterator<Item = (Combination, f64)> + '_ {
        let mut walk = self.walk();
        self.scores.iter().map(move |&score| {
            let idx = walk.advance().expect("one subset per score");
            (
                Combination(idx.iter().map(|&i| self.members[i]).collect()),
                score,
            )
        })
    }

    /// Every candidate's label with its score, in candidate order; each
    /// label is a fresh `String`.
    pub fn iter(&self) -> impl Iterator<Item = (String, f64)> + '_ {
        let mut walk = self.walk();
        self.scores.iter().map(move |&score| {
            let idx = walk.advance().expect("one subset per score");
            let mut label = String::with_capacity(2 * idx.len());
            write_label(&mut label, idx.iter().map(|&i| self.members[i]), self.owner);
            (label, score)
        })
    }

    /// The score of the candidate labelled `label`, if there is one.
    pub fn accuracy_of(&self, label: &str) -> Option<f64> {
        self.try_for_each_label(|l, score| {
            if l == label {
                ControlFlow::Break(score)
            } else {
                ControlFlow::Continue(())
            }
        })
        .break_value()
    }

    /// Visits every candidate's label and score in order through one reused
    /// label buffer, stopping at the first `Break`.
    fn try_for_each_label<B>(
        &self,
        mut visit: impl FnMut(&str, f64) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut walk = self.walk();
        let mut label = String::new();
        for &score in &self.scores {
            let idx = walk.advance().expect("one subset per score");
            label.clear();
            write_label(&mut label, idx.iter().map(|&i| self.members[i]), self.owner);
            visit(&label, score)?;
        }
        ControlFlow::Continue(())
    }
}

impl fmt::Debug for CandidateScores {
    /// The bytes `Vec<(String, f64)>`'s derived `Debug` prints for the
    /// `(label, score)` pairs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        let _ = self.try_for_each_label(|label, score| {
            list.entry(&(label, score));
            ControlFlow::<()>::Continue(())
        });
        list.finish()
    }
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

    /// The label as it was first written: clone the members, move the
    /// owner to the front, format each id on its own and join.
    fn joined_label(c: &Combination, owner: Option<ClientId>) -> String {
        let mut ids: Vec<ClientId> = c.members().to_vec();
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

    #[test]
    fn label_matches_the_joined_form() {
        let letters = Combination::new(vec![ClientId(4), ClientId(0), ClientId(2)]);
        let wide = Combination::new(vec![ClientId(30), ClientId(1), ClientId(26), ClientId(99)]);
        let single = Combination::new(vec![ClientId(27)]);
        for c in [&letters, &wide, &single] {
            let owners = [
                None,
                Some(ClientId(2)),
                Some(ClientId(30)),
                Some(ClientId(27)),
            ];
            for owner in owners
                .into_iter()
                .chain(c.members().iter().map(|&m| Some(m)))
            {
                assert_eq!(
                    c.label(owner),
                    joined_label(c, owner),
                    "{c:?} owner {owner:?}"
                );
            }
        }
        // The three cases spelled out: an owner present, no owner, and ids
        // past the alphabet.
        assert_eq!(letters.label(Some(ClientId(2))), "C,A,E");
        assert_eq!(letters.label(None), "A,C,E");
        assert_eq!(
            wide.label(Some(ClientId(30))),
            "client#30,B,client#26,client#99"
        );
        assert_eq!(Combination::new(Vec::new()).label(None), "");
    }

    /// Distinct, awkward scores: negative zero, a subnormal, integers,
    /// long fractions.
    fn scores(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 4 {
                0 if i == 0 => -0.0,
                1 => f64::MIN_POSITIVE / (i as f64 + 2.0),
                2 => i as f64,
                _ => i as f64 / 7.0,
            })
            .collect()
    }

    /// The record as it was stored before: one owner-first label per
    /// candidate.
    fn labelled(
        combos: &[Combination],
        scores: &[f64],
        owner: Option<ClientId>,
    ) -> Vec<(String, f64)> {
        combos
            .iter()
            .zip(scores)
            .map(|(c, &s)| (c.label(owner), s))
            .collect()
    }

    /// `rec` prints, in both `Debug` forms, and iterates exactly `old`,
    /// and `accuracy_of` finds every `step`-th printed label.
    fn assert_prints_as(rec: &CandidateScores, old: &[(String, f64)], step: usize) {
        assert_eq!(format!("{rec:?}"), format!("{old:?}"));
        assert_eq!(format!("{rec:#?}"), format!("{old:#?}"));
        assert_eq!(rec.len(), old.len());
        assert!(rec.iter().eq(old.iter().cloned()));
        for (label, score) in old.iter().step_by(step).chain(old.last()) {
            let found = rec.accuracy_of(label).expect("printed label is held");
            assert_eq!(found.to_bits(), score.to_bits(), "{label}");
        }
    }

    #[test]
    fn record_prints_the_bytes_of_the_labelled_list() {
        let wide = [ClientId(3), ClientId(26), ClientId(30), ClientId(99)];
        let cases: [(Vec<ClientId>, usize); 4] =
            [(ids(1), 1), (ids(3), 1), (wide.to_vec(), 1), (ids(14), 97)];
        for (clients, step) in cases {
            let combos = all_combinations(&clients);
            let scores = scores(combos.len());
            let inside = clients[clients.len() / 2];
            // Owner inside the set, outside it, and none.
            for owner in [Some(inside), Some(ClientId(200)), None] {
                let mut rec = CandidateScores::exhaustive(clients.clone(), scores.clone());
                if let Some(o) = owner {
                    rec = rec.with_owner(o);
                }
                let old = labelled(&combos, &scores, owner);
                assert_prints_as(&rec, &old, step);
                assert!(rec
                    .combinations()
                    .eq(combos.iter().cloned().zip(scores.clone())));
            }
        }
        // `client#N` labels, owner-first.
        let rec = CandidateScores::exhaustive(wide.to_vec(), scores(15)).with_owner(ClientId(30));
        assert!(format!("{rec:?}").contains(r#"("client#30,D,client#26", "#));
    }

    #[test]
    fn single_candidate_records_print_the_chosen_combination() {
        use crate::strategy::{aggregate, Strategy};
        use crate::update::ModelUpdate;
        use rand::SeedableRng;
        let updates: Vec<ModelUpdate> = [30usize, 2, 27, 0]
            .into_iter()
            .map(|c| ModelUpdate::new(ClientId(c), 1, vec![c as f32], 10))
            .collect();
        // Wider than an exhaustive search may go: a single candidate has
        // no enumeration bound.
        let wide: Vec<ModelUpdate> = (0..30)
            .map(|c| ModelUpdate::new(ClientId(c), 1, vec![c as f32], 10))
            .collect();
        let refs: Vec<&ModelUpdate> = updates.iter().collect();
        let wide_refs: Vec<&ModelUpdate> = wide.iter().collect();
        let cases = [
            (Strategy::BestK(2), &refs),
            (Strategy::NotConsider, &refs),
            (Strategy::BestK(25), &wide_refs),
            (Strategy::NotConsider, &wide_refs),
        ];
        for (strategy, refs) in cases {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let out = aggregate(strategy, refs, |p| f64::from(p[0]) / 3.0, &mut rng).unwrap();
            for owner in [ClientId(27), ClientId(2), ClientId(1)] {
                let rec = out.candidates.clone().with_owner(owner);
                let old = vec![(out.combination.label(Some(owner)), out.score)];
                assert_prints_as(&rec, &old, 1);
            }
        }
    }

    #[test]
    fn accuracy_of_misses_labels_it_does_not_hold() {
        let rec = CandidateScores::exhaustive(ids(3), scores(7)).with_owner(ClientId(1));
        assert_eq!(rec.accuracy_of("B,A"), Some(3.0 / 7.0));
        for absent in ["A,B", "D", "", "A,A", "B,A,C,", "a"] {
            assert_eq!(rec.accuracy_of(absent), None, "{absent:?}");
        }
        let empty = CandidateScores::default();
        assert_eq!(format!("{empty:?}"), "[]");
        assert_eq!(empty.accuracy_of(""), None);
    }

    #[test]
    fn a_fourteen_client_record_holds_one_f64_per_candidate() {
        use crate::strategy::{aggregate, Strategy};
        use crate::update::ModelUpdate;
        use rand::SeedableRng;
        let updates: Vec<ModelUpdate> = (0..14)
            .map(|c| ModelUpdate::new(ClientId(c), 1, vec![c as f32], 1 + c))
            .collect();
        let refs: Vec<&ModelUpdate> = updates.iter().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let out = aggregate(Strategy::Consider, &refs, |p| f64::from(p[0]), &mut rng).unwrap();
        let rec = out.candidates.with_owner(ClientId(4));
        assert_eq!(rec.len(), 16_383);
        // Everything the record owns on the heap: no label, no member list
        // per candidate.
        let heap = rec.scores.capacity() * std::mem::size_of::<f64>()
            + rec.members.capacity() * std::mem::size_of::<ClientId>();
        assert!(
            heap <= 8 * 16_383 + 16 * 14,
            "record owns {heap} heap bytes"
        );
        // A pool evaluator's scores may come in a larger buffer (collected
        // in place from per-slot options); the record keeps only the scores.
        let mut loose = Vec::with_capacity(2 * 16_383);
        loose.extend_from_slice(&rec.scores);
        let rec = CandidateScores::exhaustive(ids(14), loose);
        assert_eq!(rec.scores.capacity(), 16_383);
    }

    #[test]
    fn subset_walks_start_at_their_size_and_stay_finished() {
        let mut full = SubsetWalk::from_size(3, 3);
        assert_eq!(full.advance(), Some(&[0, 1, 2][..]));
        assert_eq!(full.advance(), None);
        assert_eq!(full.advance(), None);
        let mut none = SubsetWalk::from_size(0, 1);
        assert_eq!(none.advance(), None);
        assert_eq!(none.advance(), None);
        let mut empty_set = SubsetWalk::from_size(0, 0);
        assert_eq!(empty_set.advance(), Some(&[][..]));
        assert_eq!(empty_set.advance(), None);
        let mut pairs = SubsetWalk::from_size(4, 2);
        let mut seen = Vec::new();
        while let Some(idx) = pairs.advance() {
            seen.push(idx.to_vec());
        }
        let want: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3],
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 2, 3],
            vec![1, 2, 3],
            vec![0, 1, 2, 3],
        ];
        assert_eq!(seen, want);
    }

    #[test]
    #[should_panic(expected = "intractable")]
    fn refuses_huge_enumerations() {
        let _ = all_combinations(&ids(21));
    }
}

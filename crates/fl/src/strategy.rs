//! The paper's two aggregation strategies.
//!
//! * **"not consider"** — Vanilla FedAvg over every received update.
//! * **"consider"** — enumerate model combinations, evaluate each candidate
//!   aggregate on a test set, and keep the best (ties broken uniformly at
//!   random, as in §IV-B1: "the device selects one of them randomly").

use rand::Rng;

use crate::fedavg::{accumulate, fed_avg, validate, AggregateError, UpdateCheck};
use crate::selector::{CandidateScores, Combination, SubsetWalk};
use crate::update::{ClientId, ModelUpdate};

/// Aggregation strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Aggregate all updates (the paper's "not consider").
    NotConsider,
    /// Search all combinations and keep the best on a test set ("consider").
    Consider,
    /// Aggregate the `k` best *standalone* models (by test-set score) — the
    /// §III knob "each aggregator can desire how many local updates she/he
    /// would use to aggregate", at linear rather than exponential cost.
    /// `k ≥ n` degrades to aggregating everything.
    BestK(usize),
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::NotConsider => write!(f, "not consider"),
            Strategy::Consider => write!(f, "consider"),
            Strategy::BestK(k) => write!(f, "best-{k}"),
        }
    }
}

/// The outcome of an aggregation decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationOutcome {
    /// The chosen aggregated parameters.
    pub params: Vec<f32>,
    /// Which combination produced them.
    pub combination: Combination,
    /// The evaluation score of the chosen candidate.
    pub score: f64,
    /// Every candidate evaluated, with its score (for the paper's per-
    /// combination tables).
    pub candidates: CandidateScores,
}

/// Parameters the default [`CandidateEvaluator::score_source`] builds
/// before handing them to [`CandidateEvaluator::score_batch`]: 4 MiB of
/// `f32`s per chunk, whatever the model size.
const SOURCE_CHUNK_FLOATS: usize = 1 << 20;

/// The "consider" search's candidates, built on demand: candidate `i` is the
/// FedAvg of the `i`-th combination's members, written into a caller's
/// buffer. Only [`aggregate_with`] constructs one, after checking that every
/// combination can be averaged, so building never fails.
pub struct CandidateSource<'a> {
    updates: &'a [&'a ModelUpdate],
    /// Per update: its client's bit in a combination mask.
    bits: Vec<u32>,
    /// Per combination: its member mask and total sample weight.
    combos: Vec<(u32, f64)>,
    dim: usize,
}

impl<'a> CandidateSource<'a> {
    /// Checks each update once, then every non-empty subset of `clients`
    /// (sorted, distinct, at most 20) against [`fed_avg`]'s rules in
    /// [`all_combinations`](crate::all_combinations) order, returning the
    /// error [`fed_avg`] would return for the first combination that fails.
    fn new(updates: &'a [&'a ModelUpdate], clients: &[ClientId]) -> Result<Self, AggregateError> {
        let mut walk = SubsetWalk::non_empty(clients.len());
        let checks: Vec<UpdateCheck> = updates.iter().map(|u| UpdateCheck::of(u)).collect();
        let bits: Vec<u32> = updates
            .iter()
            .map(|u| 1 << clients.binary_search(&u.client).expect("client is listed"))
            .collect();
        let mut masks = Vec::with_capacity((1usize << clients.len()) - 1);
        while let Some(idx) = walk.advance() {
            let mask = idx.iter().fold(0, |m, &i| m | 1u32 << i);
            let members = checks.iter().zip(&bits).filter(|(_, &b)| mask & b != 0);
            let (_, total) = validate(members.map(|(c, _)| *c))?;
            masks.push((mask, total));
        }
        Ok(CandidateSource {
            updates,
            bits,
            combos: masks,
            dim: updates.first().map_or(0, |u| u.params.len()),
        })
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// Parameter count of every candidate.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Writes candidate `index` into `out`, accumulating in `acc`: the
    /// bits [`fed_avg`] returns for that combination's members.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or either buffer is not
    /// [`CandidateSource::dim`] long.
    pub fn build(&self, index: usize, acc: &mut [f64], out: &mut [f32]) {
        assert_eq!(acc.len(), self.dim, "accumulator length");
        assert_eq!(out.len(), self.dim, "candidate buffer length");
        let (mask, total) = self.combos[index];
        let members = self.updates.iter().zip(&self.bits);
        let weighted = members
            .filter(|(_, &b)| mask & b != 0)
            .map(|(u, _)| (*u, u.sample_count as f64 / total));
        acc.fill(0.0);
        accumulate(acc, 0, weighted);
        for (o, &a) in out.iter_mut().zip(acc.iter()) {
            *o = a as f32;
        }
    }
}

/// Scores candidate parameter vectors (higher is better; typically test-set
/// accuracy).
///
/// Any `FnMut(&[f32]) -> f64` closure is an evaluator (scoring serially), so
/// closure-based call sites keep working. The decentralized orchestrator's
/// evaluator overrides [`CandidateEvaluator::score_source`] to build and
/// score each "consider" candidate on the compute worker that owns its
/// buffers.
pub trait CandidateEvaluator {
    /// Returns one score per candidate, in order.
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64>;

    /// Returns one score per candidate of `source`, in order. The default
    /// builds the candidates in fixed-size chunks and scores each chunk with
    /// [`CandidateEvaluator::score_batch`], so memory is bounded by one chunk
    /// rather than the whole search.
    fn score_source(&mut self, source: &CandidateSource<'_>) -> Vec<f64> {
        let dim = source.dim();
        let chunk = (SOURCE_CHUNK_FLOATS / dim.max(1)).clamp(1, source.len().max(1));
        let mut acc = vec![0.0f64; dim];
        let mut built = vec![vec![0.0f32; dim]; chunk];
        let mut scores = Vec::with_capacity(source.len());
        for start in (0..source.len()).step_by(chunk) {
            let built = &mut built[..chunk.min(source.len() - start)];
            for (i, buf) in (start..).zip(built.iter_mut()) {
                source.build(i, &mut acc, buf);
            }
            let refs: Vec<&[f32]> = built.iter().map(Vec::as_slice).collect();
            scores.extend(self.score_batch(&refs));
        }
        scores
    }
}

impl<F: FnMut(&[f32]) -> f64> CandidateEvaluator for F {
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64> {
        candidates.iter().map(|c| self(c)).collect()
    }
}

/// Aggregates `updates` under `strategy`, scoring candidates with `evaluate`
/// (higher is better; typically test-set accuracy).
///
/// # Errors
///
/// Returns [`AggregateError`] if the updates cannot be aggregated at all.
pub fn aggregate<R: Rng + ?Sized>(
    strategy: Strategy,
    updates: &[&ModelUpdate],
    mut evaluate: impl FnMut(&[f32]) -> f64,
    rng: &mut R,
) -> Result<AggregationOutcome, AggregateError> {
    aggregate_with(strategy, updates, &mut evaluate, rng)
}

/// [`aggregate`] with an explicit [`CandidateEvaluator`], allowing candidate
/// scoring to run in parallel. "Consider" hands the evaluator a
/// [`CandidateSource`] and keeps only the scores; the winner's parameters are
/// recomputed with [`fed_avg`] after the tie-break.
///
/// # Errors
///
/// Returns [`AggregateError`] if the updates cannot be aggregated at all;
/// for "consider", the error [`fed_avg`] returns on the first combination
/// that cannot be averaged.
pub fn aggregate_with<E: CandidateEvaluator + ?Sized, R: Rng + ?Sized>(
    strategy: Strategy,
    updates: &[&ModelUpdate],
    evaluator: &mut E,
    rng: &mut R,
) -> Result<AggregationOutcome, AggregateError> {
    match strategy {
        Strategy::NotConsider => {
            let params = fed_avg(updates)?;
            let members: Vec<ClientId> = updates.iter().map(|u| u.client).collect();
            let combination = Combination::new(members);
            let score = evaluator.score_batch(&[&params])[0];
            Ok(AggregationOutcome {
                params,
                candidates: CandidateScores::single(combination.clone(), score),
                combination,
                score,
            })
        }
        Strategy::Consider => {
            if updates.is_empty() {
                return Err(AggregateError::Empty);
            }
            let clients: Vec<ClientId> = {
                let mut c: Vec<ClientId> = updates.iter().map(|u| u.client).collect();
                c.sort();
                c.dedup();
                c
            };
            let source = CandidateSource::new(updates, &clients)?;
            let scores = evaluator.score_source(&source);
            assert_eq!(scores.len(), source.len(), "one score per candidate");
            // Highest score wins; ties broken uniformly at random.
            let best_score = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let tied: Vec<usize> = (0..scores.len())
                .filter(|&i| scores[i] == best_score)
                .collect();
            let chosen = tied[rng.gen_range(0..tied.len())];
            let mask = source.combos[chosen].0;
            let combination = Combination::new(
                (0..clients.len())
                    .filter(|&i| mask & 1 << i != 0)
                    .map(|i| clients[i])
                    .collect(),
            );
            let members: Vec<&ModelUpdate> = updates
                .iter()
                .copied()
                .filter(|u| combination.contains(u.client))
                .collect();
            Ok(AggregationOutcome {
                params: fed_avg(&members)?,
                combination,
                score: scores[chosen],
                candidates: CandidateScores::exhaustive(clients, scores),
            })
        }
        Strategy::BestK(k) => {
            if updates.is_empty() || k == 0 {
                return Err(AggregateError::Empty);
            }
            // Rank models by standalone score; ties broken uniformly at
            // random among equal scores via a random jitter key drawn per
            // update (deterministic given the rng).
            let standalone: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
            let scores = evaluator.score_batch(&standalone);
            let mut ranked: Vec<(f64, f64, &ModelUpdate)> = updates
                .iter()
                .zip(scores)
                .map(|(&u, s)| (s, rng.gen::<f64>(), u))
                .collect();
            ranked.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("finite standalone scores")
                    .then(b.1.partial_cmp(&a.1).expect("finite jitter"))
            });
            let selected: Vec<&ModelUpdate> = ranked
                .iter()
                .take(k.min(ranked.len()))
                .map(|(_, _, u)| *u)
                .collect();
            let params = fed_avg(&selected)?;
            let members: Vec<ClientId> = selected.iter().map(|u| u.client).collect();
            let combination = Combination::new(members);
            let score = evaluator.score_batch(&[&params])[0];
            Ok(AggregationOutcome {
                params,
                candidates: CandidateScores::single(combination.clone(), score),
                combination,
                score,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn upd(client: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate::new(ClientId(client), 0, params, 10)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn not_consider_averages_everything() {
        let a = upd(0, vec![0.0]);
        let b = upd(1, vec![2.0]);
        let out = aggregate(
            Strategy::NotConsider,
            &[&a, &b],
            |p| f64::from(p[0]),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(out.params, vec![1.0]);
        assert_eq!(out.combination.len(), 2);
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn consider_explores_all_candidates() {
        let a = upd(0, vec![0.0]);
        let b = upd(1, vec![2.0]);
        let c = upd(2, vec![4.0]);
        let out = aggregate(
            Strategy::Consider,
            &[&a, &b, &c],
            |p| f64::from(p[0]),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(out.candidates.len(), 7);
        // Highest mean is the singleton {C} with 4.0.
        assert_eq!(out.params, vec![4.0]);
        assert_eq!(out.combination.members(), &[ClientId(2)]);
        assert_eq!(out.score, 4.0);
    }

    #[test]
    fn consider_beats_or_matches_not_consider_on_the_selection_metric() {
        let a = upd(0, vec![1.0, -5.0]);
        let b = upd(1, vec![-3.0, 2.0]);
        let c = upd(2, vec![0.5, 0.5]);
        let score = |p: &[f32]| -> f64 { -f64::from(p.iter().map(|x| x * x).sum::<f32>()) };
        let all = [&a, &b, &c];
        let consider = aggregate(Strategy::Consider, &all, score, &mut rng()).unwrap();
        let not = aggregate(Strategy::NotConsider, &all, score, &mut rng()).unwrap();
        assert!(consider.score >= not.score);
    }

    #[test]
    fn ties_are_broken_randomly_but_deterministically_per_seed() {
        let a = upd(0, vec![1.0]);
        let b = upd(1, vec![1.0]);
        // All candidates score identically.
        let pick = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            aggregate(Strategy::Consider, &[&a, &b], |_| 0.5, &mut r)
                .unwrap()
                .combination
        };
        assert_eq!(pick(1), pick(1));
        // Across seeds, at least two different combinations must appear.
        let distinct: std::collections::HashSet<_> = (0..16).map(pick).collect();
        assert!(distinct.len() >= 2, "tie-break never varied");
    }

    #[test]
    fn empty_updates_error() {
        assert!(matches!(
            aggregate(Strategy::Consider, &[], |_| 0.0, &mut rng()),
            Err(AggregateError::Empty)
        ));
        assert!(matches!(
            aggregate(Strategy::NotConsider, &[], |_| 0.0, &mut rng()),
            Err(AggregateError::Empty)
        ));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::NotConsider.to_string(), "not consider");
        assert_eq!(Strategy::Consider.to_string(), "consider");
        assert_eq!(Strategy::BestK(2).to_string(), "best-2");
    }

    #[test]
    fn best_k_selects_highest_standalone_models() {
        let a = upd(0, vec![1.0]);
        let b = upd(1, vec![5.0]);
        let c = upd(2, vec![3.0]);
        // Standalone score = the parameter value itself.
        let out = aggregate(
            Strategy::BestK(2),
            &[&a, &b, &c],
            |p| f64::from(p[0]),
            &mut rng(),
        )
        .unwrap();
        // Best two are B (5.0) and C (3.0); equal weights → mean 4.0.
        assert_eq!(out.params, vec![4.0]);
        assert_eq!(out.combination.members(), &[ClientId(1), ClientId(2)]);
        assert_eq!(out.candidates.len(), 1);
    }

    #[test]
    fn best_k_oversized_k_uses_everything() {
        let a = upd(0, vec![0.0]);
        let b = upd(1, vec![2.0]);
        let out = aggregate(
            Strategy::BestK(10),
            &[&a, &b],
            |p| f64::from(p[0]),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(out.params, vec![1.0]);
        assert_eq!(out.combination.len(), 2);
    }

    #[test]
    fn best_one_is_the_single_best_model() {
        let a = upd(0, vec![1.0]);
        let b = upd(1, vec![9.0]);
        let out = aggregate(
            Strategy::BestK(1),
            &[&a, &b],
            |p| f64::from(p[0]),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(out.params, vec![9.0]);
        assert_eq!(out.combination.members(), &[ClientId(1)]);
    }

    #[test]
    fn best_k_zero_and_empty_error() {
        let a = upd(0, vec![1.0]);
        assert!(matches!(
            aggregate(Strategy::BestK(0), &[&a], |_| 0.0, &mut rng()),
            Err(AggregateError::Empty)
        ));
        assert!(matches!(
            aggregate(Strategy::BestK(2), &[], |_| 0.0, &mut rng()),
            Err(AggregateError::Empty)
        ));
    }

    #[test]
    fn best_k_tie_break_is_deterministic_per_seed_but_varies() {
        let a = upd(0, vec![1.0]);
        let b = upd(1, vec![1.0]);
        let c = upd(2, vec![1.0]);
        let pick = |seed: u64| {
            let mut r = StdRng::seed_from_u64(seed);
            aggregate(Strategy::BestK(1), &[&a, &b, &c], |_| 0.5, &mut r)
                .unwrap()
                .combination
        };
        assert_eq!(pick(3), pick(3));
        let distinct: std::collections::HashSet<_> = (0..24).map(pick).collect();
        assert!(distinct.len() >= 2, "tie-break never varied");
    }
}

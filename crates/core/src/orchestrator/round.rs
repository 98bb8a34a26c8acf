//! The round algorithm: per-round policy, candidate screening, tier-1
//! (committee) aggregation and the tier-2 cross-committee merge. Everything
//! here reads a [`Node`] and returns values — what was aggregated, who was
//! dropped and why, what is still missing — so a round can be computed with
//! no simulated network around it; applying a result is the driver's job.

use std::collections::{BTreeSet, HashMap, HashSet};

use blockfed_crypto::{H160, H256};
use blockfed_data::Dataset;
use blockfed_fl::{
    aggregate_with, AggregationOutcome, CandidateEvaluator, CandidateSource, ClientId, ModelUpdate,
    StalenessDecay, Strategy, WaitPolicy,
};
use blockfed_nn::{InferScratch, Sequential};
use blockfed_sim::{RngHub, SimTime};

use super::block_log::BlockLog;
use super::node::Node;
use super::{DecentralizedConfig, PeerRoundRecord};
use crate::committee::CommitteeSpec;
use crate::coupling::{AggregateRecord, ConfirmedSubmission};
use crate::policy::{PolicyDecision, PolicyEvent, RoundObservation, RuleConfig};

/// One compute worker's scoring state, kept for the whole run: a scratch
/// model and the inference scratch it is scored with, so scoring allocates
/// nothing per candidate.
struct Scorer {
    model: Sequential,
    infer: InferScratch,
}

impl Scorer {
    /// Test-set accuracy of `params`: `evaluate(test).accuracy`, without
    /// the loss or the allocations.
    fn accuracy(&mut self, params: &[f32], test: &Dataset) -> f64 {
        self.model.set_params_flat(params);
        self.model.accuracy(test, &mut self.infer)
    }
}

/// Scores candidate aggregates on a test set with one [`Scorer`] per compute
/// worker, so a round's combination search (the paper's "consider" loop,
/// exponential in peer count) runs across cores. Every score is a pure
/// function of its candidate, so scores are identical at any pool size.
struct PoolScorer<'a> {
    pool: &'a mut [Scorer],
    test: &'a Dataset,
}

impl CandidateEvaluator for PoolScorer<'_> {
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64> {
        let test = self.test;
        blockfed_compute::par_map_with(self.pool, candidates, |w, params| w.accuracy(params, test))
    }

    /// One dispatch in which each worker builds every candidate of its share
    /// into its own accumulator and parameter buffer, then scores it.
    fn score_source(&mut self, source: &CandidateSource<'_>) -> Vec<f64> {
        let (test, dim) = (self.test, source.dim());
        let mut workers: Vec<_> = self
            .pool
            .iter_mut()
            .map(|w| (w, vec![0.0f64; dim], vec![0.0f32; dim]))
            .collect();
        let indices: Vec<usize> = (0..source.len()).collect();
        blockfed_compute::par_map_with(&mut workers, &indices, |(w, acc, params), &i| {
            source.build(i, acc, params);
            w.accuracy(params, test)
        })
    }
}

/// One round's effective aggregation knobs.
#[derive(Clone, Copy)]
pub(super) struct RoundPolicy {
    pub wait: WaitPolicy,
    pub strategy: Strategy,
    pub decay: Option<StalenessDecay>,
}

/// The run's per-round policy table: the effective knobs for every round
/// (static config, `strategy_switch` and the rule's decisions all resolve
/// here), the threshold rule, and the decision log.
///
/// Invariant: round `r`'s policy never changes once any peer can be waiting
/// in it — the rule observes round `r` at its *first* aggregation and its
/// decisions apply to rounds `r + 1` onward only, so a wait bar can never
/// move under a peer mid-wait.
pub(super) struct PolicyEngine {
    /// Effective policy per round, indexed 1-based (`slot 0` unused).
    by_round: Vec<RoundPolicy>,
    rule: Option<RuleConfig>,
    pub decisions: Vec<PolicyEvent>,
    /// Highest round already observed by the rule (each round is observed
    /// once, at its first aggregation anywhere).
    last_observed: u32,
    /// Accuracy of the previous observation, for the delta signal.
    prev_accuracy: Option<f64>,
    /// The configured `strategy_switch` round, until the first aggregation
    /// at or past it takes it (see [`PolicyEngine::cutover_fires`]).
    cutover: Option<u32>,
}

impl PolicyEngine {
    fn new(cfg: &DecentralizedConfig) -> Self {
        let configured = RoundPolicy {
            wait: cfg.wait_policy,
            strategy: cfg.strategy,
            decay: cfg.staleness_decay,
        };
        let mut by_round = vec![configured; cfg.rounds as usize + 1];
        if let Some((from, strategy)) = cfg.strategy_switch {
            let from = (from as usize).min(by_round.len());
            for slot in &mut by_round[from..] {
                slot.strategy = strategy;
            }
        }
        PolicyEngine {
            by_round,
            rule: cfg.controller.as_ref().map(|c| c.rule.clone()),
            decisions: Vec::new(),
            last_observed: 0,
            prev_accuracy: None,
            cutover: cfg.strategy_switch.map(|(from, _)| from),
        }
    }

    /// The knobs `round` runs under.
    pub fn at(&self, round: u32) -> RoundPolicy {
        self.by_round[(round as usize).min(self.by_round.len() - 1)]
    }

    /// Whether `round` is the first aggregation at or past a configured
    /// `strategy_switch` — true exactly once per run.
    pub fn cutover_fires(&mut self, round: u32) -> bool {
        self.cutover.take_if(|from| round >= *from).is_some()
    }

    /// Feeds the rule the round `rec` just recorded — once per round, at its
    /// first aggregation anywhere — and applies its decisions to every later
    /// round. `bar` is the live membership of the aggregating peer's
    /// committee, the population its wait policy measured against. Returns
    /// the applied decisions (empty when no rule is set or it stays quiet).
    pub fn observe(
        &mut self,
        rec: &PeerRoundRecord,
        bar: usize,
        at: SimTime,
    ) -> Vec<PolicyDecision> {
        let round = rec.round;
        let Some(rule) = self.rule.as_ref().filter(|_| round > self.last_observed) else {
            return Vec::new();
        };
        self.last_observed = round;
        let accuracy = rec.chosen_accuracy;
        let accuracy_delta = self.prev_accuracy.map_or(0.0, |prev| accuracy - prev);
        self.prev_accuracy = Some(accuracy);
        let knobs = self.at(round);
        let decisions = rule.decide(&RoundObservation {
            wait_secs: rec.wait.as_secs_f64(),
            staleness_mean_secs: rec.update_age_mean.as_secs_f64(),
            accuracy_delta,
            active_peers: bar,
            wait_policy: knobs.wait,
            staleness_decay: knobs.decay,
        });
        let from = (round as usize + 1).min(self.by_round.len());
        for d in &decisions {
            for slot in &mut self.by_round[from..] {
                match *d {
                    PolicyDecision::SetWaitPolicy(w) => slot.wait = w,
                    PolicyDecision::SetStalenessDecay(dec) => slot.decay = dec,
                }
            }
            self.decisions.push(PolicyEvent {
                round,
                at,
                decision: *d,
            });
        }
        decisions
    }
}

/// The run's resolved committee layout: the committee count and the
/// peer→committee map derived once from the spec. Immutable for the whole
/// run, so every peer (and every thread) sees the same sharding. A flat run
/// is one committee holding everyone, so a single-committee spec reproduces
/// the unconfigured run byte for byte.
pub(super) struct Layout {
    pub count: usize,
    pub of: Vec<usize>,
}

impl Layout {
    fn new(cfg: &DecentralizedConfig, n: usize) -> Self {
        let spec = cfg.committees.unwrap_or(CommitteeSpec::contiguous(1));
        Layout {
            count: spec.count,
            of: spec.assign(n),
        }
    }

    /// The live members of `peer`'s committee: the bar its wait policy
    /// measures against.
    pub fn bar(&self, peer: usize, live: &[bool]) -> usize {
        (0..live.len())
            .filter(|&i| live[i] && self.same(i, peer))
            .count()
    }

    /// Whether peers `a` and `b` share a committee.
    pub fn same(&self, a: usize, b: usize) -> bool {
        self.of[a] == self.of[b]
    }

    /// Whether a committee is a proper subset of the population: only then
    /// does it elect a leader to publish its aggregate, and a merge follow.
    pub fn hierarchical(&self) -> bool {
        self.count > 1
    }
}

/// One published committee-level aggregate, indexed by the run's aggregate
/// log (events carry the index, not the parameters).
pub(super) struct AggArtifact {
    pub hash: H256,
    pub params: Vec<f32>,
    /// FedAvg weight for the tier-2 merge: sample counts behind the chosen
    /// tier-1 combination.
    pub weight: u64,
}

/// A screening gate, as `(reason, event)`: the reason its drops carry in
/// [`super::PeerRoundRecord::dropped`] and the telemetry instant naming them.
pub(super) type Gate = (&'static str, &'static str);

const MALFORMED: Gate = ("malformed", "anomaly.malformed");
const NORM: Gate = ("norm-outlier", "anomaly.norm");
const DEGENERATE: Gate = ("degenerate", "anomaly.degenerate");
const UNFIT: Gate = ("unfit", "anomaly.unfit");

/// A client excluded from an aggregation, and the gate that excluded it.
pub(super) type Dropped = (ClientId, Gate);

/// A held candidate: its on-chain fingerprint and the update itself.
type Candidate = (H256, ModelUpdate);

/// A completed tier-1 aggregation.
pub(super) struct Aggregated {
    pub outcome: AggregationOutcome,
    /// The updates the search ran over (after screening and re-weighting).
    pub usable: Vec<ModelUpdate>,
    /// Aligned with `usable`: each update's fingerprint, as confirmed on
    /// chain (so nobody re-hashes parameters to look an update up).
    pub fingerprints: Vec<H256>,
    /// Indices of the chosen combination's members.
    pub members: Vec<usize>,
    /// FedAvg weight the aggregate carries into the tier-2 merge: the sample
    /// counts behind the chosen combination.
    pub weight: u64,
}

/// A peer's own committee aggregate, parked between tier 1 and the merge.
pub(super) struct Tier1Pending {
    pub round: u32,
    /// When tier-1 aggregation completed (the tier-2 merge wait clock).
    pub done_at: SimTime,
    pub weight: u64,
    pub members: Vec<usize>,
    /// The aggregate's parameters: the peer's own share of the merge.
    pub params: Vec<f32>,
}

/// What one tier-2 attempt found.
pub(super) enum Tier2 {
    /// Some needed committee has no usable record yet. `wanted` names the
    /// aggregates a confirmed record points at that the peer does not hold.
    Waiting { wanted: Vec<H256> },
    /// The example-count-weighted mean of every needed committee's
    /// aggregate, and the union of their members.
    Merged {
        params: Vec<f32>,
        members: BTreeSet<usize>,
    },
}

/// The round engine: the committee layout, the policy state and the scratch
/// models scoring runs on. One per run, shared by every peer.
pub(super) struct RoundEngine<'a> {
    cfg: &'a DecentralizedConfig,
    pub hub: RngHub,
    pub layout: Layout,
    pub clients: HashMap<H160, ClientId>,
    pub policy: PolicyEngine,
    /// One scorer per compute worker (capped — beyond 8 the combination
    /// batches are too small to split further). Extra scratch models are
    /// parameter-level duplicates, so the `make_model` RNG stream — and with
    /// it every result — is independent of the worker count.
    pool: Vec<Scorer>,
}

impl<'a> RoundEngine<'a> {
    /// An engine for the peers at `addrs` (registry index = position),
    /// scoring on duplicates of `scratch`.
    pub fn new(
        cfg: &'a DecentralizedConfig,
        hub: RngHub,
        addrs: &[H160],
        scratch: Sequential,
    ) -> Self {
        let workers = blockfed_compute::num_threads().clamp(1, 8);
        let scorer = |model| Scorer {
            model,
            infer: InferScratch::default(),
        };
        let mut pool: Vec<Scorer> = (1..workers).map(|_| scorer(scratch.duplicate())).collect();
        pool.insert(0, scorer(scratch));
        RoundEngine {
            cfg,
            hub,
            layout: Layout::new(cfg, addrs.len()),
            clients: addrs.iter().copied().zip((0..).map(ClientId)).collect(),
            policy: PolicyEngine::new(cfg),
            pool,
        }
    }

    /// Whether the account at `addr` is a peer of `peer`'s committee.
    pub fn in_committee(&self, addr: &H160, peer: usize) -> bool {
        self.clients
            .get(addr)
            .is_some_and(|c| self.layout.same(c.0, peer))
    }

    /// Tier 1: aggregates `peer`'s `round` if its wait policy is satisfied
    /// by the submissions confirmed on its own chain whose payloads it holds.
    ///
    /// Wait policies measure against the population that can still deliver:
    /// the `live` peers of the committee set the *bar*, while any confirmed
    /// usable submission counts toward it — including one a since-departed
    /// peer published before leaving (its signed model remains a valid
    /// contribution). So after churn, "wait-all" means "as many confirmed
    /// models as there are live peers", which keeps rounds live without
    /// discarding legitimate updates.
    ///
    /// Returns every candidate a gate excluded — reported even when nothing
    /// aggregatable is left yet and the peer keeps waiting — and the
    /// aggregation, once the policy is satisfied and a usable candidate
    /// survives screening.
    pub fn tier1(
        &mut self,
        node: &mut Node,
        peer: usize,
        round: u32,
        live: &[bool],
        test: &Dataset,
        log: &BlockLog,
    ) -> (Vec<Dropped>, Option<Aggregated>) {
        let bar = self.layout.bar(peer, live);
        let policy = self.policy.at(round);
        // The bar is checked on plain counts first: this runs on every
        // delivered transaction, so no parameters are cloned until the policy
        // is satisfied. `ready` is monotone in the arrival count and the
        // count can never exceed either side of the intersection, so the
        // upper bound skips the membership scan for the long waiting phase.
        let subs = node.confirmed(round, log);
        let upper_bound = subs.len().min(node.model_store.len());
        if !policy.wait.ready(upper_bound, bar) || upper_bound == 0 {
            return (Vec::new(), None);
        }
        // Tier-1 candidates are this committee's submissions only.
        let held: Vec<&ConfirmedSubmission> = subs
            .iter()
            .filter(|s| self.in_committee(&s.sender, peer))
            .filter(|s| node.model_store.contains_key(&s.model_hash))
            .collect();
        if !policy.wait.ready(held.len(), bar) || held.is_empty() {
            return (Vec::new(), None);
        }
        let arrived: Vec<Candidate> = held
            .iter()
            .map(|s| (s.model_hash, node.model_store[&s.model_hash].clone()))
            .collect();
        let mut dropped = Vec::new();
        let quorum_full = arrived.len() == bar;
        let Some(usable) = self.screen(arrived, quorum_full, test, &mut dropped) else {
            return (dropped, None);
        };
        let (fingerprints, usable): (Vec<H256>, Vec<ModelUpdate>) = usable.into_iter().unzip();
        let usable = match policy.decay {
            None => usable,
            Some(decay) => reweigh_by_staleness(usable, &fingerprints, decay, node, &held),
        };
        let refs: Vec<&ModelUpdate> = usable.iter().collect();
        let mut rng = self
            .hub
            .indexed_stream("aggregate", (peer as u64) << 32 | u64::from(round));
        let mut scorer = PoolScorer {
            pool: &mut self.pool,
            test,
        };
        let outcome = aggregate_with(policy.strategy, &refs, &mut scorer, &mut rng)
            .expect("screening leaves at least one finite update");
        let members: Vec<usize> = outcome.combination.members().iter().map(|c| c.0).collect();
        let weight = usable
            .iter()
            .filter(|u| members.contains(&u.client.0))
            .map(|u| u.sample_count as u64)
            .sum::<u64>()
            .max(1);
        let done = Aggregated {
            outcome,
            usable,
            fingerprints,
            members,
            weight,
        };
        (dropped, Some(done))
    }

    /// Screens a round's arrived candidates through the malformed, norm,
    /// degeneracy and fitness gates, logging every exclusion in `dropped`.
    /// Returns the usable updates, or `None` when nothing aggregatable is
    /// left and the peer should keep waiting. `quorum_full`: every live peer
    /// of the committee has reported, so an all-fail fitness gate falls back
    /// to the single best model.
    fn screen(
        &mut self,
        arrived: Vec<Candidate>,
        quorum_full: bool,
        test: &Dataset,
        dropped: &mut Vec<Dropped>,
    ) -> Option<Vec<Candidate>> {
        // Malformed (non-finite) models can never enter an average; they are
        // dropped unconditionally and logged for the audit trail.
        let mut kept = drop_flagged(arrived, |_, u| !u.is_finite(), MALFORMED, dropped);
        if kept.is_empty() {
            return None;
        }
        // Statistical norm gate: drop cohort-level norm outliers.
        if let Some(z) = self.cfg.norm_z_threshold {
            let refs: Vec<&ModelUpdate> = kept.iter().map(|(_, u)| u).collect();
            let flagged = flagged_indices(crate::anomaly::detect_norm_outliers(&refs, z));
            kept = drop_flagged(kept, |i, _| flagged.contains(&i), NORM, dropped);
            if kept.is_empty() {
                return None;
            }
        }
        // Degeneracy gate: drop constant-prediction (free-rider) models. If
        // it would drop everything, skip it for liveness.
        if let Some(min) = self.cfg.degeneracy_min_classes {
            let refs: Vec<&ModelUpdate> = kept.iter().map(|(_, u)| u).collect();
            let scratch = &mut self.pool[0].model;
            let flagged = flagged_indices(crate::anomaly::detect_degenerate(&refs, min, |u| {
                scratch.set_params_flat(&u.params);
                scratch.evaluate_confusion(test)
            }));
            if flagged.len() < kept.len() {
                kept = drop_flagged(kept, |i, _| flagged.contains(&i), DEGENERATE, dropped);
            }
        }
        // §III fitness gate: drop models below the threshold on this peer's
        // own test data; if everything fails once all peers reported, fall
        // back to the single best model so a round can always complete.
        let Some(th) = self.cfg.fitness_threshold else {
            return Some(kept);
        };
        // Standalone fitness scores are independent per model: fan them
        // across the scratch pool.
        let accs = blockfed_compute::par_map_with(&mut self.pool[..], &kept, |w, (_, u)| {
            w.accuracy(&u.params, test)
        });
        if accs.iter().any(|a| *a >= th) {
            Some(drop_flagged(kept, |i, _| accs[i] < th, UNFIT, dropped))
        } else if quorum_full {
            let best = (1..accs.len()).fold(0, |b, i| if accs[i] > accs[b] { i } else { b });
            Some(vec![kept.swap_remove(best)])
        } else {
            None // wait for more candidates
        }
    }

    /// Tier 2, the cross-committee merge: a peer parked on `own` waits until
    /// every *needed* committee — one with a live member or a confirmed
    /// `record_aggregate` for the round — has a confirmed record whose
    /// aggregate the peer holds, then merges all committee aggregates by
    /// FedAvg weight in committee order (its own contributes `own.params`).
    /// The record chosen per committee is its lowest-indexed sender with
    /// parameters at hand (ties — a sender's tier-2 and tier-1 records —
    /// resolve to the earliest in chain order, the tier-1 one), so the merge
    /// is a pure function of chain + local artifacts: no coordination needed.
    pub fn tier2(
        &self,
        node: &mut Node,
        peer: usize,
        own: &Tier1Pending,
        live: &[bool],
        artifacts: &[AggArtifact],
        log: &BlockLog,
    ) -> Tier2 {
        let (count, my_com) = (self.layout.count, self.layout.of[peer]);
        let records = node.agg_records(own.round, log);
        // Per foreign committee, the best record by (artifact missing,
        // sender index): a held one if any record's artifact is held, else
        // the one whose artifact is worth pulling.
        let mut pick: Vec<Option<(bool, usize, &AggregateRecord)>> = vec![None; count];
        for rec in records.iter() {
            let Some(c) = self.clients.get(&rec.sender) else {
                continue;
            };
            let com = self.layout.of[c.0];
            let key = (!node.agg_store.contains_key(&rec.agg_hash), c.0);
            if com != my_com && pick[com].is_none_or(|(missing, s, _)| key < (missing, s)) {
                pick[com] = Some((key.0, key.1, rec));
            }
        }
        let mut needed: Vec<bool> = pick.iter().map(Option::is_some).collect();
        for i in (0..live.len()).filter(|&i| live[i]) {
            needed[self.layout.of[i]] = true;
        }
        let held = |com: usize| matches!(pick[com], Some((false, ..)));
        if !(0..count).all(|com| com == my_com || !needed[com] || held(com)) {
            let wanted = pick.iter().flatten().filter(|p| p.0);
            let wanted = wanted.map(|p| p.2.agg_hash).collect();
            return Tier2::Waiting { wanted };
        }
        let mut acc = vec![0f64; own.params.len()];
        let mut total_w = 0f64;
        let mut members: BTreeSet<usize> = own.members.iter().copied().collect();
        for (com, picked) in pick.iter().enumerate() {
            let (w, params) = if com == my_com {
                (own.weight, &own.params[..])
            } else if let Some((_, _, rec)) = picked {
                members.extend(rec.combo_mask.members());
                let art = &artifacts[node.agg_store[&rec.agg_hash]];
                (art.weight, &art.params[..])
            } else {
                continue; // not needed: no member, no record
            };
            let w = w.max(1) as f64;
            for (a, x) in acc.iter_mut().zip(params) {
                *a += w * f64::from(*x);
            }
            total_w += w;
        }
        Tier2::Merged {
            params: acc.iter().map(|a| (*a / total_w) as f32).collect(),
            members,
        }
    }
}

fn flagged_indices(reports: Vec<crate::anomaly::AnomalyReport>) -> HashSet<usize> {
    reports.into_iter().map(|r| r.index).collect()
}

/// Splits `candidates` by `flagged(index, update)`: flagged ones are logged
/// in `dropped` under `gate`, the rest are returned in order.
fn drop_flagged(
    candidates: Vec<Candidate>,
    flagged: impl Fn(usize, &ModelUpdate) -> bool,
    gate: Gate,
    dropped: &mut Vec<Dropped>,
) -> Vec<Candidate> {
    let mut kept = Vec::with_capacity(candidates.len());
    for (i, c) in candidates.into_iter().enumerate() {
        if flagged(i, &c.1) {
            dropped.push((c.1.client, gate));
        } else {
            kept.push(c);
        }
    }
    kept
}

/// Staleness-aware re-weighting (the age-of-block view): scales each
/// update's FedAvg weight by `decay.factor(s)` where `s` is how many blocks
/// bury its submission on `node`'s chain. Weights never drop below one sample
/// so a cutoff decay cannot zero the aggregate. `fingerprints` is aligned
/// with `usable`.
fn reweigh_by_staleness(
    usable: Vec<ModelUpdate>,
    fingerprints: &[H256],
    decay: StalenessDecay,
    node: &Node,
    held: &[&ConfirmedSubmission],
) -> Vec<ModelUpdate> {
    let head = node.chain.head_block().number();
    let depth_of: HashMap<H256, u32> = held
        .iter()
        .filter_map(|s| {
            let b = node.chain.block(&s.block_hash)?;
            Some((s.model_hash, head.saturating_sub(b.number()) as u32))
        })
        .collect();
    usable
        .into_iter()
        .zip(fingerprints)
        .map(|(mut u, fp)| {
            let s = depth_of.get(fp).copied().unwrap_or(0);
            let f = decay.factor(s);
            u.sample_count = ((u.sample_count as f64) * f).round().max(1.0) as usize;
            u
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::node::tests::nodes;
    use super::*;
    use crate::coupling::{model_fingerprint, record_aggregate_tx, register_tx, submit_model_tx};
    use crate::orchestrator::registry_address;
    use crate::policy::ControllerSpec;
    use blockfed_chain::Transaction;
    use blockfed_data::{SynthCifar, SynthCifarConfig};
    use blockfed_fl::CandidateScores;
    use blockfed_nn::SimpleNnConfig;
    use blockfed_sim::SimDuration;
    use blockfed_vm::ComboMask;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A test set and a scratch model for it.
    fn scoring() -> (Dataset, Sequential) {
        let (_, test) = SynthCifar::new(SynthCifarConfig::tiny()).generate(2);
        let arch = SimpleNnConfig::tiny(test.feature_dim(), test.num_classes());
        let model = arch.build(&mut StdRng::seed_from_u64(5));
        (test, model)
    }

    fn engine<'a>(
        cfg: &'a DecentralizedConfig,
        ns: &[Node],
        scratch: &Sequential,
    ) -> RoundEngine<'a> {
        let addrs: Vec<H160> = ns.iter().map(|n| n.key.address()).collect();
        RoundEngine::new(cfg, RngHub::new(cfg.seed), &addrs, scratch.duplicate())
    }

    /// Has `ns[0]` admit `txs`, seal them into its chain and log the block.
    fn confirm(ns: &mut [Node], txs: Vec<Transaction>, now_ns: u64, log: &mut BlockLog) {
        for tx in txs {
            ns[0].admit(tx);
        }
        let block = ns[0].seal(now_ns).expect("sealed");
        log.push(block, &ns[0].chain);
    }

    /// Every node's round-`round` update (client `i` shifted by `i + 1`
    /// hundredths; `nan` poisons client 2), its submit tx signed and
    /// collected.
    fn submissions(
        ns: &mut [Node],
        base: &[f32],
        round: u32,
        nan: bool,
    ) -> (Vec<ModelUpdate>, Vec<Transaction>) {
        let registry = registry_address();
        let mut txs = Vec::new();
        let updates = (0..ns.len())
            .map(|i| {
                let shift = [0.01 * (i + 1) as f32, f32::NAN][usize::from(nan && i == 2)];
                let params = base.iter().map(|p| p + shift).collect();
                let update = ModelUpdate::new(ClientId(i), round, params, 10 * (i + 1))
                    .with_payload_bytes(1_000);
                if round == 1 {
                    txs.push(ns[i].publish(|key, nonce| register_tx(registry, key, nonce)));
                }
                txs.push(
                    ns[i].publish(|key, nonce| submit_model_tx(&update, registry, key, nonce)),
                );
                update
            })
            .collect();
        (updates, txs)
    }

    fn hold(node: &mut Node, update: &ModelUpdate) {
        node.model_store
            .insert(model_fingerprint(update), update.clone());
    }

    /// A round-`round` record that waited `wait_secs` at `accuracy`.
    fn record(round: u32, wait_secs: f64, accuracy: f64) -> PeerRoundRecord {
        PeerRoundRecord {
            round,
            combos: CandidateScores::default(),
            chosen: String::new(),
            chosen_accuracy: accuracy,
            wait: SimDuration::from_secs_f64(wait_secs),
            aggregated_at: SimTime::ZERO,
            updates_used: 4,
            update_age_mean: SimDuration::ZERO,
            update_age_max: SimDuration::ZERO,
            dropped: Vec::new(),
        }
    }

    #[test]
    fn policy_table_applies_switches_and_decisions_from_their_round_on() {
        let cfg = DecentralizedConfig {
            rounds: 6,
            strategy_switch: Some((3, Strategy::NotConsider)),
            controller: Some(ControllerSpec::threshold(RuleConfig {
                wait_high_secs: 2.0,
                ..RuleConfig::default()
            })),
            ..DecentralizedConfig::default()
        };
        let mut table = PolicyEngine::new(&cfg);
        let strategies: Vec<Strategy> = (1..=6).map(|r| table.at(r).strategy).collect();
        let want = [Strategy::Consider, Strategy::NotConsider];
        assert_eq!(strategies, [0, 0, 1, 1, 1, 1].map(|i| want[i]));

        // The cutover fires at the first round at or past 3, and only once.
        let fired: Vec<bool> = [1, 2, 3, 3, 4, 5].map(|r| table.cutover_fires(r)).into();
        assert_eq!(fired, [false, false, true, false, false, false]);

        // A quiet round changes nothing; a slow round 2 demotes rounds 3
        // onward to first-k over half the bar, and round 2 keeps wait-all.
        assert!(table
            .observe(&record(1, 0.5, 0.4), 8, SimTime::ZERO)
            .is_empty());
        let demoted = PolicyDecision::SetWaitPolicy(WaitPolicy::FirstK(4));
        let at = SimTime::from_secs(9);
        assert_eq!(table.observe(&record(2, 3.0, 0.5), 8, at), [demoted]);
        let waits: Vec<WaitPolicy> = (1..=6).map(|r| table.at(r).wait).collect();
        let want = [WaitPolicy::All, WaitPolicy::FirstK(4)];
        assert_eq!(waits, [0, 0, 1, 1, 1, 1].map(|i| want[i]));
        let event = PolicyEvent {
            round: 2,
            at,
            decision: demoted,
        };
        assert_eq!(table.decisions, [event]);
        // Each round is observed once: a later aggregation of round 2 is
        // ignored, however slow it was.
        assert!(table.observe(&record(2, 30.0, 0.1), 8, at).is_empty());
        // The switch still holds where the demotion landed.
        assert_eq!(table.at(3).strategy, Strategy::NotConsider);
    }

    #[test]
    fn tier1_waits_for_its_policy_then_matches_a_direct_aggregation() {
        let (test, mut model) = scoring();
        let mut ns = nodes(3);
        let mut log = BlockLog::default();
        let (updates, txs) = submissions(&mut ns, &model.params_flat(), 1, false);
        confirm(&mut ns, txs, 10, &mut log);
        assert_eq!(ns[0].confirmed(1, &log).len(), 3);
        let live = [true; 3];

        let wait_all = DecentralizedConfig::default();
        let mut eng = engine(&wait_all, &ns, &model);
        hold(&mut ns[0], &updates[0]);
        hold(&mut ns[0], &updates[1]);
        let (dropped, done) = eng.tier1(&mut ns[0], 0, 1, &live, &test, &log);
        assert!(dropped.is_empty() && done.is_none(), "two of three held");

        // FirstK(2) is satisfied by the same two artifacts.
        let first2 = DecentralizedConfig {
            wait_policy: WaitPolicy::FirstK(2),
            ..DecentralizedConfig::default()
        };
        let (_, done) = engine(&first2, &ns, &model).tier1(&mut ns[0], 0, 1, &live, &test, &log);
        assert_eq!(done.expect("ready at two").usable.len(), 2);

        hold(&mut ns[0], &updates[2]);
        let (dropped, done) = eng.tier1(&mut ns[0], 0, 1, &live, &test, &log);
        let done = done.expect("ready with all three held");
        assert!(dropped.is_empty());

        // The reference: `aggregate_with` on the same updates in canonical
        // (submitter-address) order with the same indexed RNG stream.
        let mut order: Vec<usize> = (0..3).collect();
        order.sort_by_key(|&i| ns[i].key.address());
        let refs: Vec<&ModelUpdate> = order.iter().map(|&i| &updates[i]).collect();
        let mut score = |params: &[f32]| {
            model.set_params_flat(params);
            model.evaluate(&test).accuracy
        };
        let mut rng = RngHub::new(wait_all.seed).indexed_stream("aggregate", 1);
        let want = aggregate_with(Strategy::Consider, &refs, &mut score, &mut rng).unwrap();
        assert_eq!(done.outcome, want);
        assert_eq!(done.outcome.candidates.len(), 7);
        let members = want.combination.members();
        let chosen: u64 = members.iter().map(|c| 10 * (c.0 as u64 + 1)).sum();
        assert_eq!(done.weight, chosen);
    }

    #[test]
    fn tier1_reports_a_malformed_update_and_never_aggregates_it() {
        let (test, model) = scoring();
        let mut ns = nodes(3);
        let mut log = BlockLog::default();
        let (_, txs) = submissions(&mut ns, &model.params_flat(), 1, false);
        confirm(&mut ns, txs, 10, &mut log);
        let (updates, txs) = submissions(&mut ns, &model.params_flat(), 2, true);
        confirm(&mut ns, txs, 20, &mut log);
        let live = [true; 3];

        // Alone, the poisoned artifact is reported but nothing aggregates.
        let first1 = DecentralizedConfig {
            wait_policy: WaitPolicy::FirstK(1),
            ..DecentralizedConfig::default()
        };
        hold(&mut ns[0], &updates[2]);
        let (dropped, done) =
            engine(&first1, &ns, &model).tier1(&mut ns[0], 0, 2, &live, &test, &log);
        assert_eq!(dropped, vec![(ClientId(2), MALFORMED)]);
        assert!(done.is_none());

        hold(&mut ns[0], &updates[0]);
        hold(&mut ns[0], &updates[1]);
        let wait_all = DecentralizedConfig::default();
        let (dropped, done) =
            engine(&wait_all, &ns, &model).tier1(&mut ns[0], 0, 2, &live, &test, &log);
        assert_eq!(dropped, vec![(ClientId(2), MALFORMED)]);
        assert_eq!(MALFORMED.0, "malformed");
        let done = done.expect("two finite updates remain");
        assert_eq!(done.usable.len(), 2);
        assert!(!done.members.contains(&2));
        assert!(done.outcome.params.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn aggregated_fingerprints_stay_aligned_through_screening_and_reweighting() {
        let (test, model) = scoring();
        let mut ns = nodes(3);
        let mut log = BlockLog::default();
        let (_, txs) = submissions(&mut ns, &model.params_flat(), 1, false);
        confirm(&mut ns, txs, 10, &mut log);
        let (updates, txs) = submissions(&mut ns, &model.params_flat(), 2, true);
        confirm(&mut ns, txs, 20, &mut log);
        confirm(&mut ns, Vec::new(), 30, &mut log); // bury round 2 one block deeper
        for u in &updates {
            hold(&mut ns[0], u);
        }
        let decayed = DecentralizedConfig {
            staleness_decay: Some(StalenessDecay::Polynomial { a: 1.0 }),
            ..DecentralizedConfig::default()
        };
        let (dropped, done) =
            engine(&decayed, &ns, &model).tier1(&mut ns[0], 0, 2, &[true; 3], &test, &log);
        assert_eq!(dropped, vec![(ClientId(2), MALFORMED)]);
        let done = done.expect("two finite updates remain");
        let rehashed: Vec<H256> = done.usable.iter().map(model_fingerprint).collect();
        assert_eq!(done.fingerprints, rehashed);
        // The decay did apply: depth 1 halves every weight.
        let weights: Vec<usize> = done.usable.iter().map(|u| u.sample_count).collect();
        let halved: Vec<usize> = done.usable.iter().map(|u| 5 * (u.client.0 + 1)).collect();
        assert_eq!(weights, halved);
    }

    #[test]
    fn tier2_waits_for_the_other_committees_artifact_then_merges_by_weight() {
        let (_, model) = scoring();
        let mut ns = nodes(4);
        let mut log = BlockLog::default();
        let two = DecentralizedConfig {
            committees: Some(CommitteeSpec::contiguous(2)),
            ..DecentralizedConfig::default()
        };
        let eng = engine(&two, &ns, &model);
        assert_eq!(eng.layout.of, vec![0, 0, 1, 1]);

        // Committee 1's leader (peer 2) records its aggregate; peer 0's
        // chain confirms the record.
        let registry = registry_address();
        let theirs = AggArtifact {
            hash: H256::from_bytes([7; 32]),
            params: vec![4.0; 8],
            weight: 10,
        };
        let mask = ComboMask::from_members([2, 3]);
        let txs = vec![
            ns[2].publish(|key, nonce| register_tx(registry, key, nonce)),
            ns[2].publish(|key, nonce| {
                record_aggregate_tx(1, mask, theirs.hash, registry, key, nonce)
            }),
        ];
        confirm(&mut ns, txs, 10, &mut log);
        assert_eq!(ns[0].agg_records(1, &log).len(), 1);

        let mine = vec![1.0f32; 8];
        let own = Tier1Pending {
            round: 1,
            done_at: SimTime::ZERO,
            weight: 30,
            members: vec![0, 1],
            params: mine.clone(),
        };
        let live = [true; 4];
        let artifacts = [theirs];
        let tier2 = |ns: &mut [Node], peer: usize, live: &[bool]| match eng.tier2(
            &mut ns[peer],
            peer,
            &own,
            live,
            &artifacts,
            &log,
        ) {
            Tier2::Waiting { wanted } => Err(wanted),
            Tier2::Merged { params, members } => Ok((params, members)),
        };
        // Recorded but not held: not ready, and the hash comes back as wanted.
        assert_eq!(tier2(&mut ns, 0, &live), Err(vec![artifacts[0].hash]));
        // Peer 1's chain holds no record. With a live member in committee 1
        // it must wait (with nothing to pull); with none, the committee is
        // skipped and the merge is the peer's own aggregate.
        assert_eq!(tier2(&mut ns, 1, &live), Err(vec![]));
        let own_only = (mine.clone(), BTreeSet::from([0, 1]));
        assert_eq!(tier2(&mut ns, 1, &[true, true, false, false]), Ok(own_only));
        // Held: the example-count-weighted mean, (30·1 + 10·4) / 40.
        ns[0].agg_store.insert(artifacts[0].hash, 0);
        let merged = (vec![1.75f32; 8], BTreeSet::from([0, 1, 2, 3]));
        assert_eq!(tier2(&mut ns, 0, &live), Ok(merged));
    }
}

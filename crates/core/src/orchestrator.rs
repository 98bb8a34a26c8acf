//! The fully coupled blockchain-based FL orchestrator.
//!
//! Every peer simultaneously (i) trains on its local shard, (ii) mines, and
//! (iii) aggregates: exactly the paper's §III architecture where "worker node,
//! as well as the aggregator, are merged into one layer". The whole run is a
//! deterministic discrete-event simulation:
//!
//! 1. at `t=0` every peer signs a registry `register` transaction and starts
//!    training round 1;
//! 2. when training finishes, the peer publishes its model: a signed
//!    `submit_model` transaction whose declared payload is the full model
//!    artifact (248 KB / 21.2 MB). By default ([`GossipMode::AnnounceFetch`])
//!    a digest-sized announcement floods to every peer and each peer pulls
//!    the parameters once over its shortest path; [`GossipMode::Full`] floods
//!    the parameters themselves;
//! 3. miners race continuously — the winner of each exponential race (rate
//!    proportional to its contention-adjusted hash rate) builds a block from
//!    its mempool and floods it;
//! 4. a peer whose [`WaitPolicy`] is satisfied *by submissions confirmed on
//!    its own chain* evaluates every model combination on its own test set
//!    (the "consider" search), adopts the best one, records the choice on
//!    chain, and starts the next round.
//!
//! The per-peer, per-round combination accuracies are exactly the rows of the
//! paper's Tables II–IV; the wait times quantify the title's
//! "wait or not to wait" trade-off.
//!
//! All of a run's mutable state lives in one private `Run` struct whose
//! methods are the event handlers (one per `Event` variant) and the round
//! logic they share; [`Decentralized::run_traced_with_hook`] builds it,
//! drives it to completion and folds it into a [`DecentralizedRun`].

use std::collections::HashMap;
use std::sync::Arc;

use blockfed_chain::{
    Block, Blockchain, ChainStore, DifficultyController, GenesisSpec, Mempool, RetargetRule,
    SealPolicy, StoreCounters, Transaction,
};
use blockfed_crypto::{KeyPair, H160, H256};
use blockfed_data::{Batcher, Dataset};
use blockfed_fl::{
    aggregate_with, Adversary, CandidateEvaluator, ClientId, Combination, ModelUpdate,
    StalenessDecay, Strategy, WaitPolicy,
};
use blockfed_net::{FloodScratch, GossipMode, LinkSpec, Network, NodeId, Topology, ANNOUNCE_BYTES};
use blockfed_nn::{Sequential, Sgd};
use blockfed_sim::{RngHub, Scheduler, SimDuration, SimTime};
use blockfed_telemetry::{MetricSet, NoopSink, Telemetry, TraceSink};
use blockfed_vm::{BlockfedRuntime, ComboMask, NativeContract, NATIVE_REGISTRY_CODE};
use rand::rngs::StdRng;
use rand::Rng;

use crate::compute::ComputeProfile;
use crate::coupling::{
    confirmed_aggregates, confirmed_submissions, record_aggregate_tx, register_tx, submit_model_tx,
    ConfirmedAggregate,
};
use crate::error::ConfigError;
use crate::faults::{validate_timeline, Fault, TimedFault};
use crate::policy::{ControllerSpec, PolicyController, PolicyDecision, PolicyEvent};

/// The orchestrator's peer ceiling: the combination mask's native width
/// ([`blockfed_vm::MAX_MASK_BITS`]). Every peer — joiners included, since a
/// joiner is dormant rather than re-registered — registers exactly once, so
/// registry indices stay inside the mask domain even at full occupancy.
/// Announce/fetch gossip plus the scratch-buffer flood router keep runs at
/// this scale tractable (the old binding constraint was event-loop cost, not
/// the on-chain encoding).
pub const MAX_PEERS: usize = blockfed_vm::MAX_MASK_BITS;

/// The fixed address the FL registry contract is deployed at in every run's
/// genesis. Public so tooling that re-imports a run's blocks (fork replay,
/// audits) can register the same native at the same address — matching the
/// runtime fingerprint the run's peers used.
pub fn registry_address() -> H160 {
    let mut bytes = [0u8; 20];
    bytes[0] = 0xFE;
    bytes[19] = 0xED;
    H160::from_bytes(bytes)
}

/// Configuration of a decentralized run.
#[derive(Debug, Clone)]
pub struct DecentralizedConfig {
    /// Communication rounds (paper: 10).
    pub rounds: u32,
    /// Local epochs per round (paper: 5).
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// When a peer stops waiting for more models (the title question).
    pub wait_policy: WaitPolicy,
    /// How a peer aggregates once its wait policy is satisfied. The paper's
    /// decentralized setting uses [`Strategy::Consider`] (the full
    /// combination search, default); [`Strategy::BestK`] caps how many local
    /// updates enter the aggregate at linear cost; and
    /// [`Strategy::NotConsider`] always averages everything usable.
    pub strategy: Strategy,
    /// Declared size of the full model artifact on chain.
    pub payload_bytes: u64,
    /// Proof-of-work difficulty (sets the block cadence together with the
    /// compute profiles).
    pub difficulty: u128,
    /// Per-peer compute (hash rate, training rate, contention).
    pub compute: ComputeProfile,
    /// Optional per-peer override of `compute` — the realistic heterogeneous
    /// setting ("stragglers") where asynchronous aggregation actually pays.
    /// Must match the peer count when set.
    pub per_peer_compute: Option<Vec<ComputeProfile>>,
    /// The paper's §III fitness gate: a received model whose standalone
    /// accuracy on the peer's own test data falls below this threshold is
    /// ignored during aggregation ("otherwise, it will be ignored"). `None`
    /// disables the gate. If every model fails the gate once all peers have
    /// reported, the single best-scoring model is used as a fallback so a
    /// round can always complete.
    pub fitness_threshold: Option<f64>,
    /// Statistical anomaly gate: drop received models whose parameter-norm
    /// z-score across the round's cohort exceeds this threshold (see
    /// [`crate::anomaly::detect_norm_outliers`]). `None` disables the gate.
    /// Non-finite (malformed) models are always dropped regardless.
    pub norm_z_threshold: Option<f64>,
    /// Degeneracy gate: drop models that predict fewer than this many
    /// distinct classes on the peer's own test data (see
    /// [`crate::anomaly::detect_degenerate`]) — the free-rider fingerprint a
    /// chance-level fitness threshold can miss. `None` disables the gate. If
    /// the gate would drop *every* candidate, it is skipped for that
    /// aggregation so rounds always stay live.
    pub degeneracy_min_classes: Option<usize>,
    /// Compromised peers and the model-poisoning attacks they mount (the
    /// paper's future-work evaluation). Applied to the peer's update after
    /// honest training, before signing and publication — so the signed
    /// transaction binds the attacker to the poisoned artefact.
    pub adversaries: Vec<Adversary>,
    /// Link profile between peers.
    pub link: LinkSpec,
    /// Network topology between peers (the paper's testbed is a full mesh).
    pub topology: Topology,
    /// How model artifacts disseminate: the default two-phase
    /// [`GossipMode::AnnounceFetch`] (digest-sized announcement floods, one
    /// targeted payload pull per peer), the legacy [`GossipMode::Full`]
    /// payload flooding, or peer-sampled [`GossipMode::Epidemic`] rumor
    /// spreading whose announcement traffic stops scaling with edge count.
    /// All modes drive bit-identical simulations — artifacts arrive over the
    /// same shortest paths at the same virtual instants — and differ only in
    /// what the traffic meters record (see
    /// [`DecentralizedRun::gossip_bytes`] and
    /// [`DecentralizedRun::fetch_bytes`]). Blocks and control transactions
    /// are digest-sized already and stay push-gossip under `Full` and
    /// `AnnounceFetch`; under `Epidemic` *everything* larger than an
    /// announcement is announced and pulled.
    pub gossip: GossipMode,
    /// Optional hierarchical aggregation: shard peers into committees that
    /// aggregate locally (tier 1, the configured [`WaitPolicy`] applied
    /// against the peer's own committee) and publish one committee-level
    /// aggregate each, which every peer merges deterministically across
    /// committees (tier 2) before advancing its round. `None` — and any spec
    /// with `count <= 1`, which the orchestrator normalizes away — is the
    /// flat topology and reproduces the unsharded run byte for byte.
    pub committees: Option<crate::committee::CommitteeSpec>,
    /// Optional staleness-aware re-weighting of aggregated updates: an
    /// update's FedAvg weight is scaled by `decay.factor(s)` where `s` is how
    /// many blocks its submission is buried under at aggregation time (the
    /// age-of-block staleness). `None` keeps the paper's uniform weighting.
    pub staleness_decay: Option<StalenessDecay>,
    /// Timed fault and churn events injected into the run (partitions, peer
    /// join/leave, hash-rate shocks). A peer with a [`Fault::PeerJoin`] entry
    /// is dormant from genesis until its join fires.
    pub faults: Vec<TimedFault>,
    /// How mining difficulty retargets as block intervals drift from the
    /// cadence `difficulty` implies at genesis. The default
    /// [`RetargetRule::Homestead`] takes the fixed ±1/2048 step per block —
    /// effectively the legacy constant-difficulty behaviour — while the
    /// adaptive rules ([`RetargetRule::Pi`], [`RetargetRule::MovingAverage`])
    /// restore the configured cadence after hash-rate shocks instead of
    /// letting them shift block production permanently.
    pub retarget: RetargetRule,
    /// Liveness watchdog: if no progress (a training completion, a first-time
    /// artifact arrival, or a round aggregation — block seals do not count,
    /// they continue through a stall) happens for this much virtual time
    /// while no fault is still pending, the run stops with a diagnostic in
    /// [`DecentralizedRun::stall`] instead of spinning until the event cap.
    /// `None` disables the monitor. The watchdog draws no randomness and a
    /// run that makes progress never observes it, so enabling it cannot
    /// perturb a healthy simulation.
    pub watchdog: Option<SimDuration>,
    /// Mid-run aggregation-strategy switch: `Some((r, s))` makes every round
    /// ≥ `r` aggregate under `s` instead of
    /// [`DecentralizedConfig::strategy`]. The fork-replay API uses this to
    /// re-run a suffix of a finished run under a different strategy (e.g.
    /// "replay round 40 under BestK instead of Consider") while the shared
    /// [`ChainStore`] serves the unchanged prefix from its memo.
    pub strategy_switch: Option<(u32, Strategy)>,
    /// The chain store the run's peers share: `None` (the default) gives the
    /// run a fresh private store dropped with it; `Some(handle)` lets a
    /// caller share one store across *sequential* runs (fork replay, memory
    /// checks) or inspect entry counts afterwards. The orchestrator calls
    /// [`ChainStore::begin_epoch`] at run start, so entries untouched for a
    /// full run age out instead of accumulating.
    pub store: Option<ChainStore>,
    /// State-snapshot cadence of every peer's chain (see
    /// [`Blockchain::with_snapshot_interval`]). `None` keeps the chain's
    /// default interval. Part of the store configuration, so two otherwise
    /// identical runs differing only here are distinct configurations.
    pub snapshot_interval: Option<u64>,
    /// Opt-in state pruning depth of every peer's chain (see
    /// [`Blockchain::with_prune_depth`]). `None` disables pruning.
    pub prune_depth: Option<u64>,
    /// Optional adaptive policy controller (see [`ControllerSpec`]): observes
    /// each round's wait time, staleness, fork rate, straggler spread, and
    /// accuracy delta and may switch the wait policy, aggregation strategy,
    /// or staleness decay **from the next round on**. Decisions land in
    /// [`DecentralizedRun::policy_events`] and draw randomness only from the
    /// dedicated `"policy-controller"` RNG stream, so a controller that never
    /// fires reproduces the static run bit for bit.
    pub controller: Option<ControllerSpec>,
    /// Master seed.
    pub seed: u64,
}

impl Default for DecentralizedConfig {
    fn default() -> Self {
        DecentralizedConfig {
            rounds: 10,
            local_epochs: 5,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            wait_policy: WaitPolicy::All,
            strategy: Strategy::Consider,
            payload_bytes: 253_952, // SimpleNN's 248 KB
            difficulty: 3_000_000,  // ≈13 s blocks with 3 paper_vm miners
            compute: ComputeProfile::paper_vm(),
            per_peer_compute: None,
            fitness_threshold: None,
            norm_z_threshold: None,
            degeneracy_min_classes: None,
            adversaries: Vec::new(),
            link: LinkSpec::lan(),
            topology: Topology::FullMesh,
            gossip: GossipMode::AnnounceFetch,
            committees: None,
            staleness_decay: None,
            faults: Vec::new(),
            retarget: RetargetRule::Homestead,
            watchdog: Some(SimDuration::from_secs(600)),
            strategy_switch: None,
            store: None,
            snapshot_interval: None,
            prune_depth: None,
            controller: None,
            seed: 42,
        }
    }
}

impl DecentralizedConfig {
    /// The compute profile of one peer.
    fn compute_for(&self, peer: usize) -> ComputeProfile {
        self.per_peer_compute
            .as_ref()
            .map_or(self.compute, |v| v[peer])
    }
}

/// One peer's record of one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRoundRecord {
    /// 1-based round.
    pub round: u32,
    /// Accuracy of every evaluated combination on this peer's own test set,
    /// labelled owner-first as in the paper's tables (`"B,A"` etc.).
    pub combos: Vec<(String, f64)>,
    /// The combination this peer adopted.
    pub chosen: String,
    /// Its accuracy.
    pub chosen_accuracy: f64,
    /// How long the peer waited between finishing local training and
    /// aggregating (propagation + mining + policy wait).
    pub wait: SimDuration,
    /// Virtual time of the aggregation.
    pub aggregated_at: SimTime,
    /// How many confirmed updates entered the aggregation.
    pub updates_used: usize,
    /// Mean age of the aggregated updates — the time between a model being
    /// published and this peer consuming it (Wilhelmi et al.'s age-of-block
    /// freshness metric).
    pub update_age_mean: SimDuration,
    /// Maximum update age in this aggregation.
    pub update_age_max: SimDuration,
    /// Clients whose models this peer dropped before aggregation, with the
    /// reason (`"A:malformed"`, `"B:norm-outlier"`, `"C:degenerate"`,
    /// `"C:unfit"`).
    pub dropped: Vec<String>,
}

impl PeerRoundRecord {
    /// Looks up a combination's accuracy by its label.
    pub fn accuracy_of(&self, label: &str) -> Option<f64> {
        self.combos
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, a)| *a)
    }
}

/// Chain-side statistics of a run (measured on peer 0's canonical chain).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    /// Canonical blocks (excluding genesis).
    pub blocks: usize,
    /// Mean interval between canonical blocks.
    pub mean_block_interval: Option<SimDuration>,
    /// Successful transactions included.
    pub total_txs: usize,
    /// Total gas used.
    pub total_gas: u64,
    /// Total declared model payload bytes carried.
    pub total_payload_bytes: u64,
}

/// Post-run non-repudiation audit of one published model update: whether a
/// signed, merkle-anchored, proof-of-work-buried evidence bundle binding the
/// update to its author could be collected from peer 0's canonical chain and
/// independently verified (see [`crate::nonrepudiation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditRecord {
    /// The update's author.
    pub client: ClientId,
    /// Communication round of the update.
    pub round: u32,
    /// Whether evidence was collected and verified.
    pub verified: bool,
}

/// The complete result of a decentralized run.
#[derive(Debug)]
pub struct DecentralizedRun {
    /// Per-peer, per-round records (`peer_records[peer][round-1]`).
    pub peer_records: Vec<Vec<PeerRoundRecord>>,
    /// Chain statistics.
    pub chain: ChainStats,
    /// Virtual time at which the last peer finished the last round.
    pub finished_at: SimTime,
    /// Every model update published during the run (poisoned ones included —
    /// the attack mutates parameters *before* signing, so authorship binds).
    pub published_updates: Vec<ModelUpdate>,
    /// One non-repudiation audit per published update, against peer 0's
    /// canonical chain. Updates a wait-`k` policy left unconfirmed at the end
    /// of the final round audit as `verified: false`.
    pub audits: Vec<AuditRecord>,
    /// Total blocks sealed anywhere during the run (canonical or not).
    pub blocks_sealed: usize,
    /// Total bytes crossing links during gossip *floods* (each message
    /// counted once per relay edge it traverses). Under
    /// [`GossipMode::AnnounceFetch`] artifact floods carry only digest-sized
    /// announcements, so this is the O(edges × digest) term; the payload
    /// movement lands in [`DecentralizedRun::fetch_bytes`]. Under
    /// [`GossipMode::Full`] everything — payload floods and recovery fetches
    /// — folds in here, reproducing the legacy accounting byte for byte.
    pub gossip_bytes: u64,
    /// Total bytes of targeted payload pulls under
    /// [`GossipMode::AnnounceFetch`]: one artifact copy per receiving peer
    /// over its shortest open path, recovery fetches included. Bytes are
    /// counted per relay edge the pull crosses (payload × path hops), so on
    /// a full mesh this is exactly `payload × (N−1)` per artifact — the
    /// O(N) term — while sparse topologies additionally pay their relay
    /// distances. Always zero under [`GossipMode::Full`].
    pub fetch_bytes: u64,
    /// Per-peer artifact inventory at run end: the sorted fingerprints of
    /// every model payload the peer holds. The gossip-mode equivalence suite
    /// asserts these sets are identical between `Full` and `AnnounceFetch`
    /// under churn and timed partitions.
    pub artifacts: Vec<Vec<H256>>,
    /// Every aggregate decision confirmed on peer 0's canonical chain, read
    /// back through the registry's packed mask storage — the evidence that a
    /// run's member sets (32-peer-plus ones included) survived the on-chain
    /// round trip.
    pub aggregates: Vec<ConfirmedAggregate>,
    /// Every counter, gauge, and histogram the run folded: resilience meters
    /// (`dropped_msgs`, `fetch_retries`, `fetch_recoveries`, `fetch_gave_up`,
    /// `reorgs` counters; `recovery_ms`, `stalled` gauges) and the per-phase
    /// timing distributions (`train_secs`, `wait_secs`, `staleness_secs`,
    /// `fetch_ms`, `block_interval_secs` histograms). Deterministic: folded
    /// in event-loop order from virtual-time quantities only, so two runs of
    /// the same seed produce equal sets — the named accessors below keep the
    /// legacy one-field-per-meter API working.
    pub metrics: MetricSet,
    /// `Some(diagnostic)` when the liveness watchdog stopped a stalled run
    /// (see [`DecentralizedConfig::watchdog`]); `None` for a clean finish.
    pub stall: Option<String>,
    /// Every decision the adaptive policy controller applied, in virtual-time
    /// order (see [`DecentralizedConfig::controller`]). Empty for static runs
    /// and for controllers that never fire.
    pub policy_events: Vec<PolicyEvent>,
    /// Peer 0's blockchain at run end — an `Arc`-backed view over the run's
    /// shared storage (cheap to hold). [`Blockchain::fork_at`] on it, with
    /// the run's [`ChainStore`] passed to a follow-up run's config, replays
    /// any suffix of the finished run without re-executing the prefix.
    pub final_chain: Blockchain,
}

impl DecentralizedRun {
    /// Deliveries lost in transit: per-edge packet loss sampled on the relay
    /// tree plus in-flight partition/relay-crash cuts. Exactly zero on a
    /// lossless, fault-free run. (The `dropped_msgs` counter.)
    pub fn dropped_msgs(&self) -> u64 {
        self.metrics.counter("dropped_msgs")
    }

    /// Timeout-driven payload-fetch retries: every probe launched beyond a
    /// fetch episode's first attempt. Zero when every pull lands first try.
    /// (The `fetch_retries` counter.)
    pub fn fetch_retries(&self) -> u64 {
        self.metrics.counter("fetch_retries")
    }

    /// Mean virtual milliseconds between a payload fetch starting and the
    /// artifact arriving, over episodes that recovered — including active
    /// fetch time burned by earlier attempts on the same artifact that
    /// exhausted their budget before a later confirming block restarted the
    /// chase. Zero when no on-demand fetch was needed. (The `recovery_ms`
    /// gauge.)
    pub fn recovery_ms(&self) -> f64 {
        self.metrics.gauge("recovery_ms")
    }

    /// Knob changes the adaptive policy controller applied during the run
    /// (the `policy_switches` counter).
    pub fn policy_switches(&self) -> u64 {
        self.metrics.counter("policy_switches")
    }

    /// Tier-2 committee merges completed across all peers (the
    /// `committee_rounds` counter). Zero for flat runs.
    pub fn committee_rounds(&self) -> u64 {
        self.metrics.counter("committee_rounds")
    }

    /// Flood bytes attributable to the committee tier: leader record floods,
    /// committee-aggregate announcements, and tier-2 merge records (the
    /// `tier2_gossip_bytes` counter; a subset of
    /// [`DecentralizedRun::gossip_bytes`]). Zero for flat runs.
    pub fn tier2_gossip_bytes(&self) -> u64 {
        self.metrics.counter("tier2_gossip_bytes")
    }

    /// Pulled-payload bytes attributable to the committee tier:
    /// committee-aggregate artifact pulls and their loss recovery (the
    /// `tier2_fetch_bytes` counter; a subset of
    /// [`DecentralizedRun::fetch_bytes`]). Zero for flat runs.
    pub fn tier2_fetch_bytes(&self) -> u64 {
        self.metrics.counter("tier2_fetch_bytes")
    }

    /// Mean aggregation wait across all peers and rounds.
    pub fn mean_wait(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut n = 0u64;
        for peer in &self.peer_records {
            for r in peer {
                total += r.wait;
                n += 1;
            }
        }
        if n == 0 {
            SimDuration::ZERO
        } else {
            total / n
        }
    }

    /// Final-round chosen accuracy of a peer.
    pub fn final_accuracy(&self, peer: usize) -> f64 {
        self.peer_records[peer]
            .last()
            .map(|r| r.chosen_accuracy)
            .unwrap_or(0.0)
    }

    /// Age-of-block statistics pooled across all peers and rounds (exact
    /// pooled mean and true maximum, reconstructed from the per-round
    /// summaries).
    pub fn age_of_block(&self) -> blockfed_fl::AgeOfBlock {
        let mut age = blockfed_fl::AgeOfBlock::new();
        for peer in &self.peer_records {
            for r in peer {
                age.record_summary(
                    r.updates_used as u64,
                    r.update_age_mean.as_secs_f64(),
                    r.update_age_max.as_secs_f64(),
                );
            }
        }
        age
    }

    /// Fraction of sealed blocks that did not make peer 0's canonical chain —
    /// the fork (orphan) rate of the run. Zero when every sealed block landed
    /// on the winning chain.
    pub fn fork_rate(&self) -> f64 {
        if self.blocks_sealed == 0 {
            0.0
        } else {
            1.0 - (self.chain.blocks.min(self.blocks_sealed) as f64 / self.blocks_sealed as f64)
        }
    }

    /// Every byte the run put on the wire: flood traffic plus targeted
    /// payload pulls. The quantity to compare across gossip modes — the
    /// split between [`DecentralizedRun::gossip_bytes`] and
    /// [`DecentralizedRun::fetch_bytes`] is what the mode changes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.gossip_bytes + self.fetch_bytes
    }

    /// Highest participant index set in any on-chain aggregate mask, or
    /// `None` when nothing confirmed. A value ≥ 32 proves the run exercised
    /// the variable-width (post-u32) mask path end to end.
    pub fn max_mask_bit(&self) -> Option<usize> {
        self.aggregates
            .iter()
            .filter_map(|a| a.combo_mask.max_bit())
            .max()
    }

    /// Every drop (client excluded from an aggregation) across the run, as
    /// `(peer, round, reason)` tuples — the detection log the non-repudiation
    /// audit then acts on.
    pub fn drops(&self) -> Vec<(usize, u32, String)> {
        let mut out = Vec::new();
        for (peer, records) in self.peer_records.iter().enumerate() {
            for r in records {
                for d in &r.dropped {
                    out.push((peer, r.round, d.clone()));
                }
            }
        }
        out
    }
}

/// Scores candidate aggregates on a test set using one scratch model per
/// compute worker, so a round's combination search (the paper's "consider"
/// loop, exponential in peer count) runs across cores. Every evaluation
/// resets its scratch's parameters first, so scores are identical at any
/// pool size.
struct PoolScorer<'a> {
    pool: &'a mut [Sequential],
    test: &'a Dataset,
}

impl CandidateEvaluator for PoolScorer<'_> {
    fn score_batch(&mut self, candidates: &[&[f32]]) -> Vec<f64> {
        let test = self.test;
        blockfed_compute::par_map_with(self.pool, candidates, |model, params| {
            model.set_params_flat(params);
            model.evaluate(test).accuracy
        })
    }
}

#[derive(Debug)]
enum Event {
    /// Local training finished. `gen` is the peer's training generation at
    /// schedule time: a crash bumps the generation, so a completion that was
    /// in flight when the process died arrives stale and is discarded.
    TrainDone {
        peer: usize,
        gen: u32,
    },
    DeliverTx {
        to: usize,
        idx: usize,
        route: usize,
    },
    DeliverBlock {
        to: usize,
        idx: usize,
        route: usize,
    },
    /// A committee-level aggregate artifact arriving at a peer (hierarchical
    /// runs only). `idx` indexes the run's aggregate artifact log.
    DeliverAgg {
        to: usize,
        idx: usize,
        route: usize,
    },
    SealBlock,
    Fault {
        idx: usize,
    },
    /// Deadline of fetch attempt `attempt` for `(to, fp)`: if the artifact
    /// still has not arrived, the fetch retries from the next holder.
    FetchTimeout {
        to: usize,
        fp: H256,
        attempt: u32,
    },
    /// Periodic liveness check (only scheduled when the watchdog is on).
    Watchdog,
}

/// What a flood carries: decides the delivery event, whether the payload is
/// an artifact (announced and pulled under announce/fetch rather than pushed),
/// and who pulls it.
#[derive(Clone, Copy)]
enum Parcel {
    /// A digest-sized control transaction (index into the tx log).
    Tx(usize),
    /// A `submit_model` transaction (index into the tx log) and the model
    /// payload behind it, which only the sender's committee pulls.
    Model(usize),
    /// A sealed block (index into the block log).
    Block(usize),
    /// A committee-level aggregate artifact (index into the aggregate log).
    Agg(usize),
}

/// A fetch gives up after this many timeout-driven retries; a later block
/// delivery restarts the cycle from scratch, so the budget bounds work per
/// episode without abandoning the artifact forever.
const MAX_FETCH_ATTEMPTS: u32 = 8;

/// Exponential backoff before fetch attempt `attempt + 1`: 250 ms doubling
/// per attempt with ±10% jitter, capped at 8 s.
fn fetch_backoff(attempt: u32, rng: &mut impl Rng) -> SimDuration {
    let base = 0.25 * f64::from(1u32 << attempt.min(6));
    let jitter = rng.gen_range(0.9..1.1);
    SimDuration::from_secs_f64((base * jitter).min(8.0))
}

/// One in-flight payload fetch: which attempt it is on, who was asked first
/// (the confirming block's miner), when the episode started (for the
/// recovery-time metric), time already burned by earlier gave-up episodes for
/// the same artifact, and its open telemetry span.
struct FetchState {
    attempt: u32,
    primary: usize,
    first_at: SimTime,
    /// Active fetch time spent by earlier episodes for this `(peer, artifact)`
    /// that exhausted their attempt budget before the next confirming block
    /// restarted the cycle. Folded into the recovery metric on success, so
    /// `recovery_ms` reflects the full time the artifact was being chased —
    /// not just the final episode.
    carried: SimDuration,
    payload_bytes: u64,
    tx_idx: usize,
    span: u64,
}

/// One round's effective aggregation knobs.
#[derive(Clone, Copy)]
struct RoundPolicy {
    wait: WaitPolicy,
    strategy: Strategy,
    decay: Option<StalenessDecay>,
}

/// The run's per-round policy state: the effective knobs for every round
/// (static config, `strategy_switch`, and controller decisions all resolve
/// here), the controller itself, its dedicated RNG stream, and the decision
/// log.
///
/// Invariant: round `r`'s policy never changes once any peer can be waiting
/// in it — the controller observes round `r` at its *first* aggregation and
/// its decisions apply to rounds `r + 1` onward only, so a wait bar can never
/// move under a peer mid-wait.
struct PolicyEngine {
    /// Effective policy per round, indexed 1-based (`slot 0` unused).
    by_round: Vec<RoundPolicy>,
    controller: Option<Box<dyn PolicyController>>,
    rng: StdRng,
    decisions: Vec<PolicyEvent>,
    /// Highest round already observed by the controller (each round is
    /// observed once, at its first aggregation anywhere).
    last_observed: u32,
    /// Accuracy of the previous observation, for the delta signal.
    prev_accuracy: Option<f64>,
    /// The configured replay cutover, re-imposed over controller decisions
    /// (an explicit `strategy_switch` is a directive, not a default).
    strategy_switch: Option<(u32, Strategy)>,
    /// Whether the replay cutover has fired (noted once as progress).
    cutover_noted: bool,
}

impl PolicyEngine {
    fn new(cfg: &DecentralizedConfig, hub: &RngHub) -> Self {
        let rounds = cfg.rounds as usize;
        let by_round = (0..=rounds)
            .map(|r| RoundPolicy {
                wait: cfg.wait_policy,
                strategy: match cfg.strategy_switch {
                    Some((from, s)) if r as u32 >= from => s,
                    _ => cfg.strategy,
                },
                decay: cfg.staleness_decay,
            })
            .collect();
        PolicyEngine {
            by_round,
            controller: cfg.controller.as_ref().map(ControllerSpec::build),
            rng: hub.stream("policy-controller"),
            decisions: Vec::new(),
            last_observed: 0,
            prev_accuracy: None,
            strategy_switch: cfg.strategy_switch,
            cutover_noted: false,
        }
    }

    fn slot(&self, round: u32) -> &RoundPolicy {
        &self.by_round[(round as usize).min(self.by_round.len() - 1)]
    }

    fn wait(&self, round: u32) -> WaitPolicy {
        self.slot(round).wait
    }

    fn strategy(&self, round: u32) -> Strategy {
        self.slot(round).strategy
    }

    fn decay(&self, round: u32) -> Option<StalenessDecay> {
        self.slot(round).decay
    }

    /// Feeds the controller one round observation and applies its decisions
    /// to every round after `obs.round`. Returns the applied decisions (empty
    /// when no controller is set or it stays quiet).
    fn observe(
        &mut self,
        obs: &crate::policy::RoundObservation,
        at: SimTime,
    ) -> Vec<PolicyDecision> {
        let Some(ctl) = self.controller.as_mut() else {
            return Vec::new();
        };
        let decisions = ctl.decide(obs, &mut self.rng);
        let from = (obs.round as usize + 1).min(self.by_round.len());
        for d in &decisions {
            for slot in &mut self.by_round[from..] {
                match *d {
                    PolicyDecision::SetWaitPolicy(w) => slot.wait = w,
                    PolicyDecision::SetStrategy(s) => slot.strategy = s,
                    PolicyDecision::SetStalenessDecay(dec) => slot.decay = dec,
                }
            }
            self.decisions.push(PolicyEvent {
                round: obs.round,
                at,
                decision: *d,
            });
        }
        // An explicit replay cutover outranks the controller: re-impose it
        // over whatever strategy the decisions just wrote.
        if let Some((from_round, s)) = self.strategy_switch {
            for (r, slot) in self.by_round.iter_mut().enumerate() {
                if r as u32 >= from_round {
                    slot.strategy = s;
                }
            }
        }
        decisions
    }
}

/// The run's observability state: the structured [`Telemetry`] emitter, the
/// folded [`MetricSet`], the watchdog's progress clock, and the open-span
/// bookkeeping that turns discrete events into per-peer round timelines
/// (`round` ⊃ `round.train` → `round.wait`). The span slots are private to
/// the methods below: the event loop says what happened to a peer, never
/// which span to open or close.
///
/// Span slots are updated unconditionally — ids are allocated even under a
/// [`NoopSink`] — so instrumented state never depends on whether anyone is
/// listening (the invariance proof relies on this).
struct Obs<'s> {
    tel: Telemetry<'s>,
    metrics: MetricSet,
    /// Virtual time of the last liveness-relevant event (see
    /// [`DecentralizedConfig::watchdog`]).
    last_progress: SimTime,
    /// Most recent telemetry event per peer, cited by the watchdog's stall
    /// diagnostic so a stuck run names what each peer last did.
    last_event: Vec<Option<(SimTime, &'static str)>>,
    /// Open `round` span per peer: `(span id, opened at)`.
    round_span: Vec<Option<(u64, SimTime)>>,
    /// Open `round.train` span per peer.
    train_span: Vec<Option<(u64, SimTime)>>,
    /// Open `round.wait` span per peer.
    wait_span: Vec<Option<(u64, SimTime)>>,
}

impl<'s> Obs<'s> {
    fn new(n: usize, sink: &'s mut dyn TraceSink) -> Self {
        Obs {
            tel: Telemetry::new(sink),
            metrics: MetricSet::new(),
            last_progress: SimTime::ZERO,
            last_event: vec![None; n],
            round_span: vec![None; n],
            train_span: vec![None; n],
            wait_span: vec![None; n],
        }
    }

    /// Notes a peer-attributed event for the watchdog diagnostic.
    fn note(&mut self, peer: usize, now: SimTime, what: &'static str) {
        self.last_event[peer] = Some((now, what));
    }

    /// Opens the `round` and `round.train` spans as a peer starts (or, after
    /// a crash-restart, re-starts) training. A round span left open by a
    /// crash is resumed, not reopened.
    fn begin_training(&mut self, peer: usize, now: SimTime, round: u32) {
        if self.round_span[peer].is_none() {
            let id = self
                .tel
                .begin(now, "round", peer as u32, || vec![("round", round.into())]);
            self.round_span[peer] = Some((id, now));
        }
        let id = self.tel.begin(now, "round.train", peer as u32, || {
            vec![("round", round.into())]
        });
        self.train_span[peer] = Some((id, now));
        self.note(peer, now, "train.start");
    }

    /// Closes the train span and opens the wait span as the peer publishes
    /// its model — the instant the title's "wait or not to wait" clock
    /// starts ticking.
    fn training_done(&mut self, peer: usize, now: SimTime, round: u32) {
        if let Some((id, opened)) = self.train_span[peer].take() {
            self.tel.end(now, "round.train", peer as u32, id, Vec::new);
            self.metrics
                .observe("train_secs", now.saturating_since(opened).as_secs_f64());
        }
        let id = self.tel.begin(now, "round.wait", peer as u32, || {
            vec![("round", round.into())]
        });
        self.wait_span[peer] = Some((id, now));
        self.note(peer, now, "train.done");
        self.last_progress = now;
    }

    /// Closes the wait and round spans as the peer aggregates.
    fn aggregated(&mut self, peer: usize, now: SimTime) {
        if let Some((id, _)) = self.wait_span[peer].take() {
            self.tel.end(now, "round.wait", peer as u32, id, Vec::new);
        }
        if let Some((id, _)) = self.round_span[peer].take() {
            self.tel.end(now, "round", peer as u32, id, Vec::new);
        }
        self.note(peer, now, "round.aggregated");
        self.last_progress = now;
    }

    /// Aborts a crashed peer's in-progress phase spans. The round span stays
    /// open: identity and round position survive a crash, so the round
    /// resumes when the peer restarts.
    fn crash_aborts(&mut self, peer: usize, now: SimTime) {
        if let Some((id, _)) = self.train_span[peer].take() {
            self.tel.end(now, "round.train", peer as u32, id, || {
                vec![("aborted", true.into())]
            });
        }
        if let Some((id, _)) = self.wait_span[peer].take() {
            self.tel.end(now, "round.wait", peer as u32, id, || {
                vec![("aborted", true.into())]
            });
        }
    }

    /// Reopens the wait span of a peer that restarts after a crash having
    /// already published for its round (the crash aborted the original).
    fn resume_wait(&mut self, peer: usize, now: SimTime, round: u32) {
        if self.wait_span[peer].is_none() {
            let id = self.tel.begin(now, "round.wait", peer as u32, || {
                vec![("round", round.into())]
            });
            self.wait_span[peer] = Some((id, now));
        }
    }

    /// Marks a peer leaving the population (`churn.leave`, `churn.crash`).
    fn churn(&mut self, peer: usize, now: SimTime, name: &'static str, round: u32) {
        self.note(peer, now, name);
        self.tel
            .instant(now, name, peer as u32, || vec![("round", round.into())]);
    }

    /// Marks `peer` excluding `from`'s model from its round's aggregation
    /// (`anomaly.malformed`, `.norm`, `.degenerate`, `.unfit`).
    fn anomaly(
        &mut self,
        peer: usize,
        now: SimTime,
        name: &'static str,
        round: u32,
        from: ClientId,
    ) {
        self.tel.instant(now, name, peer as u32, || {
            vec![("round", round.into()), ("from", from.to_string().into())]
        });
    }

    /// Closes every span still open at run end (a stall, a dormant joiner
    /// that never fired, or simply the last settle instant).
    fn close_open_spans(&mut self, at: SimTime) {
        for peer in 0..self.round_span.len() {
            for (slot, name) in [
                (&mut self.wait_span[peer], "round.wait"),
                (&mut self.train_span[peer], "round.train"),
                (&mut self.round_span[peer], "round"),
            ] {
                if let Some((id, _)) = slot.take() {
                    self.tel.end(at, name, peer as u32, id, || {
                        vec![("truncated", true.into())]
                    });
                }
            }
        }
    }
}

struct PeerState {
    key: KeyPair,
    chain: Blockchain,
    mempool: Mempool,
    runtime: BlockfedRuntime,
    next_nonce: u64,
    model_store: HashMap<H256, ModelUpdate>,
    orphans: Vec<usize>,
    current_round: u32,
    training: bool,
    train_done_at: Option<SimTime>,
    global_params: Vec<f32>,
    records: Vec<PeerRoundRecord>,
    /// Indices into the run's tx log of every transaction this peer authored.
    /// Re-inserted into the local mempool after each import so a reorg that
    /// unwinds a fork cannot silently discard them (the peer re-broadcasts
    /// its pending transactions, as real clients do).
    my_txs: Vec<usize>,
    /// Whether the peer currently participates (false before a `PeerJoin`
    /// fires, after a `PeerLeave`, or between a `PeerCrash` and its
    /// `PeerRestart`).
    active: bool,
    /// Training generation, bumped on every crash so in-flight `TrainDone`
    /// events scheduled before the crash arrive stale and are ignored.
    train_gen: u32,
    /// First round this peer participates in (1 unless it joined mid-run).
    first_round: u32,
    /// Cumulative hash-rate multiplier from `HashRateShock` faults.
    hash_scale: f64,
    /// Memoized [`confirmed_submissions`] scan of this peer's chain. The
    /// chain only changes on block import, yet the scan used to run on every
    /// delivered transaction — the dominant event-loop cost at large N. Keyed
    /// on (head hash, round); any head movement or round advance recomputes.
    confirmed_cache: Option<ConfirmedCache>,
    /// Hierarchical runs only: set between this peer's tier-1 (committee)
    /// aggregation and its tier-2 cross-committee merge. Like the round
    /// position it survives a crash — the tier-1 record is already in
    /// `records`, so losing the pending state would strand the round.
    tier1: Option<Tier1Pending>,
    /// Hierarchical runs only: committee-level aggregate artifacts this peer
    /// holds, mapping aggregate fingerprint to the run's aggregate log. Like
    /// `model_store`, survives a crash (artifacts are on disk).
    agg_store: HashMap<H256, usize>,
    /// Memoized [`crate::coupling::confirmed_aggregate_records`] scan for the
    /// tier-2 readiness check, keyed like `confirmed_cache`.
    agg_records_cache: Option<AggRecordsCache>,
}

struct ConfirmedCache {
    head: H256,
    round: u32,
    subs: Vec<crate::coupling::ConfirmedSubmission>,
}

/// A peer's state between tier-1 committee aggregation and the tier-2 merge.
#[derive(Clone)]
struct Tier1Pending {
    round: u32,
    /// When tier-1 aggregation completed (the tier-2 merge wait clock).
    done_at: SimTime,
    /// FedAvg weight of the peer's own committee aggregate (sample counts of
    /// the updates it consumed).
    weight: u64,
    /// Members of the peer's own committee aggregate, for the tier-2 union
    /// mask.
    members: Vec<usize>,
}

struct AggRecordsCache {
    head: H256,
    round: u32,
    records: Vec<crate::coupling::AggregateRecord>,
}

/// The run's resolved committee layout: the committee count and the
/// peer→committee map derived once from the spec. Immutable for the whole
/// run, so every peer (and every thread) sees the same sharding.
struct CommitteeCtx {
    count: usize,
    of: Vec<usize>,
}

/// One published committee-level aggregate, indexed by the run's aggregate
/// log (events carry the index, not the parameters).
struct AggArtifact {
    hash: H256,
    params: Vec<f32>,
    /// FedAvg weight for the tier-2 merge: sample counts behind the chosen
    /// tier-1 combination.
    weight: u64,
}

/// Refreshes `peer`'s memoized confirmed `record_aggregate` scan (tier-2
/// readiness input) if its chain head or round moved since the last call.
fn refresh_agg_records(peer: &mut PeerState, registry: H160, round: u32) {
    let head = peer.chain.head();
    let fresh = matches!(&peer.agg_records_cache, Some(c) if c.head == head && c.round == round);
    if !fresh {
        let records = crate::coupling::confirmed_aggregate_records(&peer.chain, registry, round);
        peer.agg_records_cache = Some(AggRecordsCache {
            head,
            round,
            records,
        });
    }
}

/// Refreshes `peer`'s memoized confirmed-submission scan if its chain head
/// or round moved since the last call.
fn refresh_confirmed(peer: &mut PeerState, registry: H160, round: u32) {
    let head = peer.chain.head();
    let fresh = matches!(&peer.confirmed_cache, Some(c) if c.head == head && c.round == round);
    if !fresh {
        let mut subs = confirmed_submissions(&peer.chain, registry, round);
        // Canonical candidate order: chain position reflects delivery and
        // mining timing, which packet loss and retried fetches perturb.
        // Sorting by submitter makes every aggregation (including its
        // tie-break jitter assignment) a function of the round's model set
        // alone, so a lossy run that recovers every artifact aggregates
        // exactly what its lossless twin does.
        subs.sort_by_key(|s| (s.sender, s.tx_hash));
        peer.confirmed_cache = Some(ConfirmedCache { head, round, subs });
    }
}

impl PeerState {
    fn done(&self, total_rounds: u32) -> bool {
        self.first_round > total_rounds
            || (self.tier1.is_none()
                && self.records.len() as u32 >= total_rounds + 1 - self.first_round)
    }
}

/// The run-wide gossip plumbing: the dissemination mode, the traffic meters
/// it splits bytes across, the reusable flood-routing scratch, and the relay
/// paths of deliveries still in flight.
struct GossipState {
    mode: GossipMode,
    /// Whether relay paths must be recorded for in-flight cut checks. Only a
    /// timeline that can sever a link ([`Fault::Partition`]) or kill a relay
    /// ([`Fault::PeerLeave`], [`Fault::PeerCrash`]) ever consults a path, so
    /// fault-free runs skip the per-delivery path clone entirely (an empty
    /// path always passes [`Network::path_open`] and [`relays_alive`]).
    track_routes: bool,
    scratch: FloodScratch,
    /// Relay path of every scheduled delivery (for in-flight cut checks).
    route_log: Vec<Vec<(NodeId, NodeId)>>,
    gossip_bytes: u64,
    fetch_bytes: u64,
    /// Deliveries lost in transit: per-edge packet loss on the relay tree
    /// plus in-flight partition/relay-crash cuts.
    dropped_msgs: u64,
    /// Dedicated RNG stream for [`GossipMode::Epidemic`]'s neighbor sampling.
    /// Always created (streams are mutually independent, so an unused stream
    /// perturbs nothing) but drawn from only when the mode is epidemic.
    epidemic_rng: StdRng,
}

/// One resolved targeted fetch: the payload's arrival offset, how many relay
/// edges it crosses, and the recorded path (empty when routes are untracked).
struct FetchRoute {
    delay: SimDuration,
    hops: u64,
    path: Vec<(NodeId, NodeId)>,
}

/// Whether every *relay* node on a recorded route is still alive: relay nodes
/// are exactly the path's interior nodes — the endpoint each consecutive edge
/// pair shares (the origin and the receiver touch one edge each). A delivery
/// whose relay crash-stopped while the message was in flight is lost,
/// mirroring the partition semantics of [`Network::path_open`].
fn relays_alive(path: &[(NodeId, NodeId)], peers: &[PeerState]) -> bool {
    path.windows(2).all(|w| {
        let (a, b) = w[0];
        let shared = if a == w[1].0 || a == w[1].1 { a } else { b };
        peers[shared.0].active
    })
}

/// Whether peers `a` and `b` share a committee — trivially true in a flat
/// run, where tier 1 is the whole population.
fn same_committee(layout: Option<&CommitteeCtx>, a: usize, b: usize) -> bool {
    layout.is_none_or(|cs| cs.of[a] == cs.of[b])
}

/// The decentralized experiment driver.
pub struct Decentralized<'a> {
    config: DecentralizedConfig,
    train_shards: &'a [Dataset],
    peer_tests: &'a [Dataset],
}

impl<'a> Decentralized<'a> {
    /// Creates a driver over per-peer train shards and test sets.
    ///
    /// # Panics
    ///
    /// Panics if [`Decentralized::try_new`] rejects the configuration; the
    /// panic message is the [`ConfigError`]'s `Display` form.
    pub fn new(
        config: DecentralizedConfig,
        train_shards: &'a [Dataset],
        peer_tests: &'a [Dataset],
    ) -> Self {
        match Decentralized::try_new(config, train_shards, peer_tests) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: validates the configuration and data shape and
    /// returns a typed [`ConfigError`] instead of panicking, so callers fed
    /// from external input (the scenario engine, services) can reject
    /// oversize or inconsistent runs gracefully.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn try_new(
        config: DecentralizedConfig,
        train_shards: &'a [Dataset],
        peer_tests: &'a [Dataset],
    ) -> Result<Self, ConfigError> {
        let n = train_shards.len();
        if n < 2 {
            return Err(ConfigError::TooFewPeers { got: n });
        }
        if n > MAX_PEERS {
            return Err(ConfigError::TooManyPeers { got: n });
        }
        if n != peer_tests.len() {
            return Err(ConfigError::ShardTestMismatch {
                shards: n,
                tests: peer_tests.len(),
            });
        }
        validate_timeline(&config.faults, n).map_err(ConfigError::InvalidTimeline)?;
        config
            .link
            .validate()
            .map_err(|e| ConfigError::InvalidLink(e.to_string()))?;
        config
            .compute
            .validate()
            .map_err(ConfigError::InvalidCompute)?;
        if let Some(profiles) = &config.per_peer_compute {
            if profiles.len() != n {
                return Err(ConfigError::PerPeerComputeMismatch {
                    profiles: profiles.len(),
                    peers: n,
                });
            }
            for p in profiles {
                p.validate().map_err(ConfigError::InvalidCompute)?;
            }
        }
        if config.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        if let Some(ctl) = &config.controller {
            ctl.validate().map_err(ConfigError::InvalidController)?;
        }
        if let Some(spec) = &config.committees {
            if spec.count == 0 {
                return Err(ConfigError::InvalidCommittees(
                    "need at least one committee".into(),
                ));
            }
            if spec.count > n {
                return Err(ConfigError::InvalidCommittees(format!(
                    "more committees than peers ({} committees, {n} peers)",
                    spec.count
                )));
            }
        }
        Ok(Decentralized {
            config,
            train_shards,
            peer_tests,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &DecentralizedConfig {
        &self.config
    }

    /// Runs the experiment. `make_model` builds the shared architecture; the
    /// first instance's initialization seeds every peer's starting point.
    pub fn run(&self, make_model: &mut dyn FnMut() -> Sequential) -> DecentralizedRun {
        self.run_with_hook(make_model, &mut |_| {})
    }

    /// Like [`Decentralized::run`] but calls `update_hook` on every local
    /// update right after training — the failure-injection point for studying
    /// poisoned or noisy peers in the decentralized setting.
    pub fn run_with_hook(
        &self,
        make_model: &mut dyn FnMut() -> Sequential,
        update_hook: &mut dyn FnMut(&mut ModelUpdate),
    ) -> DecentralizedRun {
        let mut sink = NoopSink;
        self.run_traced_with_hook(make_model, update_hook, &mut sink)
    }

    /// Like [`Decentralized::run`] but emits structured telemetry — round /
    /// train / wait spans, per-flood and per-fetch-episode records, PoW and
    /// reorg events, churn and watchdog instants, all stamped with virtual
    /// sim time — into `sink`. The sink only observes: a run traced into any
    /// sink is bit-identical (records, chain, meters) to the same run under
    /// [`NoopSink`].
    pub fn run_traced(
        &self,
        make_model: &mut dyn FnMut() -> Sequential,
        sink: &mut dyn TraceSink,
    ) -> DecentralizedRun {
        self.run_traced_with_hook(make_model, &mut |_| {}, sink)
    }

    /// The fully general entry point: telemetry sink plus update hook.
    pub fn run_traced_with_hook(
        &self,
        make_model: &mut dyn FnMut() -> Sequential,
        update_hook: &mut dyn FnMut(&mut ModelUpdate),
        sink: &mut dyn TraceSink,
    ) -> DecentralizedRun {
        let mut run = Run::new(self, make_model, update_hook, sink);
        run.drive();
        run.finish()
    }
}

/// The whole mutable state of one run, owned by the event loop. Every handler
/// is a `&mut self` method taking only what identifies its event (a peer, a
/// log index, the virtual instant), so what a handler can touch is what this
/// struct holds — nothing is threaded by hand.
struct Run<'a> {
    cfg: &'a DecentralizedConfig,
    train_shards: &'a [Dataset],
    peer_tests: &'a [Dataset],
    make_model: &'a mut dyn FnMut() -> Sequential,
    update_hook: &'a mut dyn FnMut(&mut ModelUpdate),
    hub: RngHub,
    registry: H160,
    addr_to_client: HashMap<H160, ClientId>,
    /// The chain store every peer of this run shares: each block is executed
    /// and each signature verified once per run instead of once per peer. A
    /// caller-supplied store (fork replay, memcheck) is reused across
    /// sequential runs; `begin_epoch` ages out entries the previous run
    /// stopped touching.
    store: ChainStore,
    /// The store's counters at run start, so the run reports only its own
    /// hits, misses and evictions on a shared store.
    store_base: StoreCounters,
    peers: Vec<PeerState>,
    /// One scratch model per compute worker (capped — beyond 8 the
    /// combination batches are too small to split further). Extra scratches
    /// are parameter-level duplicates, so the `make_model` RNG stream — and
    /// with it every result — is independent of the worker count.
    scratch_pool: Vec<Sequential>,
    /// Hierarchical committee layout, resolved once. A spec with a single
    /// committee *is* the flat topology: normalizing it to `None` keeps that
    /// run byte-identical to an unconfigured one.
    committee: Option<CommitteeCtx>,
    /// Committee-level aggregate artifacts and in-flight targeted pulls of
    /// them (expected-arrival guarded, like payload fetch episodes).
    agg_log: Vec<AggArtifact>,
    agg_pulls: HashMap<(usize, H256), SimTime>,
    network: Network,
    sched: Scheduler<Event>,
    net_rng: StdRng,
    mine_rng: StdRng,
    train_time_rng: StdRng,
    /// Backoff jitter draws from a dedicated stream so lossless, fault-free
    /// runs — which never retry — consume exactly the randomness they did
    /// before retries existed.
    fetch_rng: StdRng,
    attack_rng: StdRng,
    // Shared logs so events carry small indices instead of payloads.
    tx_log: Vec<Transaction>,
    update_log: Vec<ModelUpdate>,
    /// Aligned with `tx_log`: the update a `submit_model` transaction carries.
    tx_update: Vec<Option<usize>>,
    block_log: Vec<Arc<Block>>,
    /// Aligned with `block_log`.
    block_miner: Vec<usize>,
    gs: GossipState,
    /// Submit-tx index by model fingerprint, for on-demand payload fetches
    /// when a block confirms a submission whose artifact a peer never
    /// received (partitioned mid-flood, lost to packet drops, or joined
    /// after the flood).
    fp_to_tx: HashMap<H256, usize>,
    /// One fetch episode per (peer, artifact) at a time: repeated block
    /// deliveries neither duplicate nor double-count it, and the episode's
    /// `FetchTimeout` owns retries until the artifact lands or the attempt
    /// budget runs out.
    fetches: HashMap<(usize, H256), FetchState>,
    fetch_retries: u64,
    recovery_total: SimDuration,
    recoveries: u64,
    /// Active fetch time left behind by episodes that exhausted their
    /// attempt budget, keyed like `fetches`: the next confirming block
    /// restarts the episode with this time carried over, so `recovery_ms`
    /// meters the whole chase. Cleared when the artifact arrives by any
    /// path or the chasing peer crashes.
    gave_up_elapsed: HashMap<(usize, H256), SimDuration>,
    engine: PolicyEngine,
    /// Publication times, for the age-of-block metric.
    publish_time: HashMap<H256, SimTime>,
    /// Each peer's previously published parameters, for the replay attack.
    last_published: Vec<Option<Vec<f32>>>,
    /// Scheduled faults that have not fired yet.
    pending_faults: usize,
    stall: Option<String>,
    difficulty_ctl: DifficultyController,
    last_seal_at: Option<SimTime>,
    obs: Obs<'a>,
    finished_at: SimTime,
}

impl<'a> Run<'a> {
    /// Builds the run's state and schedules everything that happens at
    /// `t = 0`: registrations, first trainings, the fault timeline, the
    /// watchdog and the first mining race.
    fn new(
        driver: &'a Decentralized<'a>,
        make_model: &'a mut dyn FnMut() -> Sequential,
        update_hook: &'a mut dyn FnMut(&mut ModelUpdate),
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let cfg = &driver.config;
        let n = driver.train_shards.len();
        let hub = RngHub::new(cfg.seed);

        // --- identities, registry, chains -------------------------------
        let mut key_rng = hub.stream("keys");
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut key_rng)).collect();
        let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
        let registry = registry_address();
        let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_difficulty(cfg.difficulty)
            .with_code(registry, NATIVE_REGISTRY_CODE.to_vec());
        let addr_to_client: HashMap<H160, ClientId> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, ClientId(i)))
            .collect();

        let init_params = make_model().params_flat();
        let mut scratch_pool = vec![make_model()];
        while scratch_pool.len() < blockfed_compute::num_threads().min(8) {
            let dup = scratch_pool[0].duplicate();
            scratch_pool.push(dup);
        }
        // Peers with a scheduled join are dormant until their fault fires.
        let joiners: std::collections::HashSet<usize> = cfg
            .faults
            .iter()
            .filter_map(|tf| match tf.fault {
                Fault::PeerJoin { peer } => Some(peer),
                _ => None,
            })
            .collect();
        let store = cfg.store.clone().unwrap_or_default();
        store.begin_epoch();
        let store_base = store.counters();
        let build_chain = || {
            let mut chain = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
            if let Some(interval) = cfg.snapshot_interval {
                chain = chain.with_snapshot_interval(interval);
            }
            if let Some(depth) = cfg.prune_depth {
                chain = chain.with_prune_depth(depth);
            }
            chain
        };
        let peers: Vec<PeerState> = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                let mut runtime = BlockfedRuntime::new();
                runtime.register_native(registry, NativeContract::FlRegistry);
                PeerState {
                    key,
                    chain: build_chain(),
                    mempool: Mempool::with_sig_cache(store.sig_cache()),
                    runtime,
                    next_nonce: 0,
                    model_store: HashMap::new(),
                    orphans: Vec::new(),
                    current_round: 1,
                    training: true,
                    train_done_at: None,
                    global_params: init_params.clone(),
                    records: Vec::new(),
                    my_txs: Vec::new(),
                    active: !joiners.contains(&i),
                    train_gen: 0,
                    first_round: 1,
                    hash_scale: 1.0,
                    confirmed_cache: None,
                    tier1: None,
                    agg_store: HashMap::new(),
                    agg_records_cache: None,
                }
            })
            .collect();

        // Difficulty retargeting: the controller aims for the cadence the
        // configured difficulty implies against the genesis hash rate, so at
        // steady state every rule holds the configured block interval, and
        // the adaptive rules pull cadence back there after hash-rate shocks.
        let genesis_rate: f64 = (0..n)
            .filter(|&i| peers[i].active)
            .map(|i| cfg.compute_for(i).effective_hashrate(true))
            .sum();
        let implied_target_ns = if genesis_rate > 0.0 {
            ((cfg.difficulty as f64 / genesis_rate) * 1e9).max(1.0) as u64
        } else {
            blockfed_chain::pow::TARGET_BLOCK_TIME_NS
        };

        let mut run = Run {
            cfg,
            train_shards: driver.train_shards,
            peer_tests: driver.peer_tests,
            make_model,
            update_hook,
            registry,
            addr_to_client,
            store,
            store_base,
            peers,
            scratch_pool,
            committee: cfg
                .committees
                .filter(|c| c.count > 1)
                .map(|c| CommitteeCtx {
                    count: c.count,
                    of: c.assign(n),
                }),
            agg_log: Vec::new(),
            agg_pulls: HashMap::new(),
            network: Network::new(n, cfg.topology.clone(), cfg.link),
            // Pre-sized for the steady-state burst: one flood's deliveries
            // per active peer plus mining/fault slack.
            sched: Scheduler::with_capacity(4 * n + 16),
            net_rng: hub.stream("net"),
            mine_rng: hub.stream("mining"),
            train_time_rng: hub.stream("train-time"),
            fetch_rng: hub.stream("fetch-backoff"),
            attack_rng: hub.stream("attack"),
            tx_log: Vec::new(),
            update_log: Vec::new(),
            tx_update: Vec::new(),
            block_log: Vec::new(),
            block_miner: Vec::new(),
            gs: GossipState {
                mode: cfg.gossip,
                track_routes: cfg.faults.iter().any(|tf| {
                    matches!(
                        tf.fault,
                        Fault::Partition { .. } | Fault::PeerLeave { .. } | Fault::PeerCrash { .. }
                    )
                }),
                scratch: FloodScratch::new(),
                route_log: Vec::new(),
                gossip_bytes: 0,
                fetch_bytes: 0,
                dropped_msgs: 0,
                epidemic_rng: hub.stream("epidemic"),
            },
            fp_to_tx: HashMap::new(),
            fetches: HashMap::new(),
            fetch_retries: 0,
            recovery_total: SimDuration::ZERO,
            recoveries: 0,
            gave_up_elapsed: HashMap::new(),
            engine: PolicyEngine::new(cfg, &hub),
            publish_time: HashMap::new(),
            last_published: vec![None; n],
            pending_faults: cfg.faults.len(),
            stall: None,
            difficulty_ctl: DifficultyController::with_target(
                cfg.retarget,
                cfg.difficulty,
                implied_target_ns,
            ),
            last_seal_at: None,
            obs: Obs::new(n, sink),
            finished_at: SimTime::ZERO,
            hub,
        };

        // Registration txs at t = 0 (dormant joiners register when they
        // join), then the first training of every active peer.
        for i in 0..n {
            if run.peers[i].active {
                run.publish_own_tx(i, SimTime::ZERO, |key, nonce| {
                    register_tx(registry, key, nonce)
                });
            }
        }
        for i in 0..n {
            if run.peers[i].active {
                run.start_training(i, SimTime::ZERO);
            }
        }
        for (idx, tf) in cfg.faults.iter().enumerate() {
            run.sched.schedule_after(tf.at, Event::Fault { idx });
        }
        // Liveness watchdog: re-armed on every check, fires the stall
        // diagnostic when nothing has progressed for a full timeout while no
        // scheduled fault can still unblock the run.
        if let Some(timeout) = cfg.watchdog {
            run.sched.schedule_after(timeout, Event::Watchdog);
            run.obs
                .tel
                .run_instant(SimTime::ZERO, "watchdog.armed", || {
                    vec![("timeout_secs", timeout.as_secs_f64().into())]
                });
        }
        let first_race = run.sample_race_delay();
        run.sched.schedule_after(first_race, Event::SealBlock);
        run
    }

    /// The event loop: pops events in virtual-time order until every active
    /// peer finished its rounds and no scheduled fault (e.g. a late join) can
    /// still change the population, or the watchdog declares a stall.
    fn drive(&mut self) {
        let n = self.peers.len() as u64;
        // Full floods deliver O(n) events each and every peer floods several
        // times per round, so the safety cap must scale with the population:
        // the flat 2M floor covers small runs, the quadratic term covers a
        // 1024-peer run's per-round delivery volume with headroom.
        let event_cap = 2_000_000u64.max(n * n * (4 * u64::from(self.cfg.rounds) + 8));
        let mut events_processed: u64 = 0;
        while let Some((now, event)) = self.sched.next() {
            events_processed += 1;
            assert!(
                events_processed < event_cap,
                "event cap exceeded; livelock?"
            );
            if self.settled() {
                self.finished_at = self.finished_at.max(now);
                break;
            }
            match event {
                Event::TrainDone { peer, gen } => self.on_train_done(peer, gen, now),
                Event::DeliverTx { to, idx, route } => self.on_deliver_tx(to, idx, route, now),
                Event::DeliverBlock { to, idx, route } => {
                    self.on_deliver_block(to, idx, route, now);
                }
                Event::DeliverAgg { to, idx, route } => self.on_deliver_agg(to, idx, route, now),
                Event::SealBlock => self.on_seal_block(now),
                Event::Fault { idx } => self.on_fault(idx, now),
                Event::FetchTimeout { to, fp, attempt } => {
                    self.on_fetch_timeout(to, fp, attempt, now);
                }
                Event::Watchdog => self.on_watchdog(now),
            }
            self.finished_at = now;
            if self.stall.is_some() || self.settled() {
                break;
            }
        }
    }

    fn settled(&self) -> bool {
        self.pending_faults == 0
            && self
                .peers
                .iter()
                .all(|p| !p.active || p.done(self.cfg.rounds))
    }

    /// Peer `i`'s current weight in the mining race: zero while inactive,
    /// else its contention-adjusted hash rate scaled by any hash-rate shocks.
    fn mining_weight(&self, i: usize) -> f64 {
        let p = &self.peers[i];
        if p.active {
            self.cfg.compute_for(i).effective_hashrate(p.training) * p.hash_scale
        } else {
            0.0
        }
    }

    fn sample_race_delay(&mut self) -> SimDuration {
        let total: f64 = (0..self.peers.len()).map(|i| self.mining_weight(i)).sum();
        if total <= 0.0 {
            return SimDuration::from_secs_f64(1.0);
        }
        blockfed_chain::pow::sample_mining_delay(
            self.difficulty_ctl.difficulty(),
            total,
            &mut self.mine_rng,
        )
    }

    /// Starts (or, after a crash, restarts) `peer`'s local training for its
    /// current round: opens the spans and schedules the completion.
    fn start_training(&mut self, peer: usize, now: SimTime) {
        let p = &mut self.peers[peer];
        p.training = true;
        let (round, gen) = (p.current_round, p.train_gen);
        self.obs.begin_training(peer, now, round);
        let base = self.cfg.compute_for(peer).training_time(
            self.train_shards[peer].len(),
            self.cfg.local_epochs,
            true,
        );
        let jitter = base.mul_f64(self.train_time_rng.gen_range(0.0..0.05));
        self.sched
            .schedule_after(base + jitter, Event::TrainDone { peer, gen });
    }

    /// Signs one of `peer`'s own control transactions at its next nonce, logs
    /// it, admits it to the peer's mempool and floods it. Returns its index
    /// in the tx log.
    fn publish_own_tx(
        &mut self,
        peer: usize,
        now: SimTime,
        sign: impl FnOnce(&KeyPair, u64) -> Transaction,
    ) -> usize {
        let p = &mut self.peers[peer];
        let tx = sign(&p.key, p.next_nonce);
        p.next_nonce += 1;
        let idx = self.tx_log.len();
        self.tx_log.push(tx.clone());
        self.tx_update.push(None);
        p.my_txs.push(idx);
        let _ = p.mempool.insert(tx, p.chain.state());
        self.schedule_flood(peer, 512, Parcel::Tx(idx), now);
        idx
    }

    /// Imports every block sealed so far into `peer`'s chain (out-of-order
    /// imports resolve via orphans) — how a joiner or a restarted peer
    /// catches up. Returns the synced height.
    fn sync_chain(&mut self, peer: usize, now: SimTime) -> u64 {
        for b in 0..self.block_log.len() {
            self.import_with_orphans(peer, b, now);
        }
        self.peers[peer].chain.head_block().number()
    }

    /// The active population shrank (a leave or a crash): wait policies now
    /// measure against fewer peers, and a committee with no live member and
    /// no record is no longer needed — so re-check every waiter, or a
    /// `WaitPolicy::All` peer deadlocks on the departed.
    fn recheck_waiters(&mut self, now: SimTime) {
        for p in 0..self.peers.len() {
            if self.peers[p].active {
                self.try_aggregate(p, now);
                self.try_merge(p, now);
            }
        }
    }

    /// Schedules one flood's deliveries to currently active peers, records
    /// each delivery's relay path when the timeline can cut one mid-flight,
    /// and meters the traffic. A control flood pushes `bytes` once per relay
    /// edge under [`GossipMode::Full`] and [`GossipMode::AnnounceFetch`]. An
    /// artifact flood depends on the gossip mode: [`GossipMode::Full`] pushes
    /// the whole payload per edge, while [`GossipMode::AnnounceFetch`] floods
    /// a digest-sized announcement per edge and meters one targeted payload
    /// pull per *pulling* peer over its shortest path.
    /// [`GossipMode::Epidemic`] announces *every* message larger than an
    /// announcement — blocks and control transactions included — and replaces
    /// the per-edge announcement cost with `ANNOUNCE_BYTES ×` the
    /// transmissions of a fanout-sampled rumor sweep drawn from the dedicated
    /// epidemic stream. The delivery schedule is the flood's shortest-path
    /// tree in every mode, so the simulation is bit-identical across modes
    /// and only the meters differ.
    fn schedule_flood(&mut self, origin: usize, bytes: u64, parcel: Parcel, now: SimTime) {
        let artifact = matches!(parcel, Parcel::Model(_) | Parcel::Agg(_));
        // Crash-stopped and dormant peers neither receive nor relay: route
        // over the active subgraph.
        self.gs
            .scratch
            .set_avoid(self.peers.iter().map(|p| !p.active));
        // An artifact no larger than the announcement is inlined in it —
        // pulling it separately would only add a request round and
        // double-count bytes — so announce/fetch engages strictly above the
        // announcement size, which keeps `gossip_bytes(AnnounceFetch) ≤
        // gossip_bytes(Full)` for every payload and strictly `<` whenever a
        // real artifact floods.
        let announce = match (artifact, self.gs.mode) {
            (true, GossipMode::AnnounceFetch) if bytes > ANNOUNCE_BYTES => Some(ANNOUNCE_BYTES),
            (_, GossipMode::Epidemic { .. }) if bytes > ANNOUNCE_BYTES => Some(ANNOUNCE_BYTES),
            _ => None,
        };
        self.sched.reserve(self.network.len());
        let GossipState {
            scratch,
            route_log,
            fetch_bytes,
            track_routes,
            ..
        } = &mut self.gs;
        let (sched, committee) = (&mut self.sched, self.committee.as_ref());
        let stats = self.network.flood_with(
            NodeId(origin),
            bytes,
            &mut self.net_rng,
            scratch,
            |node, delay, path| {
                let to = node.0;
                // Only the sender's committee pulls a model payload: the rest
                // of the population sees the announcement (and the minable
                // digest transaction it carries) but never fetches the
                // parameters — the tier-1 half of the hierarchical traffic
                // win.
                let pulls =
                    !matches!(parcel, Parcel::Model(_)) || same_committee(committee, to, origin);
                if announce.is_some() && pulls {
                    *fetch_bytes += bytes * path.len() as u64;
                }
                let route = route_log.len();
                route_log.push(if *track_routes {
                    path.to_vec()
                } else {
                    Vec::new()
                });
                let event = match parcel {
                    Parcel::Tx(idx) | Parcel::Model(idx) => Event::DeliverTx { to, idx, route },
                    Parcel::Block(idx) => Event::DeliverBlock { to, idx, route },
                    Parcel::Agg(idx) => Event::DeliverAgg { to, idx, route },
                };
                sched.schedule_after(delay, event);
            },
        );
        // Every delivery path lies on the flood's shortest-path tree and each
        // reached node contributes exactly its own tree edge, so the number
        // of distinct relay edges equals the delivery count. Lost deliveries
        // never crossed their last edge, so they meter no bytes — only the
        // drop count.
        match self.gs.mode {
            GossipMode::Epidemic { fanout } if announce.is_some() => {
                // The rumor sweep reuses the flood scratch (its avoid mask is
                // already the active-peer mask; `prepare` re-stamps the
                // epoch) and draws only from the epidemic stream, so the
                // flood schedule above is untouched.
                let transmissions = self.network.epidemic_transmissions(
                    NodeId(origin),
                    fanout,
                    &mut self.gs.scratch,
                    &mut self.gs.epidemic_rng,
                );
                self.gs.gossip_bytes += ANNOUNCE_BYTES * transmissions;
            }
            _ => self.gs.gossip_bytes += announce.unwrap_or(bytes) * stats.delivered as u64,
        }
        self.gs.dropped_msgs += stats.dropped as u64;
        self.obs.tel.instant(now, "net.flood", origin as u32, || {
            vec![
                ("bytes", bytes.into()),
                ("artifact", artifact.into()),
                ("announced", announce.is_some().into()),
                ("delivered", (stats.delivered as u64).into()),
                ("dropped", (stats.dropped as u64).into()),
            ]
        });
    }

    /// Routes one targeted payload pull from `source` toward `to` over the
    /// currently-open active subgraph, sampling per-edge loss like any other
    /// transmission. Returns `None` when `to` is unreachable or the pull was
    /// lost in transit.
    fn probe_fetch(&mut self, source: usize, to: usize, payload_bytes: u64) -> Option<FetchRoute> {
        self.gs
            .scratch
            .set_avoid(self.peers.iter().map(|p| !p.active));
        let track_routes = self.gs.track_routes;
        let mut found: Option<FetchRoute> = None;
        let _ = self.network.flood_with(
            NodeId(source),
            payload_bytes,
            &mut self.net_rng,
            &mut self.gs.scratch,
            |node, delay, path| {
                if node.0 == to {
                    found = Some(FetchRoute {
                        delay,
                        hops: path.len() as u64,
                        path: if track_routes {
                            path.to_vec()
                        } else {
                            Vec::new()
                        },
                    });
                }
            },
        );
        found
    }

    /// Probes a targeted pull of `bytes` from `source` to `to` and, when a
    /// route exists, meters it, records its path and schedules the delivery
    /// `deliver(route)` builds. Returns the arrival delay and the bytes
    /// metered. A targeted pull *is* the announce/fetch primary path; Full
    /// mode keeps the legacy accounting.
    fn schedule_pull(
        &mut self,
        source: usize,
        to: usize,
        bytes: u64,
        deliver: impl FnOnce(usize) -> Event,
    ) -> Option<(SimDuration, u64)> {
        let FetchRoute { delay, hops, path } = self.probe_fetch(source, to, bytes)?;
        let metered = bytes * hops;
        match self.gs.mode {
            GossipMode::Full => self.gs.gossip_bytes += metered,
            GossipMode::AnnounceFetch | GossipMode::Epidemic { .. } => {
                self.gs.fetch_bytes += metered;
            }
        }
        let route = self.gs.route_log.len();
        self.gs.route_log.push(path);
        self.sched.schedule_after(delay, deliver(route));
        Some((delay, metered))
    }

    /// Launches attempt `attempt` of the open fetch episode `(to, fp)` from
    /// `source`, and always schedules the attempt's deadline: past the
    /// expected arrival when the pull is on its way (a clean delivery then
    /// finds the episode resolved and the timeout does nothing), a plain
    /// backoff when the pull was lost or the holder is unreachable.
    fn launch_fetch(&mut self, source: usize, to: usize, fp: H256, attempt: u32) {
        let st = &self.fetches[&(to, fp)];
        let (bytes, idx) = (st.payload_bytes, st.tx_idx);
        let arrival = self
            .schedule_pull(source, to, bytes, |route| Event::DeliverTx {
                to,
                idx,
                route,
            })
            .map_or(SimDuration::ZERO, |(delay, _)| delay);
        let deadline = arrival + fetch_backoff(attempt, &mut self.fetch_rng);
        self.sched
            .schedule_after(deadline, Event::FetchTimeout { to, fp, attempt });
    }

    /// Whether delivery `route` survived its flight. One whose link was
    /// partitioned or whose relay crash-stopped meanwhile is lost: counted,
    /// traced, and `false`.
    fn route_open(
        &mut self,
        route: usize,
        to: usize,
        kind: &'static str,
        idx: usize,
        now: SimTime,
    ) -> bool {
        let path = &self.gs.route_log[route];
        if self.network.path_open(path) && relays_alive(path, &self.peers) {
            return true;
        }
        self.obs.tel.instant(now, "net.dropped", to as u32, || {
            vec![("kind", kind.into()), ("idx", (idx as u64).into())]
        });
        self.gs.dropped_msgs += 1;
        false
    }

    fn on_train_done(&mut self, peer: usize, gen: u32, now: SimTime) {
        // A crash bumps the generation: a completion that was in flight when
        // the process died arrives stale.
        if !self.peers[peer].active || gen != self.peers[peer].train_gen {
            return;
        }
        let cfg = self.cfg;
        let round = self.peers[peer].current_round;
        // Train eagerly at the event (virtual time already paid).
        let mut model = (self.make_model)();
        model.set_params_flat(&self.peers[peer].global_params);
        let mut opt = Sgd::new(cfg.lr, cfg.momentum);
        let mut rng = self
            .hub
            .indexed_stream("train", (peer as u64) << 32 | u64::from(round));
        // The batch-parallel loop is bit-identical to the sequential one, so
        // the knob only changes how much host wall-clock the
        // (virtual-time-accounted) training costs.
        model.train_epochs_maybe_par(
            cfg.compute_for(peer).batch_parallel,
            &self.train_shards[peer],
            cfg.local_epochs,
            &Batcher::new(cfg.batch_size),
            &mut opt,
            &mut rng,
        );
        let mut update = ModelUpdate::new(
            ClientId(peer),
            round,
            model.params_flat(),
            self.train_shards[peer].len(),
        )
        .with_payload_bytes(cfg.payload_bytes);
        (self.update_hook)(&mut update);
        for adv in &cfg.adversaries {
            if adv.client == ClientId(peer) && adv.active_in(round) {
                adv.attack.apply_with_history(
                    &mut update,
                    self.last_published[peer].as_deref(),
                    &mut self.attack_rng,
                );
                self.obs
                    .tel
                    .instant(now, "attack.mounted", peer as u32, || {
                        vec![("round", round.into())]
                    });
            }
        }
        self.last_published[peer] = Some(update.params.clone());
        let fingerprint = crate::coupling::model_fingerprint(&update);
        self.publish_time.insert(fingerprint, now);
        let p = &mut self.peers[peer];
        let tx = submit_model_tx(&update, self.registry, &p.key, p.next_nonce);
        p.next_nonce += 1;
        self.obs.training_done(peer, now, round);

        let tx_idx = self.tx_log.len();
        self.tx_log.push(tx.clone());
        self.tx_update.push(Some(self.update_log.len()));
        self.update_log.push(update.clone());
        self.fp_to_tx.insert(fingerprint, tx_idx);
        p.my_txs.push(tx_idx);
        p.model_store.insert(fingerprint, update);
        let _ = p.mempool.insert(tx, p.chain.state());
        p.training = false;
        p.train_done_at = Some(now);

        self.schedule_flood(peer, cfg.payload_bytes, Parcel::Model(tx_idx), now);
        self.try_aggregate(peer, now);
    }

    fn on_deliver_tx(&mut self, to: usize, idx: usize, route: usize, now: SimTime) {
        // A lost or undeliverable pull stays an open fetch episode: its
        // `FetchTimeout` owns the retry, so nothing is removed from `fetches`
        // here unless the artifact actually lands.
        if !self.peers[to].active || !self.route_open(route, to, "tx", idx, now) {
            return;
        }
        let tx = self.tx_log[idx].clone();
        // A hierarchical run scopes model payloads to the sender's
        // committee: everyone else received only the announcement, so they
        // mine the digest transaction but never hold (or store) the
        // parameters.
        let committee = self.committee.as_ref();
        if let Some(u) = self.tx_update[idx]
            .filter(|&u| same_committee(committee, self.update_log[u].client.0, to))
        {
            let update = self.update_log[u].clone();
            let fp = crate::coupling::model_fingerprint(&update);
            if let Some(st) = self.fetches.remove(&(to, fp)) {
                self.recoveries += 1;
                let took = now.saturating_since(st.first_at) + st.carried;
                self.recovery_total += took;
                self.obs
                    .metrics
                    .observe("fetch_ms", took.as_secs_f64() * 1e3);
                self.obs.tel.end(now, "fetch", to as u32, st.span, || {
                    vec![("attempts", (st.attempt + 1).into())]
                });
                self.obs.note(to, now, "fetch.recovered");
            }
            if self.peers[to].model_store.insert(fp, update).is_none() {
                self.obs.last_progress = now;
                self.obs.note(to, now, "artifact.arrived");
            }
            // The artifact is here: any gave-up time still parked for it can
            // no longer be attributed to a recovery.
            self.gave_up_elapsed.remove(&(to, fp));
        }
        let p = &mut self.peers[to];
        let _ = p.mempool.insert(tx, p.chain.state());
        self.try_aggregate(to, now);
    }

    fn on_seal_block(&mut self, now: SimTime) {
        // Pick the race winner ∝ current effective hash rates of the
        // *active* miners (scaled by any hash-rate shocks).
        let weights: Vec<f64> = (0..self.peers.len())
            .map(|i| self.mining_weight(i))
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // No live miner; idle until churn revives the chain. Forget the
            // previous seal time so the dead window is not fed to the
            // retarget controller as one huge interval when mining resumes.
            self.last_seal_at = None;
            self.sched
                .schedule_after(SimDuration::from_secs_f64(1.0), Event::SealBlock);
            return;
        }
        let mut draw = self.mine_rng.gen_range(0.0..total);
        // Float fallback: the first live miner wins a degenerate draw.
        let mut winner = weights
            .iter()
            .position(|w| *w > 0.0)
            .expect("total > 0 implies a live miner");
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 && draw < *w {
                winner = i;
                break;
            }
            draw -= w;
        }
        let p = &mut self.peers[winner];
        let head_ts = p.chain.head_block().header.timestamp_ns;
        let ts = now.as_nanos().max(head_ts + 1);
        p.mempool.prune(p.chain.state());
        let gas_limit = p.chain.head_block().header.gas_limit;
        let txs = p.mempool.select(p.chain.state(), gas_limit, 64);
        let block = Arc::new(
            p.chain
                .build_candidate(p.key.address(), txs, ts, &mut p.runtime),
        );
        if p.chain
            .import_arc(Arc::clone(&block), &mut p.runtime)
            .is_ok()
        {
            // Retarget on the observed inter-seal interval.
            if let Some(prev) = self.last_seal_at {
                let interval = now.saturating_since(prev);
                self.difficulty_ctl.observe(interval.as_nanos().max(1));
                self.obs
                    .metrics
                    .observe("block_interval_secs", interval.as_secs_f64());
            }
            self.last_seal_at = Some(now);
            self.obs.tel.instant(now, "pow.sealed", winner as u32, || {
                vec![
                    ("number", block.number().into()),
                    ("txs", (block.transactions.len() as u64).into()),
                ]
            });
            p.mempool.prune(p.chain.state());
            let block_idx = self.block_log.len();
            let block_bytes = 1024 + 256 * block.transactions.len() as u64;
            self.block_log.push(block);
            self.block_miner.push(winner);
            self.schedule_flood(winner, block_bytes, Parcel::Block(block_idx), now);
            self.try_aggregate(winner, now);
            // The winner imported its own block without a `DeliverBlock`
            // event: newly confirmed records may have made its tier-2 merge
            // ready.
            self.try_merge(winner, now);
        }
        let delay = self.sample_race_delay();
        self.sched.schedule_after(delay, Event::SealBlock);
    }

    fn on_deliver_block(&mut self, to: usize, idx: usize, route: usize, now: SimTime) {
        if !self.peers[to].active || !self.route_open(route, to, "block", idx, now) {
            return;
        }
        self.import_with_orphans(to, idx, now);
        // On-demand payload recovery: the chain may confirm a submission
        // whose artifact this peer never received (the gossip crossed a
        // partition, was lost to packet drops, or the peer joined late). Ask
        // the block's miner first over the shortest currently-open path; the
        // episode's `FetchTimeout` then retries with exponential backoff,
        // rotating over every active holder, until the artifact lands or the
        // attempt budget runs out. One episode per (peer, artifact) is open
        // at a time.
        let round_now = self.peers[to].current_round;
        let miner = self.block_miner[idx];
        refresh_confirmed(&mut self.peers[to], self.registry, round_now);
        let p = &self.peers[to];
        let missing: Vec<(H256, u64, usize)> = p
            .confirmed_cache
            .as_ref()
            .expect("just refreshed")
            .subs
            .iter()
            .filter(|s| !p.model_store.contains_key(&s.model_hash))
            // Hierarchical runs only chase artifacts of the peer's own
            // committee — the rest were never meant to arrive.
            .filter(|s| {
                self.addr_to_client
                    .get(&s.sender)
                    .is_some_and(|c| same_committee(self.committee.as_ref(), c.0, to))
            })
            .filter_map(|s| {
                self.fp_to_tx
                    .get(&s.model_hash)
                    .map(|&t| (s.model_hash, s.payload_bytes, t))
            })
            .collect();
        for (model_hash, payload_bytes, tx_idx) in missing {
            if self.fetches.contains_key(&(to, model_hash)) || miner == to {
                continue;
            }
            let span = self.obs.tel.begin(now, "fetch", to as u32, || {
                vec![
                    ("from", (miner as u64).into()),
                    ("bytes", payload_bytes.into()),
                    ("round", round_now.into()),
                ]
            });
            self.obs.note(to, now, "fetch.start");
            self.fetches.insert(
                (to, model_hash),
                FetchState {
                    attempt: 0,
                    primary: miner,
                    first_at: now,
                    // A restarted chase resumes the recovery clock where the
                    // gave-up episodes left it (the idle gap between them
                    // stays excluded).
                    carried: self
                        .gave_up_elapsed
                        .remove(&(to, model_hash))
                        .unwrap_or(SimDuration::ZERO),
                    payload_bytes,
                    tx_idx,
                    span,
                },
            );
            self.launch_fetch(miner, to, model_hash, 0);
        }
        self.try_aggregate(to, now);
        // Fresh confirmations may complete a pending tier-2 merge.
        self.try_merge(to, now);
    }

    fn on_deliver_agg(&mut self, to: usize, idx: usize, route: usize, now: SimTime) {
        if !self.peers[to].active || !self.route_open(route, to, "agg", idx, now) {
            return;
        }
        let hash = self.agg_log[idx].hash;
        self.agg_pulls.remove(&(to, hash));
        if self.peers[to].agg_store.insert(hash, idx).is_none() {
            self.obs.last_progress = now;
            self.obs.note(to, now, "agg.arrived");
        }
        self.try_merge(to, now);
    }

    fn on_fault(&mut self, idx: usize, now: SimTime) {
        self.pending_faults -= 1;
        let fault = self.cfg.faults[idx].fault.clone();
        self.obs.tel.run_instant(now, "fault.fired", || {
            vec![("fault", fault.to_string().into())]
        });
        match fault {
            Fault::Partition { left, right } => {
                let l: Vec<NodeId> = left.iter().map(|&p| NodeId(p)).collect();
                let r: Vec<NodeId> = right.iter().map(|&p| NodeId(p)).collect();
                self.network.partition_halves(&l, &r);
            }
            Fault::HealAll => self.network.heal_all(),
            Fault::HashRateShock { peer, factor } => self.peers[peer].hash_scale *= factor,
            Fault::PeerLeave { peer } => {
                self.peers[peer].active = false;
                self.obs
                    .churn(peer, now, "churn.leave", self.peers[peer].current_round);
                self.recheck_waiters(now);
            }
            Fault::PeerJoin { peer } => self.on_join(peer, now),
            Fault::PeerCrash { peer } => self.on_crash(peer, now),
            Fault::PeerRestart { peer } => self.on_restart(peer, now),
        }
    }

    fn on_join(&mut self, peer: usize, now: SimTime) {
        self.peers[peer].active = true;
        // 1. Sync: download every block sealed so far.
        let synced_height = self.sync_chain(peer, now);
        // 2. Register on the FL registry.
        let registry = self.registry;
        self.publish_own_tx(peer, now, |key, nonce| register_tx(registry, key, nonce));
        // 3. Enter the *earliest* round still in progress and only then
        //    start training. Entering any later round would starve a live
        //    `wait-all` laggard forever: the joiner inflates the population
        //    the laggard measures against but would never submit for the
        //    laggard's round.
        let join_round = self
            .peers
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != peer && p.active)
            .map(|(_, p)| p.current_round)
            .min()
            .unwrap_or(1);
        let p = &mut self.peers[peer];
        p.first_round = join_round;
        p.current_round = join_round;
        p.train_done_at = None;
        self.obs.tel.instant(now, "churn.join", peer as u32, || {
            vec![
                ("round", join_round.into()),
                ("synced_height", synced_height.into()),
            ]
        });
        self.start_training(peer, now);
    }

    fn on_crash(&mut self, peer: usize, now: SimTime) {
        // A process crash, not a departure: identity, chain, records, and
        // round position survive on disk; volatile state does not. Bumping
        // the training generation discards the in-flight `TrainDone`, and the
        // peer's open fetch episodes die with the process.
        let p = &mut self.peers[peer];
        p.active = false;
        p.train_gen += 1;
        p.mempool = Mempool::with_sig_cache(self.store.sig_cache());
        // Sorted teardown so the emitted span ends don't inherit the map's
        // nondeterministic order.
        let mut dead: Vec<(H256, u64)> = self
            .fetches
            .iter()
            .filter(|((who, _), _)| *who == peer)
            .map(|((_, fp), st)| (*fp, st.span))
            .collect();
        dead.sort_unstable_by_key(|&(fp, _)| fp);
        for (fp, span) in dead {
            self.fetches.remove(&(peer, fp));
            self.obs.tel.end(now, "fetch", peer as u32, span, || {
                vec![("aborted", true.into())]
            });
        }
        // Parked gave-up time dies with the process too.
        self.gave_up_elapsed.retain(|(who, _), _| *who != peer);
        self.obs.crash_aborts(peer, now);
        self.obs
            .churn(peer, now, "churn.crash", self.peers[peer].current_round);
        self.recheck_waiters(now);
    }

    fn on_restart(&mut self, peer: usize, now: SimTime) {
        self.peers[peer].active = true;
        // Resync through the same ancestor-sync path a joiner uses; this also
        // re-inserts the peer's own pending transactions into its fresh
        // mempool.
        let synced_height = self.sync_chain(peer, now);
        let round = self.peers[peer].current_round;
        self.obs.tel.instant(now, "churn.restart", peer as u32, || {
            vec![
                ("round", round.into()),
                ("synced_height", synced_height.into()),
            ]
        });
        self.obs.note(peer, now, "churn.restart");
        if self.peers[peer].training {
            // The crash killed the local training run: start the round's
            // training over.
            self.start_training(peer, now);
        } else {
            // It had already published for this round: re-enter the waiting
            // path. A restart may also resume between tier-1 and the merge
            // (the pending state survives on disk): re-check it immediately.
            self.obs.resume_wait(peer, now, round);
            self.try_aggregate(peer, now);
            self.try_merge(peer, now);
        }
    }

    fn on_fetch_timeout(&mut self, to: usize, fp: H256, attempt: u32, now: SimTime) {
        // Resolved episodes and superseded deadlines are no-ops, so the
        // timeout a successful pull leaves behind costs nothing — and draws
        // no randomness.
        let live = matches!(self.fetches.get(&(to, fp)), Some(st) if st.attempt == attempt);
        if !live {
            return;
        }
        if !self.peers[to].active || self.peers[to].model_store.contains_key(&fp) {
            if let Some(st) = self.fetches.remove(&(to, fp)) {
                self.obs.tel.end(now, "fetch", to as u32, st.span, || {
                    vec![("superseded", true.into())]
                });
            }
            return;
        }
        if attempt >= MAX_FETCH_ATTEMPTS {
            if let Some(st) = self.fetches.remove(&(to, fp)) {
                self.obs.tel.end(now, "fetch", to as u32, st.span, || {
                    vec![("gave_up", true.into())]
                });
                // Park the episode's elapsed time (plus anything earlier
                // episodes already parked): the next confirming block
                // restarts the chase and the recovery metric must cover the
                // whole of it.
                *self
                    .gave_up_elapsed
                    .entry((to, fp))
                    .or_insert(SimDuration::ZERO) += now.saturating_since(st.first_at) + st.carried;
            }
            self.obs.metrics.add("fetch_gave_up", 1);
            self.obs.note(to, now, "fetch.gave-up");
            return;
        }
        let next = attempt + 1;
        self.fetches
            .get_mut(&(to, fp))
            .expect("episode is live")
            .attempt = next;
        // Graceful degradation: any active peer holding the artifact can
        // serve it, not just the confirming miner. The rotation starts at the
        // primary and walks the sorted holder list deterministically, so each
        // retry takes the freshest shortest open path from a (usually)
        // different source.
        let holders: Vec<usize> = (0..self.peers.len())
            .filter(|&i| {
                i != to && self.peers[i].active && self.peers[i].model_store.contains_key(&fp)
            })
            .collect();
        if holders.is_empty() {
            // Nobody can serve it right now (churn); re-check after backing
            // off.
            let backoff = fetch_backoff(next, &mut self.fetch_rng);
            self.sched.schedule_after(
                backoff,
                Event::FetchTimeout {
                    to,
                    fp,
                    attempt: next,
                },
            );
            return;
        }
        let primary = self.fetches[&(to, fp)].primary;
        let start = holders.iter().position(|&h| h == primary).unwrap_or(0);
        let source = holders[(start + next as usize - 1) % holders.len()];
        self.fetch_retries += 1;
        self.obs.tel.instant(now, "fetch.retry", to as u32, || {
            vec![("from", (source as u64).into()), ("attempt", next.into())]
        });
        self.obs.note(to, now, "fetch.retry");
        self.launch_fetch(source, to, fp, next);
    }

    fn on_watchdog(&mut self, now: SimTime) {
        let cfg = self.cfg;
        let timeout = cfg.watchdog.expect("watchdog event implies a timeout");
        let last_progress = self.obs.last_progress;
        let idle = now.saturating_since(last_progress);
        // A peer still training is a scheduled `TrainDone` — a guaranteed
        // future progress event — so a round that is legitimately waiting on
        // a straggler's long training (the wait-all case the paper's title
        // poses) is not a stall, no matter how quiet the clock has been.
        let training_pending = self
            .peers
            .iter()
            .any(|p| p.active && !p.done(cfg.rounds) && p.training);
        if self.pending_faults > 0 || training_pending || idle < timeout {
            self.obs.tel.run_instant(now, "watchdog.check", || {
                vec![("idle_secs", idle.as_secs_f64().into())]
            });
            // Re-arm: checking twice per window bounds detection latency at
            // 1.5 timeouts.
            self.sched.schedule_after(timeout / 2, Event::Watchdog);
            return;
        }
        use std::fmt::Write as _;
        let n_active = self.peers.iter().filter(|p| p.active).count();
        let mut detail = String::new();
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if !peer.active || peer.done(cfg.rounds) {
                continue;
            }
            let round = peer.current_round;
            refresh_confirmed(peer, self.registry, round);
            let cache = peer.confirmed_cache.as_ref().expect("just refreshed");
            let arrived = cache
                .subs
                .iter()
                .filter(|s| peer.model_store.contains_key(&s.model_hash))
                .count();
            let _ = write!(
                detail,
                " peer={i} round={round} training={} confirmed={} \
                 arrived={arrived} bar={n_active}",
                peer.training,
                cache.subs.len(),
            );
            // Cite the peer's telemetry: what it last did...
            if let Some((at, what)) = self.obs.last_event[i] {
                let _ = write!(detail, " last={what}@{at}");
            }
            // ...every payload fetch still pending (sorted — the episode
            // map's order is nondeterministic)...
            let mut pending: Vec<(H256, u32)> = self
                .fetches
                .iter()
                .filter(|((p, _), _)| *p == i)
                .map(|((_, fp), st)| (*fp, st.attempt))
                .collect();
            pending.sort_unstable_by_key(|&(fp, _)| fp);
            for (fp, attempt) in pending {
                let _ = write!(detail, " fetch={}@a{attempt}", fp.short());
            }
            // ...and whose confirmed round artifacts never arrived (the
            // usual wait-all culprits).
            let missing: Vec<String> = cache
                .subs
                .iter()
                .filter(|s| !peer.model_store.contains_key(&s.model_hash))
                .filter_map(|s| self.addr_to_client.get(&s.sender).map(|c| c.to_string()))
                .collect();
            if !missing.is_empty() {
                let _ = write!(detail, " missing={}", missing.join(","));
            }
        }
        // Cite the policy the stuck round actually runs under — a controller
        // may have moved it off the configured one.
        let stuck_round = self
            .peers
            .iter()
            .filter(|p| p.active && !p.done(cfg.rounds))
            .map(|p| p.current_round)
            .min()
            .unwrap_or(1);
        let diag = format!(
            "stalled: no progress for {timeout} under {:?} \
             (last progress at {last_progress}):{detail}",
            self.engine.wait(stuck_round)
        );
        self.obs.tel.run_instant(now, "watchdog.stalled", || {
            vec![
                ("idle_secs", idle.as_secs_f64().into()),
                ("detail", diag.clone().into()),
            ]
        });
        self.stall = Some(diag);
    }

    fn import_with_orphans(&mut self, to: usize, idx: usize, now: SimTime) {
        let p = &mut self.peers[to];
        p.orphans.push(idx);
        // Keep trying until no orphan imports (parents may arrive out of
        // order). A block whose parent was never delivered at all — its flood
        // crossed a partition, or this peer was dormant — triggers an
        // ancestor sync: the peer requests the missing block from whoever
        // sent the descendant, modeled as a lookup in the global block log.
        loop {
            let mut imported_any = false;
            let mut remaining = Vec::new();
            let mut missing: Vec<H256> = Vec::new();
            for &i in &p.orphans {
                let block = Arc::clone(&self.block_log[i]);
                match p.chain.import_arc(block, &mut p.runtime) {
                    Ok(outcome) => {
                        if let blockfed_chain::ImportOutcome::Reorged { old_head } = outcome {
                            let height = p.chain.head_block().number();
                            self.obs.metrics.add("reorgs", 1);
                            self.obs.tel.instant(now, "chain.reorg", to as u32, || {
                                vec![
                                    ("old_head", old_head.short().into()),
                                    ("height", height.into()),
                                ]
                            });
                        }
                        imported_any = true;
                    }
                    Err(blockfed_chain::ImportError::UnknownParent(parent)) => {
                        remaining.push(i);
                        missing.push(parent);
                    }
                    Err(_) => {} // permanently invalid; drop
                }
            }
            p.orphans = remaining;
            for parent in missing {
                if let Some(j) = self.block_log.iter().position(|b| b.hash() == parent) {
                    if !p.orphans.contains(&j) {
                        p.orphans.push(j);
                        imported_any = true; // new material: retry the loop
                    }
                }
            }
            if !imported_any || p.orphans.is_empty() {
                break;
            }
        }
        p.mempool.prune(p.chain.state());
        // Re-broadcast-to-self: a reorg may have unwound blocks carrying this
        // peer's transactions after `prune` already dropped them from the
        // pool. Re-insert every authored tx still ahead of the account nonce
        // so it gets mined again (stale and duplicate inserts are rejected).
        for &i in &p.my_txs {
            let _ = p.mempool.insert(self.tx_log[i].clone(), p.chain.state());
        }
    }

    /// Aggregates `peer`'s round if its wait policy is satisfied by the
    /// submissions confirmed on its own chain whose payloads it holds.
    fn try_aggregate(&mut self, peer: usize, now: SimTime) {
        let cfg = self.cfg;
        let p = &self.peers[peer];
        let round = p.current_round;
        if !p.active || p.done(cfg.rounds) || p.training || p.train_done_at.is_none() {
            return;
        }
        // Wait policies measure against the population that can still
        // deliver: the currently active peers set the *bar*, while any
        // confirmed usable submission counts toward it — including one a
        // since-departed peer published before leaving (its signed model
        // remains a valid contribution). So after churn, "wait-all" means
        // "as many confirmed models as there are live peers", which keeps
        // rounds live without discarding legitimate updates. A hierarchical
        // run scopes the bar (and the candidate set below) to the peer's own
        // committee: tier-1 is the flat algorithm run per committee.
        let committee = self.committee.as_ref();
        let n = self
            .peers
            .iter()
            .enumerate()
            .filter(|(i, p)| p.active && same_committee(committee, *i, peer))
            .count();
        // Confirmed submissions on *this peer's* chain (memoized until its
        // head or round moves) with payloads at hand. The wait-policy bar is
        // checked on a plain count first: this runs on every delivered
        // transaction, and deep-cloning model parameters just to discover the
        // policy is not yet satisfied was the hottest allocation in the run.
        refresh_confirmed(&mut self.peers[peer], self.registry, round);
        let p = &self.peers[peer];
        let cache = p.confirmed_cache.as_ref().expect("just refreshed");
        // `ready` is monotone in the arrival count and the count can never
        // exceed either side of the intersection, so an upper-bound check
        // skips the per-submission membership scan for the long waiting
        // phase of every round.
        let wait_policy = self.engine.wait(round);
        let upper_bound = cache.subs.len().min(p.model_store.len());
        if !wait_policy.ready(upper_bound, n) || upper_bound == 0 {
            return;
        }
        // Tier-1 candidates are this committee's submissions only (trivially
        // everyone's in a flat run).
        let in_committee = |sender: &H160| {
            self.addr_to_client
                .get(sender)
                .is_some_and(|c| same_committee(committee, c.0, peer))
        };
        let arrived_count = cache
            .subs
            .iter()
            .filter(|s| in_committee(&s.sender) && p.model_store.contains_key(&s.model_hash))
            .count();
        if !wait_policy.ready(arrived_count, n) || arrived_count == 0 {
            return;
        }
        let confirmed: Vec<crate::coupling::ConfirmedSubmission> = cache
            .subs
            .iter()
            .filter(|s| in_committee(&s.sender))
            .cloned()
            .collect();
        let arrived: Vec<ModelUpdate> = confirmed
            .iter()
            .filter_map(|s| p.model_store.get(&s.model_hash).cloned())
            .collect();
        let Some((usable, dropped)) = self.screen(peer, now, arrived, arrived_count == n) else {
            return; // nothing aggregatable yet; wait for more submissions
        };

        // Staleness-aware re-weighting (the age-of-block view): scale each
        // update's FedAvg weight by `decay.factor(s)` where `s` is how many
        // blocks bury its submission on this peer's chain. Weights never drop
        // below one sample so a cutoff decay cannot zero the aggregate.
        let usable: Vec<ModelUpdate> = match self.engine.decay(round) {
            None => usable,
            Some(decay) => {
                let chain = &self.peers[peer].chain;
                let head = chain.head_block().number();
                let depth_of: HashMap<H256, u32> = confirmed
                    .iter()
                    .filter_map(|s| {
                        chain
                            .block(&s.block_hash)
                            .map(|b| (s.model_hash, head.saturating_sub(b.number()) as u32))
                    })
                    .collect();
                usable
                    .into_iter()
                    .map(|mut u| {
                        let fp = crate::coupling::model_fingerprint(&u);
                        let s = depth_of.get(&fp).copied().unwrap_or(0);
                        let f = decay.factor(s);
                        u.sample_count = ((u.sample_count as f64) * f).round().max(1.0) as usize;
                        u
                    })
                    .collect()
            }
        };

        // Aggregation under the round's effective strategy (the paper's
        // "consider" search by default). A configured `strategy_switch`
        // overrides it from the cutover round onward — the lever fork replays
        // use to re-run a suffix of a finished run under different
        // aggregation semantics — and an adaptive controller may have moved
        // it at an earlier round boundary.
        let strategy = self.engine.strategy(round);
        if let Some((from, _)) = self.engine.strategy_switch {
            if round >= from && !self.engine.cutover_noted {
                // The replay cutover engaging is forward motion, not
                // silence: note it on the progress clock (and in telemetry)
                // so the watchdog cannot kill a run mid-switch.
                self.engine.cutover_noted = true;
                self.obs.last_progress = now;
                self.obs
                    .tel
                    .instant(now, "policy.switched", peer as u32, || {
                        vec![
                            ("round", round.into()),
                            (
                                "decision",
                                format!("replay-cutover strategy={strategy:?}").into(),
                            ),
                        ]
                    });
            }
        }
        let refs: Vec<&ModelUpdate> = usable.iter().collect();
        let mut agg_rng = self
            .hub
            .indexed_stream("aggregate", (peer as u64) << 32 | u64::from(round));
        let mut scorer = PoolScorer {
            pool: &mut self.scratch_pool,
            test: &self.peer_tests[peer],
        };
        let outcome = aggregate_with(strategy, &refs, &mut scorer, &mut agg_rng)
            .expect("non-empty usable updates");

        let me = ClientId(peer);
        let label = |c: &Combination| c.label(Some(me));
        let combos: Vec<(String, f64)> = outcome
            .candidates
            .iter()
            .map(|(c, a)| (label(c), *a))
            .collect();
        let chosen_label = label(&outcome.combination);

        // Record the aggregate on chain: a variable-width mask over client
        // indices, so members past index 31 are preserved verbatim. In a
        // hierarchical run only the committee *leader* — its lowest-indexed
        // active member — records (and publishes) the committee aggregate;
        // in a flat run every peer records, exactly as before committees
        // existed.
        let hierarchical = self.committee.is_some();
        let is_leader = self.committee.as_ref().is_none_or(|cs| {
            (0..self.peers.len()).find(|&i| self.peers[i].active && cs.of[i] == cs.of[peer])
                == Some(peer)
        });
        let members: Vec<usize> = outcome.combination.members().iter().map(|c| c.0).collect();
        let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();
        // FedAvg weight the committee aggregate carries into the tier-2
        // merge: the sample counts behind the chosen combination.
        let weight: u64 = usable
            .iter()
            .filter(|u| member_set.contains(&u.client.0))
            .map(|u| u.sample_count as u64)
            .sum::<u64>()
            .max(1);
        let mask = ComboMask::from_members(members.iter().copied());
        let agg_hash = blockfed_crypto::sha256::sha256(&blockfed_nn::serialize::encode_params(
            &outcome.params,
        ));
        let tier2_before = (self.gs.gossip_bytes, self.gs.fetch_bytes);
        if is_leader {
            let registry = self.registry;
            self.publish_own_tx(peer, now, |key, nonce| {
                record_aggregate_tx(round, mask, agg_hash, registry, key, nonce)
            });
            if hierarchical {
                // Publish the committee aggregate itself: the cross-committee
                // artifact every peer pulls for its tier-2 merge. C such
                // artifacts per round replace N model payloads — the tier-2
                // half of the hierarchical traffic win.
                let aidx = self.agg_log.len();
                self.agg_log.push(AggArtifact {
                    hash: agg_hash,
                    params: outcome.params.clone(),
                    weight,
                });
                self.peers[peer].agg_store.insert(agg_hash, aidx);
                self.schedule_flood(peer, cfg.payload_bytes, Parcel::Agg(aidx), now);
            }
        }
        if hierarchical {
            self.obs
                .metrics
                .add("tier2_gossip_bytes", self.gs.gossip_bytes - tier2_before.0);
            self.obs
                .metrics
                .add("tier2_fetch_bytes", self.gs.fetch_bytes - tier2_before.1);
        }

        let p = &mut self.peers[peer];
        let wait = now.saturating_since(p.train_done_at.expect("checked above"));
        self.obs.aggregated(peer, now);
        self.obs.metrics.observe("wait_secs", wait.as_secs_f64());
        self.obs
            .tel
            .instant(now, "round.aggregated", peer as u32, || {
                vec![
                    ("round", round.into()),
                    ("wait_secs", wait.as_secs_f64().into()),
                    ("updates", (usable.len() as u64).into()),
                    ("chosen", chosen_label.clone().into()),
                ]
            });
        // Age-of-block freshness of the consumed updates.
        let mut age_total = SimDuration::ZERO;
        let mut age_max = SimDuration::ZERO;
        for u in &usable {
            let fp = crate::coupling::model_fingerprint(u);
            if let Some(&published) = self.publish_time.get(&fp) {
                let age = now.saturating_since(published);
                self.obs
                    .metrics
                    .observe("staleness_secs", age.as_secs_f64());
                age_total += age;
                age_max = age_max.max(age);
            }
        }
        p.records.push(PeerRoundRecord {
            round,
            combos,
            chosen: chosen_label,
            chosen_accuracy: outcome.score,
            wait,
            aggregated_at: now,
            updates_used: usable.len(),
            update_age_mean: age_total / usable.len() as u64,
            update_age_max: age_max,
            dropped,
        });
        p.global_params = outcome.params;
        p.train_done_at = None;
        self.consult_controller(peer, now);

        if hierarchical {
            // Tier-1 done: park the round until every other committee's
            // aggregate is both *recorded* on this peer's chain and *held*
            // locally, then merge. The merge — not this aggregation —
            // advances the round.
            self.peers[peer].tier1 = Some(Tier1Pending {
                round,
                done_at: now,
                weight,
                members,
            });
            self.try_merge(peer, now);
        } else if round < cfg.rounds {
            self.peers[peer].current_round = round + 1;
            self.start_training(peer, now);
        }
    }

    /// Screens the arrived candidates of `peer`'s current round through the
    /// malformed, norm, degeneracy and fitness gates. Returns the usable
    /// updates and the `"client:reason"` drop log, or `None` when nothing
    /// aggregatable is left and the peer should keep waiting. `quorum_full`
    /// says every live peer of the committee has reported, which is when an
    /// all-fail fitness gate falls back to the single best model.
    fn screen(
        &mut self,
        peer: usize,
        now: SimTime,
        arrived: Vec<ModelUpdate>,
        quorum_full: bool,
    ) -> Option<(Vec<ModelUpdate>, Vec<String>)> {
        let cfg = self.cfg;
        let round = self.peers[peer].current_round;
        let test = &self.peer_tests[peer];
        let mut dropped: Vec<String> = Vec::new();

        // Malformed (non-finite) models can never enter an average; they are
        // dropped unconditionally and logged for the audit trail.
        let (finite, malformed): (Vec<ModelUpdate>, Vec<ModelUpdate>) =
            arrived.into_iter().partition(ModelUpdate::is_finite);
        for u in &malformed {
            dropped.push(format!("{}:malformed", u.client));
            self.obs
                .anomaly(peer, now, "anomaly.malformed", round, u.client);
        }
        if finite.is_empty() {
            return None;
        }

        // Statistical norm gate: drop cohort-level norm outliers.
        let screened: Vec<ModelUpdate> = match cfg.norm_z_threshold {
            None => finite,
            Some(z) => {
                let refs: Vec<&ModelUpdate> = finite.iter().collect();
                let flagged: std::collections::HashSet<usize> =
                    crate::anomaly::detect_norm_outliers(&refs, z)
                        .into_iter()
                        .map(|r| r.index)
                        .collect();
                let mut kept = Vec::new();
                for (i, u) in finite.into_iter().enumerate() {
                    if flagged.contains(&i) {
                        dropped.push(format!("{}:norm-outlier", u.client));
                        self.obs.anomaly(peer, now, "anomaly.norm", round, u.client);
                        continue;
                    }
                    kept.push(u);
                }
                kept
            }
        };
        if screened.is_empty() {
            return None;
        }

        // Degeneracy gate: drop constant-prediction (free-rider) models. If
        // it would drop everything, skip it for liveness.
        let screened: Vec<ModelUpdate> = match cfg.degeneracy_min_classes {
            None => screened,
            Some(min) => {
                let refs: Vec<&ModelUpdate> = screened.iter().collect();
                let scratch = &mut self.scratch_pool[0];
                let flagged: std::collections::HashSet<usize> =
                    crate::anomaly::detect_degenerate(&refs, min, |u| {
                        scratch.set_params_flat(&u.params);
                        scratch.evaluate_confusion(test)
                    })
                    .into_iter()
                    .map(|r| r.index)
                    .collect();
                if flagged.len() >= screened.len() {
                    screened
                } else {
                    let mut kept = Vec::new();
                    for (i, u) in screened.into_iter().enumerate() {
                        if flagged.contains(&i) {
                            dropped.push(format!("{}:degenerate", u.client));
                            self.obs
                                .anomaly(peer, now, "anomaly.degenerate", round, u.client);
                            continue;
                        }
                        kept.push(u);
                    }
                    kept
                }
            }
        };

        // §III fitness gate: drop models below the threshold on this peer's
        // own test data; if everything fails once all peers reported, fall
        // back to the single best model so a round can always complete.
        let usable: Vec<ModelUpdate> = match cfg.fitness_threshold {
            None => screened,
            Some(th) => {
                // Standalone fitness scores are independent per model: fan
                // them across the scratch pool.
                let accs = blockfed_compute::par_map_with(
                    &mut self.scratch_pool[..],
                    &screened,
                    |model, u| {
                        model.set_params_flat(&u.params);
                        model.evaluate(test).accuracy
                    },
                );
                let mut scored: Vec<(f64, ModelUpdate)> = accs.into_iter().zip(screened).collect();
                let passing: Vec<ModelUpdate> = scored
                    .iter()
                    .filter(|(a, _)| *a >= th)
                    .map(|(_, u)| u.clone())
                    .collect();
                if !passing.is_empty() {
                    for (a, u) in &scored {
                        if *a < th {
                            dropped.push(format!("{}:unfit", u.client));
                            self.obs
                                .anomaly(peer, now, "anomaly.unfit", round, u.client);
                        }
                    }
                    passing
                } else if quorum_full {
                    scored.sort_by(|(a, _), (b, _)| b.partial_cmp(a).expect("finite accuracies"));
                    vec![scored.remove(0).1]
                } else {
                    return None; // wait for more candidates
                }
            }
        };
        Some((usable, dropped))
    }

    /// Adaptive-controller decision point, called right after `peer`
    /// recorded a round: the *first* aggregation of each round feeds the
    /// controller one observation (built purely from state the run already
    /// tracks), and any decisions it returns re-tune rounds `round + 1`
    /// onward — never the round peers may already be waiting in. A
    /// controller that stays quiet leaves every meter, clock, and RNG stream
    /// (other than its own) untouched.
    fn consult_controller(&mut self, peer: usize, now: SimTime) {
        let p = &self.peers[peer];
        let rec = p.records.last().expect("called after a round was recorded");
        let round = rec.round;
        if self.engine.controller.is_none() || round <= self.engine.last_observed {
            return;
        }
        self.engine.last_observed = round;
        let canonical = p.chain.head_block().number();
        let sealed = self.block_log.len() as u64;
        let fork_rate = if sealed == 0 {
            0.0
        } else {
            (1.0 - canonical.min(sealed) as f64 / sealed as f64).max(0.0)
        };
        let spread = self
            .obs
            .metrics
            .histogram("train_secs")
            .map(|h| h.max() - h.min())
            .unwrap_or(0.0);
        let accuracy = rec.chosen_accuracy;
        let accuracy_delta = self
            .engine
            .prev_accuracy
            .map_or(0.0, |prev| accuracy - prev);
        self.engine.prev_accuracy = Some(accuracy);
        let observation = crate::policy::RoundObservation {
            round,
            wait_secs: rec.wait.as_secs_f64(),
            staleness_mean_secs: rec.update_age_mean.as_secs_f64(),
            fork_rate,
            straggler_spread_secs: spread,
            accuracy,
            accuracy_delta,
            active_peers: self.peers.iter().filter(|p| p.active).count(),
            committees: self.committee.as_ref().map_or(1, |c| c.count),
            updates_used: rec.updates_used,
            wait_policy: self.engine.wait(round),
            staleness_decay: self.engine.decay(round),
        };
        for d in self.engine.observe(&observation, now) {
            // A policy switch is forward motion: reset the watchdog's
            // progress clock so a controlled run cannot be killed mid-switch,
            // and meter + trace the decision.
            self.obs.last_progress = now;
            self.obs.metrics.add("policy_switches", 1);
            self.obs
                .tel
                .instant(now, "policy.switched", peer as u32, || {
                    vec![("round", round.into()), ("decision", d.to_string().into())]
                });
        }
    }

    /// The tier-2 cross-committee merge: once a peer's own tier-1 aggregation
    /// is done, it waits until every *needed* committee — one with a live
    /// member or a confirmed `record_aggregate` for the round — has a
    /// confirmed record whose aggregate artifact the peer holds, then merges
    /// all committee aggregates by FedAvg weight in committee order. The
    /// choice of record per committee is its lowest-indexed sender with
    /// parameters at hand, so the merge is a pure function of chain + local
    /// artifacts and needs no cross-peer coordination. The highest-indexed
    /// active peer records the merged result on chain (one tier-2 record per
    /// round instead of N), and the merge advances the peer's round exactly
    /// like a flat aggregation does. A no-op unless `peer` is parked between
    /// the tiers, which a flat run never is.
    fn try_merge(&mut self, peer: usize, now: SimTime) {
        let cfg = self.cfg;
        if !self.peers[peer].active {
            return;
        }
        let Some(t1) = self.peers[peer].tier1.clone() else {
            return;
        };
        let round = t1.round;
        refresh_agg_records(&mut self.peers[peer], self.registry, round);
        let committee = self
            .committee
            .as_ref()
            .expect("only a hierarchical run parks a tier-1 result");
        let (count, my_com) = (committee.count, committee.of[peer]);
        let p = &self.peers[peer];
        let records = &p
            .agg_records_cache
            .as_ref()
            .expect("just refreshed")
            .records;
        // Per committee: whether any record is confirmed, and the chosen one
        // (lowest sender index with parameters held). Ties — a tier-2 record
        // from the same sender as a tier-1 record — resolve to the earliest
        // in chain order, which is the tier-1 record.
        let mut has_record = vec![false; count];
        let mut chosen: Vec<Option<(usize, H256, ComboMask)>> = vec![None; count];
        for rec in records {
            let Some(c) = self.addr_to_client.get(&rec.sender) else {
                continue;
            };
            let com = committee.of[c.0];
            if com == my_com {
                continue;
            }
            has_record[com] = true;
            if !p.agg_store.contains_key(&rec.agg_hash) {
                continue;
            }
            match &chosen[com] {
                Some((best, _, _)) if *best <= c.0 => {}
                _ => chosen[com] = Some((c.0, rec.agg_hash, rec.combo_mask.clone())),
            }
        }
        let mut needed = has_record.clone();
        for (i, q) in self.peers.iter().enumerate() {
            if q.active {
                needed[committee.of[i]] = true;
            }
        }
        let ready = (0..count).all(|com| com == my_com || !needed[com] || chosen[com].is_some());
        if !ready {
            // Recovery: a committee's record is confirmed but its artifact
            // never arrived (lost flood, late join). Pull it from the
            // lowest-indexed active holder over the shortest open path,
            // guarded by the expected arrival of any pull already in flight.
            let mut wanted: Vec<H256> = Vec::new();
            for com in 0..count {
                if com == my_com || !has_record[com] || chosen[com].is_some() {
                    continue;
                }
                let mut cand: Option<(usize, H256)> = None;
                for rec in records {
                    let Some(c) = self.addr_to_client.get(&rec.sender) else {
                        continue;
                    };
                    if committee.of[c.0] != com {
                        continue;
                    }
                    match cand {
                        Some((best, _)) if best <= c.0 => {}
                        _ => cand = Some((c.0, rec.agg_hash)),
                    }
                }
                wanted.extend(cand.map(|(_, hash)| hash));
            }
            for hash in wanted {
                if self
                    .agg_pulls
                    .get(&(peer, hash))
                    .is_some_and(|&exp| now < exp)
                {
                    continue;
                }
                let Some(src) = (0..self.peers.len()).find(|&i| {
                    i != peer && self.peers[i].active && self.peers[i].agg_store.contains_key(&hash)
                }) else {
                    continue;
                };
                let idx = self.peers[src].agg_store[&hash];
                let pulled =
                    self.schedule_pull(src, peer, cfg.payload_bytes, |route| Event::DeliverAgg {
                        to: peer,
                        idx,
                        route,
                    });
                if let Some((delay, metered)) = pulled {
                    self.obs.metrics.add("tier2_fetch_bytes", metered);
                    self.agg_pulls.insert((peer, hash), now + delay);
                }
            }
            return;
        }
        // Weighted merge in committee-index order; the peer's own committee
        // contributes its tier-1 result (already in `global_params`).
        let mut acc = vec![0f64; p.global_params.len()];
        let mut total_w = 0f64;
        for (com, chosen_rec) in chosen.iter().enumerate() {
            let (w, params) = if com == my_com {
                (t1.weight.max(1) as f64, &p.global_params)
            } else if let Some((_, hash, _)) = chosen_rec {
                let art = &self.agg_log[p.agg_store[hash]];
                (art.weight.max(1) as f64, &art.params)
            } else {
                continue; // not needed: no member, no record
            };
            for (a, x) in acc.iter_mut().zip(params.iter()) {
                *a += w * f64::from(*x);
            }
            total_w += w;
        }
        let merged: Vec<f32> = acc.iter().map(|a| (*a / total_w) as f32).collect();
        let merged_hash =
            blockfed_crypto::sha256::sha256(&blockfed_nn::serialize::encode_params(&merged));
        self.peers[peer].global_params = merged;
        // One tier-2 record per round: the highest-indexed active peer
        // records the merged aggregate with the union mask of every consumed
        // committee's members. (Its key may also have authored a tier-1
        // record for the round — the light scan sees both, which is benign:
        // chosen-record selection prefers the earlier, artifact-backed one.)
        if self.peers.iter().rposition(|q| q.active) == Some(peer) {
            let mut union: std::collections::BTreeSet<usize> = t1.members.iter().copied().collect();
            for c in chosen.iter().flatten() {
                union.extend(c.2.members());
            }
            let mask = ComboMask::from_members(union);
            let registry = self.registry;
            let before = (self.gs.gossip_bytes, self.gs.fetch_bytes);
            self.publish_own_tx(peer, now, |key, nonce| {
                record_aggregate_tx(round, mask, merged_hash, registry, key, nonce)
            });
            self.obs
                .metrics
                .add("tier2_gossip_bytes", self.gs.gossip_bytes - before.0);
            self.obs
                .metrics
                .add("tier2_fetch_bytes", self.gs.fetch_bytes - before.1);
        }
        let merge_wait = now.saturating_since(t1.done_at);
        self.obs.metrics.add("committee_rounds", 1);
        self.obs
            .metrics
            .observe("merge_wait_secs", merge_wait.as_secs_f64());
        self.obs.last_progress = now;
        self.obs.note(peer, now, "round.merged");
        self.obs.tel.instant(now, "round.merged", peer as u32, || {
            vec![
                ("round", round.into()),
                ("wait_secs", merge_wait.as_secs_f64().into()),
            ]
        });
        self.peers[peer].tier1 = None;
        if round < cfg.rounds {
            self.peers[peer].current_round = round + 1;
            self.start_training(peer, now);
        }
    }

    /// Closes whatever the run left open, folds the run-level meters, audits
    /// every published update against peer 0's chain and assembles the
    /// result.
    fn finish(self) -> DecentralizedRun {
        let finished_at = self.finished_at;
        // Truncated round phases (a stall or settle mid-round) and unresolved
        // fetch episodes, the latter in sorted order so the trace's bytes
        // never inherit map order.
        let mut open_fetches: Vec<(usize, H256, u64)> = self
            .fetches
            .iter()
            .map(|((to, fp), st)| (*to, *fp, st.span))
            .collect();
        open_fetches.sort_unstable_by_key(|&(to, fp, _)| (to, fp));
        let mut obs = self.obs;
        for (to, _, span) in open_fetches {
            obs.tel.end(finished_at, "fetch", to as u32, span, || {
                vec![("truncated", true.into())]
            });
        }
        obs.close_open_spans(finished_at);
        // Fold the run-level meters into the metric set (the per-event
        // histograms are already in).
        let mut metrics = obs.metrics;
        metrics.add("dropped_msgs", self.gs.dropped_msgs);
        metrics.add("fetch_retries", self.fetch_retries);
        metrics.add("fetch_recoveries", self.recoveries);
        metrics.add("blocks_sealed", self.block_log.len() as u64);
        metrics.set_gauge(
            "recovery_ms",
            if self.recoveries == 0 {
                0.0
            } else {
                (self.recovery_total / self.recoveries).as_secs_f64() * 1e3
            },
        );
        metrics.set_gauge("stalled", if self.stall.is_some() { 1.0 } else { 0.0 });
        // Fold this run's chain-store contribution as a delta from the
        // run-start snapshot: with a fresh store the delta is the absolute
        // count, and with a caller-shared store each run still reports only
        // its own hits/misses/evictions — so replaying a spec reproduces the
        // same numbers. The run is single-threaded, so the deltas are exact.
        let store_delta = self.store.counters().since(&self.store_base);
        metrics.add("store_exec_hits", store_delta.exec_hits);
        metrics.add("store_exec_misses", store_delta.exec_misses);
        metrics.add("store_sig_hits", store_delta.sig_hits);
        metrics.add("store_sig_misses", store_delta.sig_misses);
        metrics.add(
            "store_evictions",
            store_delta.exec_evicted + store_delta.sig_evicted,
        );
        let (registry, peers) = (self.registry, self.peers);
        let chain0 = &peers[0].chain;
        let audits: Vec<AuditRecord> = self
            .update_log
            .iter()
            .map(|u| {
                let author = peers[u.client.0].key.address();
                let verified = crate::nonrepudiation::collect_evidence(chain0, registry, author, u)
                    .and_then(|ev| crate::nonrepudiation::verify_evidence(chain0, &ev, u))
                    .is_ok();
                AuditRecord {
                    client: u.client,
                    round: u.round,
                    verified,
                }
            })
            .collect();
        let artifacts: Vec<Vec<H256>> = peers
            .iter()
            .map(|p| {
                let mut fps: Vec<H256> = p.model_store.keys().copied().collect();
                fps.sort_unstable();
                fps
            })
            .collect();
        DecentralizedRun {
            chain: chain_stats(chain0),
            aggregates: confirmed_aggregates(chain0, registry),
            final_chain: chain0.clone(),
            peer_records: peers.into_iter().map(|p| p.records).collect(),
            finished_at,
            published_updates: self.update_log,
            audits,
            blocks_sealed: self.block_log.len(),
            gossip_bytes: self.gs.gossip_bytes,
            fetch_bytes: self.gs.fetch_bytes,
            artifacts,
            metrics,
            stall: self.stall,
            policy_events: self.engine.decisions,
        }
    }
}

fn chain_stats(chain: &Blockchain) -> ChainStats {
    let canonical = chain.canonical_chain();
    let mut total_txs = 0usize;
    let mut total_gas = 0u64;
    let mut total_payload = 0u64;
    let mut times = Vec::new();
    for hash in canonical.iter().skip(1) {
        let block = chain.block(hash).expect("canonical block");
        times.push(block.header.timestamp_ns);
        total_gas += block.header.gas_used;
        total_payload += block.total_payload_bytes();
        if let Some(receipts) = chain.receipts(hash) {
            total_txs += receipts.iter().filter(|r| r.is_success()).count();
        }
    }
    let mean_block_interval = if times.len() >= 2 {
        let span = times.last().unwrap() - times[0];
        Some(SimDuration::from_nanos(span / (times.len() as u64 - 1)))
    } else {
        None
    };
    ChainStats {
        blocks: canonical.len().saturating_sub(1),
        mean_block_interval,
        total_txs,
        total_gas,
        total_payload_bytes: total_payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockfed_data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
    use blockfed_nn::SimpleNnConfig;
    use blockfed_telemetry::{AttrValue, MemorySink, RecordKind, TraceRecord};
    use rand::SeedableRng;

    struct Fixture {
        shards: Vec<Dataset>,
        tests: Vec<Dataset>,
    }

    fn fixture() -> Fixture {
        let gen = SynthCifar::new(SynthCifarConfig::tiny());
        let (train, test) = gen.generate(2);
        let mut rng = StdRng::seed_from_u64(3);
        let shards = partition_dataset(
            &train,
            3,
            Partition::DirichletLabelSkew { alpha: 0.7 },
            &mut rng,
        );
        Fixture {
            shards,
            tests: vec![test.clone(), test.clone(), test],
        }
    }

    fn quick_config(policy: WaitPolicy, seed: u64) -> DecentralizedConfig {
        DecentralizedConfig {
            rounds: 2,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.1,
            momentum: 0.9,
            wait_policy: policy,
            strategy: Strategy::Consider,
            payload_bytes: 10_000,
            difficulty: 200_000, // fast blocks so tests stay quick
            compute: ComputeProfile {
                hashrate: 100_000.0,
                train_rate: 500.0,
                contention: 0.3,
                batch_parallel: false,
            },
            per_peer_compute: None,
            fitness_threshold: None,
            norm_z_threshold: None,
            degeneracy_min_classes: None,
            adversaries: Vec::new(),
            link: LinkSpec::lan(),
            topology: Topology::FullMesh,
            gossip: GossipMode::Full,
            staleness_decay: None,
            faults: Vec::new(),
            retarget: RetargetRule::Homestead,
            watchdog: Some(SimDuration::from_secs(600)),
            strategy_switch: None,
            store: None,
            snapshot_interval: None,
            prune_depth: None,
            controller: None,
            committees: None,
            seed,
        }
    }

    fn run(policy: WaitPolicy, seed: u64) -> DecentralizedRun {
        run_with(quick_config(policy, seed), seed)
    }

    fn run_with(config: DecentralizedConfig, seed: u64) -> DecentralizedRun {
        let fx = fixture();
        let driver = Decentralized::new(config, &fx.shards, &fx.tests);
        let cfg = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(seed);
        driver.run(&mut || cfg.build(&mut arch_rng))
    }

    /// [`run_with`] under a [`MemorySink`], for tests that assert on events.
    fn run_traced(config: DecentralizedConfig, seed: u64) -> (DecentralizedRun, MemorySink) {
        let fx = fixture();
        let driver = Decentralized::new(config, &fx.shards, &fx.tests);
        let cfg = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(seed);
        let mut sink = MemorySink::new();
        let out = driver.run_traced(&mut || cfg.build(&mut arch_rng), &mut sink);
        (out, sink)
    }

    /// The first record named `name`.
    fn first<'r>(sink: &'r MemorySink, name: &str) -> &'r TraceRecord {
        sink.records()
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no {name} record"))
    }

    /// An unsigned attribute of a record.
    fn attr_u64(rec: &TraceRecord, key: &str) -> u64 {
        match rec.attrs.iter().find(|(k, _)| *k == key) {
            Some((_, AttrValue::U64(v))) => *v,
            other => panic!("{} has no u64 attr {key}: {other:?}", rec.name),
        }
    }

    /// How many `fault.fired` records describe a fault starting with `kind`
    /// (the [`Fault`] display form: `partition`, `heal-all`, `hash-shock`…).
    fn faults_fired(sink: &MemorySink, kind: &str) -> usize {
        sink.records()
            .iter()
            .filter(|r| r.name == "fault.fired")
            .filter(|r| matches!(&r.attrs[0], ("fault", AttrValue::Str(f)) if f.starts_with(kind)))
            .count()
    }

    /// A config where training-time differences dwarf the block interval, so
    /// asynchronous policies genuinely aggregate before stragglers finish.
    fn straggler_config(policy: WaitPolicy, seed: u64) -> DecentralizedConfig {
        let mut cfg = quick_config(policy, seed);
        cfg.compute = ComputeProfile {
            hashrate: 100_000.0,
            train_rate: 5.0,
            contention: 0.3,
            batch_parallel: false,
        };
        cfg.difficulty = 100_000;
        cfg
    }

    #[test]
    fn completes_all_rounds_for_all_peers() {
        let out = run(WaitPolicy::All, 1);
        assert_eq!(out.peer_records.len(), 3);
        for records in &out.peer_records {
            assert_eq!(records.len(), 2);
            assert_eq!(records[0].round, 1);
            assert_eq!(records[1].round, 2);
        }
    }

    #[test]
    fn wait_all_uses_every_model_and_enumerates_combos() {
        let out = run(WaitPolicy::All, 2);
        for records in &out.peer_records {
            for r in records {
                assert_eq!(r.updates_used, 3);
                assert_eq!(r.combos.len(), 7, "all subsets of 3 evaluated");
                // Chosen must be one of the evaluated combos with max accuracy.
                let max = r.combos.iter().map(|(_, a)| *a).fold(f64::MIN, f64::max);
                assert!((r.chosen_accuracy - max).abs() < 1e-12);
                assert!(r.accuracy_of(&r.chosen).is_some());
            }
        }
    }

    #[test]
    fn async_wait_two_aggregates_with_fewer_models() {
        let out = run_with(straggler_config(WaitPolicy::FirstK(2), 3), 3);
        let mut saw_partial = false;
        for records in &out.peer_records {
            for r in records {
                assert!(r.updates_used >= 2);
                if r.updates_used == 2 {
                    saw_partial = true;
                    assert_eq!(r.combos.len(), 3, "subsets of 2");
                }
            }
        }
        assert!(saw_partial, "wait-2 never aggregated early");
    }

    #[test]
    fn async_policy_reduces_waiting() {
        let sync = run_with(straggler_config(WaitPolicy::All, 4), 4);
        let async_run = run_with(straggler_config(WaitPolicy::FirstK(2), 4), 4);
        assert!(
            async_run.mean_wait() < sync.mean_wait(),
            "async {} !< sync {}",
            async_run.mean_wait(),
            sync.mean_wait()
        );
    }

    #[test]
    fn chain_reflects_the_run() {
        let (out, sink) = run_traced(quick_config(WaitPolicy::All, 5), 5);
        assert!(out.chain.blocks > 0);
        // 3 registrations + 3 peers × 2 rounds × (submit + aggregate) = 15.
        assert!(out.chain.total_txs >= 9, "txs {}", out.chain.total_txs);
        assert!(out.chain.total_gas > 0);
        // 6 model submissions × 10 000 declared payload bytes.
        assert!(out.chain.total_payload_bytes >= 40_000);
        assert!(sink.count("pow.sealed") > 0);
        assert_eq!(sink.count("round.aggregated"), 6);
    }

    #[test]
    fn aggregates_read_back_from_chain_storage() {
        let out = run(WaitPolicy::All, 13);
        // Round-1 decisions are mined while round 2 runs, so at least the
        // first round's aggregates confirm on peer 0's chain and read back
        // through the registry's packed mask storage.
        assert!(
            out.aggregates.len() >= 3,
            "too few confirmed aggregates: {:?}",
            out.aggregates
        );
        for a in &out.aggregates {
            assert!(!a.combo_mask.is_empty());
            for m in a.combo_mask.members() {
                assert!(m < 3, "mask names a nonexistent peer: {}", a.combo_mask);
            }
            assert!((1..=2).contains(&a.round));
        }
        assert!(out.max_mask_bit().expect("aggregates exist") < 3);
    }

    #[test]
    fn try_new_rejects_oversize_population_with_typed_error() {
        let fx = fixture();
        // 1025 shards — one past the mask's widened width: graceful typed
        // rejection, no panic.
        let shards: Vec<Dataset> = (0..1025).map(|_| fx.tests[0].clone()).collect();
        let err = Decentralized::try_new(quick_config(WaitPolicy::All, 1), &shards, &shards)
            .err()
            .expect("must reject");
        assert_eq!(err, crate::error::ConfigError::TooManyPeers { got: 1025 });
        // The full mask domain is inside the ceiling now — 257 peers (the old
        // rejection point) and 1024 peers both construct.
        for n in [257usize, 1024] {
            let inside: Vec<Dataset> = (0..n).map(|_| fx.tests[0].clone()).collect();
            assert!(
                Decentralized::try_new(quick_config(WaitPolicy::All, 1), &inside, &inside).is_ok(),
                "{n} peers must be accepted"
            );
        }
    }

    #[test]
    fn try_new_rejects_bad_committee_specs() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(0));
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests)
            .err()
            .expect("zero committees must reject");
        assert!(
            err.to_string().starts_with("invalid committee spec"),
            "{err}"
        );
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(4));
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests)
            .err()
            .expect("more committees than peers must reject");
        assert!(
            err.to_string().contains("more committees than peers"),
            "{err}"
        );
    }

    #[test]
    fn single_committee_reproduces_flat_run_exactly() {
        let flat = run(WaitPolicy::All, 21);
        let mut cfg = quick_config(WaitPolicy::All, 21);
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(1));
        let one = run_with(cfg, 21);
        assert_eq!(flat.peer_records, one.peer_records);
        assert_eq!(flat.chain, one.chain);
        assert_eq!(flat.finished_at, one.finished_at);
        assert_eq!(flat.gossip_bytes, one.gossip_bytes);
        assert_eq!(flat.fetch_bytes, one.fetch_bytes);
        assert_eq!(one.committee_rounds(), 0, "flat runs never merge");
    }

    #[test]
    fn committee_run_completes_with_tier2_merges() {
        let mut cfg = quick_config(WaitPolicy::All, 23);
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(2));
        let out = run_with(cfg, 23);
        assert!(out.stall.is_none(), "stalled: {:?}", out.stall);
        for (i, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {i} must finish both rounds");
        }
        // Every peer merged every round: 3 peers × 2 rounds.
        assert_eq!(out.committee_rounds(), 6);
        // Tier-2 traffic was metered and is a subset of the run's totals.
        assert!(out.tier2_gossip_bytes() > 0);
        assert!(out.tier2_gossip_bytes() <= out.gossip_bytes);
        assert!(out.tier2_fetch_bytes() <= out.fetch_bytes);
        // Deterministic replay.
        let mut cfg = quick_config(WaitPolicy::All, 23);
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(2));
        let again = run_with(cfg, 23);
        assert_eq!(out.peer_records, again.peer_records);
        assert_eq!(out.chain, again.chain);
        assert_eq!(out.finished_at, again.finished_at);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(WaitPolicy::All, 7);
        let b = run(WaitPolicy::All, 7);
        assert_eq!(a.peer_records, b.peer_records);
        assert_eq!(a.chain, b.chain);
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(WaitPolicy::All, 8);
        let b = run(WaitPolicy::All, 9);
        assert_ne!(a.finished_at, b.finished_at);
    }

    #[test]
    fn accuracy_improves_over_rounds() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 11);
        cfg.rounds = 4;
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(11);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        for peer in 0..3 {
            let first = out.peer_records[peer][0].chosen_accuracy;
            let last = out.final_accuracy(peer);
            assert!(last > first, "peer {peer}: {first} -> {last}");
        }
    }

    #[test]
    fn fitness_gate_excludes_poisoned_peer() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 30);
        // Above chance (0.25 on 4 classes): a constant-prediction poisoned
        // model fails the gate, honest models pass within a round or two.
        cfg.fitness_threshold = Some(0.30);
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(30);
        let out = driver.run_with_hook(&mut || nn.build(&mut arch_rng), &mut |u| {
            if u.client == blockfed_fl::ClientId(0) {
                for p in &mut u.params {
                    *p = 25.0; // garbage weights: near-zero accuracy
                }
            }
        });
        // Peers B and C must never include A's model in their chosen combo.
        for peer in 1..3 {
            for r in &out.peer_records[peer] {
                assert!(
                    !r.chosen.split(',').any(|c| c == "A"),
                    "peer {peer} round {} chose poisoned A: {}",
                    r.round,
                    r.chosen
                );
                // And the combination search never even evaluated A.
                assert!(r
                    .combos
                    .iter()
                    .all(|(l, _)| !l.split(',').any(|c| c == "A")));
            }
        }
    }

    #[test]
    fn fitness_gate_fallback_keeps_rounds_alive() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 31);
        cfg.fitness_threshold = Some(1.1); // impossible threshold: all fail
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(31);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        // Fallback: every round completes with exactly the single best model.
        for records in &out.peer_records {
            assert_eq!(records.len(), 2);
            for r in records {
                assert_eq!(r.updates_used, 1, "single-model fallback");
                assert_eq!(r.combos.len(), 1, "single-model fallback");
            }
        }
    }

    #[test]
    fn every_published_update_audits_cleanly_under_wait_all() {
        let out = run(WaitPolicy::All, 12);
        // 3 peers × 2 rounds of submissions, all confirmed before the run can
        // end, so every audit must verify.
        assert_eq!(out.published_updates.len(), 6);
        assert_eq!(out.audits.len(), 6);
        assert!(out.audits.iter().all(|a| a.verified), "{:?}", out.audits);
        // The log covers every (client, round) pair exactly once.
        let mut pairs: Vec<(usize, u32)> =
            out.audits.iter().map(|a| (a.client.0, a.round)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn poisoned_updates_still_bind_their_author() {
        // Non-repudiation is exactly this: the attacker signed the poisoned
        // artefact, so the evidence chain still verifies against it.
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 44);
        cfg.adversaries = vec![Adversary::new(
            blockfed_fl::ClientId(1),
            blockfed_fl::Attack::NanInjection { fraction: 1.0 },
        )];
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(44);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        let attacker_audits: Vec<_> = out
            .audits
            .iter()
            .filter(|a| a.client == blockfed_fl::ClientId(1))
            .collect();
        assert!(!attacker_audits.is_empty());
        assert!(
            attacker_audits.iter().all(|a| a.verified),
            "{attacker_audits:?}"
        );
        // And the published log preserves the poisoned parameters.
        let poisoned = out
            .published_updates
            .iter()
            .find(|u| u.client == blockfed_fl::ClientId(1))
            .expect("attacker published");
        assert!(!poisoned.is_finite());
    }

    #[test]
    fn ages_are_recorded_and_bounded_by_wait_plus_training_spread() {
        let out = run(WaitPolicy::All, 11);
        for records in &out.peer_records {
            for r in records {
                assert!(r.update_age_max >= r.update_age_mean);
                // Fresh own model is included, so the mean is strictly below
                // the max whenever stragglers exist; at minimum it is finite.
                assert!(r.update_age_mean.as_secs_f64().is_finite());
            }
        }
        let pooled = out.age_of_block();
        assert!(pooled.count() > 0);
        assert!(pooled.max() >= pooled.mean());
    }

    #[test]
    fn sign_flip_adversary_is_dropped_by_norm_gate() {
        let mut cfg = quick_config(WaitPolicy::All, 40);
        cfg.norm_z_threshold = Some(1.2);
        cfg.adversaries = vec![Adversary::new(
            blockfed_fl::ClientId(0),
            blockfed_fl::Attack::Scale { factor: 50.0 },
        )];
        let (out, sink) = run_traced(cfg, 40);
        assert!(sink.count("attack.mounted") > 0);
        // Honest peers must have dropped A's boosted model as a norm outlier.
        let drops = out.drops();
        assert!(
            drops
                .iter()
                .any(|(peer, _, reason)| *peer != 0 && reason == "A:norm-outlier"),
            "no norm-outlier drop of the attacker recorded: {drops:?}"
        );
        // And their chosen combinations never include A while under attack.
        for peer in 1..3 {
            for r in &out.peer_records[peer] {
                assert!(
                    !r.chosen.split(',').any(|c| c == "A"),
                    "peer {peer} chose the attacker: {}",
                    r.chosen
                );
            }
        }
    }

    #[test]
    fn nan_adversary_is_always_screened_without_gates() {
        let mut cfg = quick_config(WaitPolicy::All, 41);
        cfg.adversaries = vec![Adversary::new(
            blockfed_fl::ClientId(1),
            blockfed_fl::Attack::NanInjection { fraction: 1.0 },
        )];
        let (out, sink) = run_traced(cfg, 41);
        // Every round completes; the malformed model is dropped everywhere.
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {peer} incomplete");
            for r in records {
                assert!(
                    r.dropped.iter().any(|d| d == "B:malformed"),
                    "{:?}",
                    r.dropped
                );
                assert_eq!(r.updates_used, 2);
            }
        }
        assert!(sink.count("anomaly.malformed") > 0);
    }

    #[test]
    fn degeneracy_gate_drops_constant_free_rider() {
        let mut cfg = quick_config(WaitPolicy::All, 45);
        cfg.degeneracy_min_classes = Some(2);
        cfg.adversaries = vec![Adversary::new(
            blockfed_fl::ClientId(0),
            blockfed_fl::Attack::Constant { value: 0.0 },
        )];
        let (out, sink) = run_traced(cfg, 45);
        // Honest peers flag and exclude the all-zeros constant model.
        assert!(sink.count("anomaly.degenerate") > 0);
        for peer in 1..3 {
            for r in &out.peer_records[peer] {
                assert!(
                    r.dropped.iter().any(|d| d == "A:degenerate"),
                    "peer {peer} round {}: {:?}",
                    r.round,
                    r.dropped
                );
                assert!(!r.chosen.split(',').any(|c| c == "A"));
            }
        }
    }

    #[test]
    fn best_k_strategy_caps_aggregation_size_on_chain() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 46);
        cfg.strategy = blockfed_fl::Strategy::BestK(2);
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(46);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        for records in &out.peer_records {
            assert_eq!(records.len(), 2);
            for r in records {
                // All three confirmed models were usable, but only the two
                // best entered the aggregate.
                assert_eq!(r.updates_used, 3);
                assert_eq!(r.chosen.split(',').count(), 2, "chosen {}", r.chosen);
                assert_eq!(r.combos.len(), 1, "best-k evaluates one candidate");
            }
        }
    }

    #[test]
    fn not_consider_strategy_always_averages_everything() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 47);
        cfg.strategy = blockfed_fl::Strategy::NotConsider;
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(47);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        for records in &out.peer_records {
            for r in records {
                assert_eq!(r.chosen.split(',').count(), 3, "chosen {}", r.chosen);
            }
        }
    }

    #[test]
    fn sleeper_adversary_behaves_honestly_before_activation() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 42);
        cfg.adversaries = vec![Adversary::new(
            blockfed_fl::ClientId(0),
            blockfed_fl::Attack::NanInjection { fraction: 1.0 },
        )
        .starting_at(2)];
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(42);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        for records in &out.peer_records {
            // Round 1: no drops; round 2: A malformed.
            assert!(records[0].dropped.is_empty(), "{:?}", records[0].dropped);
            assert!(records[1].dropped.iter().any(|d| d == "A:malformed"));
        }
    }

    #[test]
    fn replay_adversary_resubmits_previous_round_params() {
        let mut cfg = quick_config(WaitPolicy::All, 43);
        cfg.rounds = 3;
        cfg.adversaries =
            vec![
                Adversary::new(blockfed_fl::ClientId(2), blockfed_fl::Attack::Replay)
                    .starting_at(2),
            ];
        let (out, sink) = run_traced(cfg, 43);
        // The run completes; replayed models are stale but finite, so they
        // aggregate unless gated.
        for records in &out.peer_records {
            assert_eq!(records.len(), 3);
        }
        assert!(sink.count("attack.mounted") >= 2);
    }

    #[test]
    #[should_panic(expected = "need at least two peers")]
    fn single_peer_rejected() {
        let fx = fixture();
        let _ = Decentralized::new(
            quick_config(WaitPolicy::All, 1),
            &fx.shards[..1],
            &fx.tests[..1],
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault timeline")]
    fn out_of_range_fault_rejected() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            1.0,
            crate::faults::Fault::PeerLeave { peer: 9 },
        )];
        let _ = Decentralized::new(cfg, &fx.shards, &fx.tests);
    }

    #[test]
    fn peer_leaving_mid_round_does_not_deadlock_wait_all() {
        // Slow training (≈10 s) so the leave at t=1 s fires mid-round, before
        // the departing peer submits. The two survivors' WaitPolicy::All must
        // re-measure against the reduced population and finish every round.
        let mut cfg = straggler_config(WaitPolicy::All, 50);
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            1.0,
            crate::faults::Fault::PeerLeave { peer: 2 },
        )];
        let (out, sink) = run_traced(cfg, 50);
        assert_eq!(sink.count("churn.leave"), 1);
        // Survivors complete every round aggregating the two live updates.
        for peer in 0..2 {
            assert_eq!(out.peer_records[peer].len(), 2, "peer {peer} incomplete");
            for r in &out.peer_records[peer] {
                assert_eq!(r.updates_used, 2, "peer {peer} round {}", r.round);
            }
        }
        // The departed peer never aggregated.
        assert!(out.peer_records[2].is_empty());
    }

    #[test]
    fn joining_peer_syncs_chain_before_submitting() {
        // Peer 2 is dormant until t=6 s; by then several blocks exist. On
        // join it must import the chain (synced_height > 0), register, and
        // participate in the round the network is currently in.
        let mut cfg = quick_config(WaitPolicy::All, 51);
        cfg.rounds = 3;
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            6.0,
            crate::faults::Fault::PeerJoin { peer: 2 },
        )];
        let (out, sink) = run_traced(cfg, 51);
        assert_eq!(sink.count("churn.join"), 1);
        let join = first(&sink, "churn.join");
        assert!(
            attr_u64(join, "synced_height") > 0,
            "joiner synced no blocks"
        );
        // The joiner's first submission — the end of its first training span
        // — comes after the join.
        let first_submit = sink
            .records()
            .iter()
            .find(|r| r.name == "round.train" && r.kind == RecordKind::End && r.track == 2)
            .expect("joiner trained");
        assert!(first_submit.time > join.time);
        // It participated and its published updates audit cleanly.
        assert!(!out.peer_records[2].is_empty());
        let joiner_audits: Vec<_> = out
            .audits
            .iter()
            .filter(|a| a.client == ClientId(2))
            .collect();
        assert!(!joiner_audits.is_empty());
        assert!(
            joiner_audits.iter().all(|a| a.verified),
            "{joiner_audits:?}"
        );
        // Everyone finishes: originals do 3 rounds, the joiner its share.
        assert_eq!(out.peer_records[0].len(), 3);
        assert_eq!(out.peer_records[1].len(), 3);
    }

    #[test]
    fn partition_mid_flood_drops_deliveries_then_heals_and_recovers() {
        // A 2 s-latency link keeps submissions in flight long enough for the
        // partition at t=0.15 s to cut them mid-flood; the heal at t=6 s lets
        // block gossip and on-demand payload fetches repair the round.
        let mut cfg = quick_config(WaitPolicy::All, 52);
        // Blocks slower than the link latency, so gossip converges instead of
        // fork-storming while every delivery is 2 s in flight.
        cfg.difficulty = 1_000_000;
        cfg.link = LinkSpec {
            latency: blockfed_sim::UniformJitter::constant(SimDuration::from_millis(2_000)),
            bandwidth: None,
            loss_rate: 0.0,
        };
        cfg.faults = vec![
            crate::faults::TimedFault::at_secs(
                0.15,
                crate::faults::Fault::Partition {
                    left: vec![0],
                    right: vec![1, 2],
                },
            ),
            crate::faults::TimedFault::at_secs(6.0, crate::faults::Fault::HealAll),
        ];
        let (out, sink) = run_traced(cfg, 52);
        assert_eq!(faults_fired(&sink, "partition"), 1);
        assert_eq!(faults_fired(&sink, "heal-all"), 1);
        assert!(
            sink.count("net.dropped") > 0,
            "no in-flight delivery crossed the cut"
        );
        // Every peer still completes every round after the heal.
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {peer} incomplete");
        }
    }

    #[test]
    fn ring_topology_with_mid_run_leave_routes_around_the_dead_peer() {
        // 4 peers on a ring; peer 1 crash-stops before submitting. Gossip
        // must route the long way round (a dead peer relays nothing) and the
        // three survivors' wait-all rounds must all complete.
        let gen = SynthCifar::new(SynthCifarConfig::tiny());
        let (train, test) = gen.generate(2);
        let mut rng = StdRng::seed_from_u64(3);
        let shards = partition_dataset(
            &train,
            4,
            Partition::DirichletLabelSkew { alpha: 0.7 },
            &mut rng,
        );
        let tests = vec![test.clone(), test.clone(), test.clone(), test];
        let mut cfg = straggler_config(WaitPolicy::All, 60);
        cfg.topology = Topology::Ring;
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            1.0,
            crate::faults::Fault::PeerLeave { peer: 1 },
        )];
        let driver = Decentralized::new(cfg, &shards, &tests);
        let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(60);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        for peer in [0usize, 2, 3] {
            assert_eq!(out.peer_records[peer].len(), 2, "peer {peer} incomplete");
            for r in &out.peer_records[peer] {
                assert_eq!(r.updates_used, 3, "peer {peer} round {}", r.round);
            }
        }
        assert!(out.peer_records[1].is_empty());
    }

    #[test]
    fn hash_rate_shock_shifts_mining_share() {
        // A 50× hash-rate shock to peer 0 makes it win nearly every block.
        let mut cfg = quick_config(WaitPolicy::All, 53);
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            0.0,
            crate::faults::Fault::HashRateShock {
                peer: 0,
                factor: 50.0,
            },
        )];
        let (_, sink) = run_traced(cfg, 53);
        assert_eq!(faults_fired(&sink, "hash-shock"), 1);
        // A seal is recorded on its miner's track.
        let sealed = sink.count("pow.sealed");
        let by_zero = sink
            .records()
            .iter()
            .filter(|r| r.name == "pow.sealed" && r.track == 0)
            .count();
        assert!(
            by_zero * 2 > sealed,
            "shocked miner won only {by_zero}/{sealed} blocks"
        );
    }

    #[test]
    fn staleness_decay_preserves_completion_and_determinism() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 54);
        cfg.staleness_decay = Some(blockfed_fl::StalenessDecay::Polynomial { a: 1.0 });
        let run_once = || {
            let driver = Decentralized::new(cfg.clone(), &fx.shards, &fx.tests);
            let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
            let mut arch_rng = StdRng::seed_from_u64(54);
            driver.run(&mut || nn.build(&mut arch_rng))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.peer_records, b.peer_records);
        for records in &a.peer_records {
            assert_eq!(records.len(), 2);
        }
    }

    #[test]
    fn gossip_and_fork_metrics_are_recorded() {
        let out = run(WaitPolicy::All, 55);
        assert!(out.blocks_sealed >= out.chain.blocks);
        assert!(out.gossip_bytes > 0);
        assert_eq!(out.fetch_bytes, 0, "Full mode never meters fetches");
        let f = out.fork_rate();
        assert!((0.0..=1.0).contains(&f), "fork rate {f}");
        // A lossless, fault-free run never loses, retries, or stalls.
        assert_eq!(out.dropped_msgs(), 0);
        assert_eq!(out.fetch_retries(), 0);
        assert_eq!(out.recovery_ms(), 0.0);
        assert!(out.stall.is_none());
        // And the metric set carries the per-phase timing distributions.
        let waits = out.metrics.histogram("wait_secs").expect("waits observed");
        assert_eq!(waits.count(), 6, "3 peers x 2 rounds");
        assert!(out.metrics.histogram("train_secs").is_some());
        assert_eq!(
            out.metrics.counter("blocks_sealed"),
            out.blocks_sealed as u64
        );
    }

    #[test]
    fn invalid_link_profile_rejected_with_typed_error() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.link.loss_rate = 1.5;
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests)
            .err()
            .expect("must reject");
        assert!(matches!(err, ConfigError::InvalidLink(_)));
        assert!(err.to_string().starts_with("invalid link profile"), "{err}");
    }

    #[test]
    fn lossy_run_completes_via_fetch_retries() {
        // 30% per-edge loss: artifact floods lose deliveries, the on-demand
        // fetch path recovers them, and lost pulls are retried on timeout.
        // Every round must still complete with every artifact everywhere.
        let mut cfg = quick_config(WaitPolicy::All, 70);
        cfg.gossip = GossipMode::AnnounceFetch;
        cfg.link = LinkSpec::lan().with_loss(0.30);
        let out = run_with(cfg, 70);
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {peer} incomplete");
        }
        assert!(out.dropped_msgs() > 0, "30% loss dropped nothing");
        assert!(out.stall.is_none(), "{:?}", out.stall);
        // Wait-all rounds force full dissemination: everyone ends up holding
        // all 3 peers × 2 rounds of artifacts despite the loss.
        for inventory in &out.artifacts {
            assert_eq!(inventory.len(), 6);
        }
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        // Attaching a real sink must not perturb the simulation: telemetry
        // draws no RNG and allocates span ids whether or not it records.
        let mk_cfg = || {
            let mut cfg = quick_config(WaitPolicy::All, 70);
            cfg.gossip = GossipMode::AnnounceFetch;
            cfg.link = LinkSpec::lan().with_loss(0.30);
            cfg
        };
        let plain = run_with(mk_cfg(), 70);

        let fx = fixture();
        let driver = Decentralized::new(mk_cfg(), &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(70);
        let mut sink = blockfed_telemetry::MemorySink::new();
        let traced = driver.run_traced(&mut || nn.build(&mut arch_rng), &mut sink);

        assert_eq!(plain.peer_records, traced.peer_records);
        assert_eq!(plain.finished_at, traced.finished_at);
        assert_eq!(plain.metrics, traced.metrics);
        assert_eq!(plain.gossip_bytes, traced.gossip_bytes);
        assert_eq!(plain.fetch_bytes, traced.fetch_bytes);

        // The sink captured the round lifecycle and the network events.
        for name in [
            "round",
            "round.train",
            "round.wait",
            "net.flood",
            "fetch",
            "pow.sealed",
            "round.aggregated",
        ] {
            assert!(sink.contains(name), "trace missing {name}");
        }
        // Spans balance: every begin has a matching end.
        use blockfed_telemetry::RecordKind;
        let begins = sink
            .records()
            .iter()
            .filter(|r| r.kind == RecordKind::Begin)
            .count();
        let ends = sink
            .records()
            .iter()
            .filter(|r| r.kind == RecordKind::End)
            .count();
        assert_eq!(begins, ends, "unbalanced spans in trace");
        // And the JSONL export passes its own schema validator.
        let lines =
            blockfed_telemetry::jsonl::validate_jsonl(&sink.to_jsonl()).expect("valid JSONL");
        assert_eq!(lines, sink.records().len());
    }

    #[test]
    fn lost_pull_is_retried_not_leaked() {
        // Crank the loss until a pull itself is lost in transit: the episode
        // must survive its failed delivery (the old one-shot set forgot it)
        // and retry from a rotated holder until the artifact lands.
        let mut found = None;
        for seed in 70..90 {
            let mut cfg = quick_config(WaitPolicy::All, seed);
            cfg.gossip = GossipMode::AnnounceFetch;
            cfg.link = LinkSpec::lan().with_loss(0.45);
            let (out, sink) = run_traced(cfg, seed);
            if out.fetch_retries() > 0 {
                found = Some((out, sink));
                break;
            }
        }
        let (out, sink) = found.expect("no seed in 70..90 exercised a fetch retry");
        assert!(sink.count("fetch") > 0, "no fetch episode was opened");
        assert!(sink.count("fetch.retry") > 0);
        assert!(
            out.metrics.counter("fetch_recoveries") > 0,
            "retried fetches never recovered"
        );
        // Every round still completed: nothing stayed stuck in flight.
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {peer} incomplete");
        }
        assert!(out.recovery_ms() > 0.0);
        assert!(out.stall.is_none());
    }

    #[test]
    fn gossip_modes_agree_under_packet_loss() {
        // Drop sampling happens on the flood's relay tree with the payload's
        // byte size in both modes, so a lossy run is still bit-identical
        // across gossip modes — meters aside.
        let run_lossy = |mode: GossipMode| {
            let mut cfg = quick_config(WaitPolicy::All, 71);
            cfg.gossip = mode;
            cfg.link = LinkSpec::lan().with_loss(0.20);
            run_with(cfg, 71)
        };
        let full = run_lossy(GossipMode::Full);
        let af = run_lossy(GossipMode::AnnounceFetch);
        assert_eq!(full.peer_records, af.peer_records);
        assert_eq!(full.artifacts, af.artifacts);
        assert_eq!(full.finished_at, af.finished_at);
        assert_eq!(full.dropped_msgs(), af.dropped_msgs());
        assert_eq!(full.fetch_retries(), af.fetch_retries());
        assert!(full.dropped_msgs() > 0);
        assert_eq!(full.fetch_bytes, 0);
    }

    #[test]
    fn crashed_peer_restarts_resyncs_and_finishes() {
        // Peer 2 crashes mid-training at t=1 s and restarts at t=30 s. The
        // crash must not deadlock the survivors' wait-all rounds, and the
        // restarted peer must resync the chain, retrain its round, and still
        // complete both rounds.
        let mut cfg = straggler_config(WaitPolicy::All, 72);
        cfg.faults = vec![
            crate::faults::TimedFault::at_secs(1.0, crate::faults::Fault::PeerCrash { peer: 2 }),
            crate::faults::TimedFault::at_secs(30.0, crate::faults::Fault::PeerRestart { peer: 2 }),
        ];
        let (out, sink) = run_traced(cfg, 72);
        assert_eq!(sink.count("churn.crash"), 1);
        assert_eq!(sink.count("churn.restart"), 1);
        assert!(
            attr_u64(first(&sink, "churn.restart"), "synced_height") > 0,
            "restarted peer synced no blocks"
        );
        // The restarted peer's wait spans stay balanced: whatever the crash
        // aborted or the restart reopened is closed exactly once.
        let waits = |kind: RecordKind| {
            sink.records()
                .iter()
                .filter(|r| r.name == "round.wait" && r.track == 2 && r.kind == kind)
                .count()
        };
        assert_eq!(waits(RecordKind::Begin), 2, "one wait span per round");
        assert_eq!(waits(RecordKind::Begin), waits(RecordKind::End));
        // All three peers complete both rounds — the crashed peer included,
        // because it kept its identity and round position.
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 2, "peer {peer} incomplete");
        }
        assert!(out.stall.is_none(), "{:?}", out.stall);
    }

    #[test]
    fn crash_restart_runs_are_deterministic() {
        let run_once = || {
            let fx = fixture();
            let mut cfg = straggler_config(WaitPolicy::All, 73);
            cfg.faults = vec![
                crate::faults::TimedFault::at_secs(
                    1.0,
                    crate::faults::Fault::PeerCrash { peer: 1 },
                ),
                crate::faults::TimedFault::at_secs(
                    25.0,
                    crate::faults::Fault::PeerRestart { peer: 1 },
                ),
            ];
            let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
            let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
            let mut arch_rng = StdRng::seed_from_u64(73);
            driver.run(&mut || nn.build(&mut arch_rng))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.peer_records, b.peer_records);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(
            a.metrics, b.metrics,
            "full metric sets must match bit for bit"
        );
    }

    #[test]
    fn watchdog_fails_stalled_wait_all_run_with_diagnostic() {
        // A permanent partition isolates peer 0 before any submission can
        // cross; under WaitPolicy::All nobody's bar of 3 is ever met again.
        // Without the watchdog this run would spin (blocks keep sealing on
        // both sides) until the event cap; with it, the run stops quickly
        // with a diagnostic naming the stuck peers.
        let mut cfg = quick_config(WaitPolicy::All, 74);
        cfg.difficulty = 1_000_000;
        cfg.link = LinkSpec {
            latency: blockfed_sim::UniformJitter::constant(SimDuration::from_millis(2_000)),
            bandwidth: None,
            loss_rate: 0.0,
        };
        cfg.watchdog = Some(SimDuration::from_secs(60));
        cfg.faults = vec![crate::faults::TimedFault::at_secs(
            0.15,
            crate::faults::Fault::Partition {
                left: vec![0],
                right: vec![1, 2],
            },
        )];
        let (out, sink) = run_traced(cfg, 74);
        let diag = out.stall.as_ref().expect("run must be flagged as stalled");
        assert!(diag.starts_with("stalled"), "{diag}");
        assert!(diag.contains("peer="), "diagnostic names no peer: {diag}");
        assert_eq!(sink.count("watchdog.stalled"), 1);
        // The run stopped well before the event cap could: no peer finished
        // both rounds, and virtual time is bounded by a few watchdog windows.
        assert!(out.peer_records.iter().all(|r| r.len() < 2));
        assert!(out.finished_at.as_secs_f64() < 600.0, "{}", out.finished_at);
    }

    #[test]
    fn gave_up_fetch_restart_carries_recovery_time() {
        // Regression for the recovery meter: a partition cuts an in-flight
        // payload pull, the episode exhausts its attempt budget and gives up,
        // and the next confirming block after the heal restarts the chase.
        // `recovery_ms` must cover the whole chase — the gave-up episodes
        // included — not just the final (short, post-heal) episode.
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 80);
        cfg.rounds = 1;
        cfg.gossip = GossipMode::AnnounceFetch;
        // Slow serialization: the 10 kB artifact spends ~20 s on the wire
        // while blocks (~1.3 kB) cross in a few seconds, so a block confirms
        // a submission long before its payload can land.
        cfg.link = LinkSpec {
            latency: blockfed_sim::UniformJitter::constant(SimDuration::from_millis(50)),
            bandwidth: Some(500),
            loss_rate: 0.0,
        };
        // Cut after the fetch starts but while its pull is in flight; heal
        // only after the ~40 s attempt budget has run out.
        cfg.faults = vec![
            crate::faults::TimedFault::at_secs(
                12.0,
                crate::faults::Fault::Partition {
                    left: vec![0],
                    right: vec![1, 2],
                },
            ),
            crate::faults::TimedFault::at_secs(80.0, crate::faults::Fault::HealAll),
        ];
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(80);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        assert!(
            out.metrics.counter("fetch_gave_up") >= 1,
            "no episode exhausted its budget: {:?}",
            out.metrics
        );
        assert!(
            out.metrics.counter("fetch_recoveries") >= 1,
            "nothing recovered after the heal: {:?}",
            out.metrics
        );
        // The run settles: every peer still completes its round.
        assert!(out.stall.is_none(), "{:?}", out.stall);
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 1, "peer {peer} incomplete");
        }
        // The carried chase dwarfs any single post-heal episode (~20 s on
        // this link): only give-up time folded into the gauge gets it there.
        assert!(
            out.recovery_ms() > 30_000.0,
            "recovery_ms lost the gave-up episodes: {}",
            out.recovery_ms()
        );
    }

    #[test]
    fn watchdog_tolerates_training_longer_than_its_window() {
        // Regression for the progress clock: a straggler whose *training*
        // outlasts the whole watchdog window is guaranteed future progress
        // (its TrainDone is scheduled), so a wait-all round quietly waiting
        // on it must not be flagged as a stall.
        let mut cfg = quick_config(WaitPolicy::All, 81);
        cfg.rounds = 1;
        cfg.watchdog = Some(SimDuration::from_secs(30));
        let fast = cfg.compute;
        let mut slow = cfg.compute;
        slow.train_rate = 1.0; // ~60–150 s of training vs the 30 s window
        cfg.per_peer_compute = Some(vec![fast, fast, slow]);
        let out = run_with(cfg, 81);
        assert!(out.stall.is_none(), "legit wait flagged: {:?}", out.stall);
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 1, "peer {peer} incomplete");
        }
        // The straggler's training really did outlast the window, so the old
        // clock (no training-pending guard) would have fired.
        let trains = out
            .metrics
            .histogram("train_secs")
            .expect("trains observed");
        assert!(trains.max() > 30.0, "straggler too fast: {}", trains.max());
        assert_eq!(out.metrics.gauge("stalled"), 0.0);
    }

    #[test]
    fn threshold_controller_switches_policy_mid_run() {
        // The adaptive loop end to end: under straggler-dominated wait-all
        // rounds the threshold rule demotes All → FirstK at a round boundary,
        // and the decision log, counter, and trace all record it.
        let mut cfg = straggler_config(WaitPolicy::All, 82);
        cfg.rounds = 3;
        cfg.controller = Some(ControllerSpec::threshold(crate::policy::RuleConfig {
            wait_high_secs: 2.0,
            ..Default::default()
        }));
        let (out, sink) = run_traced(cfg, 82);
        assert!(
            !out.policy_events.is_empty(),
            "controller never fired: {:?}",
            out.metrics
        );
        assert_eq!(out.policy_switches(), out.policy_events.len() as u64);
        assert!(sink.count("policy.switched") > 0);
        assert!(out.stall.is_none(), "{:?}", out.stall);
        for (peer, records) in out.peer_records.iter().enumerate() {
            assert_eq!(records.len(), 3, "peer {peer} incomplete");
        }
        // Decisions bind to the round that triggered them and change later
        // rounds only: a switch observed at round r leaves r's policy alone,
        // so every switch round is strictly before the final round.
        for ev in &out.policy_events {
            assert!((1..3).contains(&ev.round), "switch at round {}", ev.round);
        }
        // The wait policy genuinely changed: some later round aggregated
        // with fewer than all three updates.
        let demoted = out
            .peer_records
            .iter()
            .flatten()
            .any(|r| r.round > out.policy_events[0].round && r.updates_used < 3);
        assert!(demoted, "no round ran under the demoted policy");
    }

    #[test]
    fn noop_controller_is_bit_identical_to_static() {
        // The controller hook must be free when it never fires: same records,
        // metrics, chain, and settle time as the static run, and an empty
        // decision log.
        let baseline = run(WaitPolicy::All, 83);
        let mut cfg = quick_config(WaitPolicy::All, 83);
        cfg.controller = Some(ControllerSpec::noop());
        let noop = run_with(cfg, 83);
        assert_eq!(baseline.peer_records, noop.peer_records);
        assert_eq!(baseline.metrics, noop.metrics);
        assert_eq!(baseline.chain, noop.chain);
        assert_eq!(baseline.finished_at, noop.finished_at);
        assert!(noop.policy_events.is_empty());
        assert_eq!(noop.policy_switches(), 0);
    }

    #[test]
    fn invalid_controller_rejected_with_typed_error() {
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.controller = Some(ControllerSpec::bandit(crate::policy::BanditConfig {
            arms: Vec::new(),
            epsilon: 0.2,
        }));
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests)
            .err()
            .expect("must reject");
        assert!(matches!(err, ConfigError::InvalidController(_)));
        assert!(
            err.to_string().starts_with("invalid policy controller"),
            "{err}"
        );
    }

    fn run_with_gossip(
        mode: GossipMode,
        faults: Vec<crate::faults::TimedFault>,
    ) -> DecentralizedRun {
        let mut cfg = quick_config(WaitPolicy::All, 56);
        cfg.gossip = mode;
        cfg.faults = faults;
        run_with(cfg, 56)
    }

    #[test]
    fn gossip_modes_drive_identical_simulations_with_different_meters() {
        let full = run_with_gossip(GossipMode::Full, Vec::new());
        let af = run_with_gossip(GossipMode::AnnounceFetch, Vec::new());
        // The simulation is bit-identical: same records (waits included),
        // same chain, same artifacts everywhere, same settle time.
        assert_eq!(full.peer_records, af.peer_records);
        assert_eq!(full.chain, af.chain);
        assert_eq!(full.finished_at, af.finished_at);
        assert_eq!(full.blocks_sealed, af.blocks_sealed);
        assert_eq!(full.artifacts, af.artifacts);
        // Every peer holds every artifact under wait-all: 3 peers × 2 rounds.
        for inventory in &af.artifacts {
            assert_eq!(inventory.len(), 6);
        }
        // Only the meters differ: announce/fetch floods digests and pulls
        // payloads, Full floods payloads and pulls nothing.
        assert_eq!(full.fetch_bytes, 0);
        assert!(af.fetch_bytes > 0);
        assert!(
            af.gossip_bytes < full.gossip_bytes,
            "announce floods must be cheaper: {} !< {}",
            af.gossip_bytes,
            full.gossip_bytes
        );
    }

    #[test]
    fn tiny_artifacts_are_inlined_not_double_counted() {
        // A payload at or below the announcement size gains nothing from a
        // separate pull: announce/fetch must inline it (flood it whole) so
        // bytes are never double-counted and AF never floods *more* than
        // Full.
        let run_tiny = |mode: GossipMode| {
            let mut cfg = quick_config(WaitPolicy::All, 57);
            cfg.payload_bytes = ANNOUNCE_BYTES; // boundary: inline, no pull
            cfg.gossip = mode;
            run_with(cfg, 57)
        };
        let full = run_tiny(GossipMode::Full);
        let af = run_tiny(GossipMode::AnnounceFetch);
        assert_eq!(full.peer_records, af.peer_records);
        assert_eq!(af.fetch_bytes, 0, "inlined artifacts must not meter a pull");
        assert_eq!(af.gossip_bytes, full.gossip_bytes);
    }

    #[test]
    fn gossip_modes_agree_under_partition_and_churn() {
        // A partition cutting in-flight deliveries plus a mid-run leave: the
        // recovery machinery (on-demand fetch, ancestor sync) must fire the
        // same way in both modes — only the fetch accounting moves.
        let faults = vec![
            crate::faults::TimedFault::at_secs(
                0.15,
                crate::faults::Fault::Partition {
                    left: vec![0],
                    right: vec![1, 2],
                },
            ),
            crate::faults::TimedFault::at_secs(6.0, crate::faults::Fault::HealAll),
        ];
        let full = run_with_gossip(GossipMode::Full, faults.clone());
        let af = run_with_gossip(GossipMode::AnnounceFetch, faults);
        assert_eq!(full.peer_records, af.peer_records);
        assert_eq!(full.artifacts, af.artifacts);
        assert_eq!(full.finished_at, af.finished_at);
        assert_eq!(full.fetch_bytes, 0);
        assert!(af.gossip_bytes < full.gossip_bytes);
    }
}

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
//! The orchestrator does three jobs, one private submodule each, over the
//! run's shared block log (`block_log`: every sealed block, indexed by hash,
//! with its registry calls decoded once):
//!
//! * `node` — a peer's chain view: key, chain (each block's state shared with
//!   every other peer through the run's [`ChainStore`]), mempool, runtime,
//!   artifacts held, ancestor-path import, and the head-and-round-keyed memo
//!   of its confirmed submissions and aggregate records;
//! * `round` — the round algorithm: the per-round policy table, screening
//!   gates, staleness re-weighting, tier-1 committee aggregation and the
//!   tier-2 merge, all as functions of a node that return values;
//! * `driver` — the event loop: scheduler, gossip / pull / fetch plumbing,
//!   fault handlers, watchdog, telemetry, and the fold into the result.
//!
//! Only `driver` may touch the scheduler, the network or telemetry; `node`
//! and `round` never see them, so both are unit-testable without a simulated
//! network. This module keeps the public surface: the configuration, the
//! result types and the [`Decentralized`] entry points.

mod block_log;
mod driver;
mod node;
mod round;

use blockfed_chain::{Blockchain, ChainStore, RetargetRule};
use blockfed_crypto::{H160, H256};
use blockfed_data::Dataset;
use blockfed_fl::{
    Adversary, CandidateScores, ClientId, ModelUpdate, StalenessDecay, Strategy, WaitPolicy,
};
use blockfed_net::{GossipMode, LinkSpec, Topology};
use blockfed_nn::Sequential;
use blockfed_sim::{SimDuration, SimTime};
use blockfed_telemetry::{MetricSet, NoopSink, TraceSink};

use crate::compute::ComputeProfile;
use crate::coupling::ConfirmedAggregate;
use crate::error::ConfigError;
use crate::faults::{validate_timeline, TimedFault};
use crate::policy::{ControllerSpec, PolicyEvent};

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
#[derive(Debug, Clone, PartialEq)]
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
    /// One compute profile (hash rate, training rate, contention) per peer;
    /// the length is the peer count. Unequal profiles give the realistic
    /// heterogeneous setting ("stragglers") where asynchronous aggregation
    /// actually pays.
    pub computes: Vec<ComputeProfile>,
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
    /// committees (tier 2) before advancing its round. `None` is one
    /// committee holding everyone — the flat topology — so a spec with
    /// `count == 1` reproduces the unsharded run byte for byte.
    pub committees: Option<crate::committee::CommitteeSpec>,
    /// Optional staleness-aware re-weighting of aggregated updates: an
    /// update's FedAvg weight is scaled by `decay.factor(s)` where `s` is how
    /// many blocks its submission is buried under at aggregation time (the
    /// age-of-block staleness). `None` keeps the paper's uniform weighting.
    pub staleness_decay: Option<StalenessDecay>,
    /// The fault and churn timeline injected into the run (partitions, peer
    /// join/leave, crashes, hash-rate shocks). A peer with a
    /// [`PeerJoin`](crate::Fault::PeerJoin) entry is dormant until it fires.
    pub timeline: Vec<TimedFault>,
    /// How mining difficulty retargets as block intervals drift from the
    /// cadence `difficulty` implies at genesis. The default
    /// [`RetargetRule::Homestead`] takes the fixed ±1/2048 step per block —
    /// effectively the legacy constant-difficulty behaviour — while the
    /// adaptive rules ([`RetargetRule::Pi`], [`RetargetRule::MovingAverage`])
    /// restore the configured cadence after hash-rate shocks instead of
    /// letting them shift block production permanently. The rule sets the
    /// race difficulty the simulated mining draws use; the difficulty
    /// written into each block header (and summed by fork choice) is always
    /// the Homestead step, set by [`Blockchain::build_candidate`].
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
    /// [`ChainStore`] (see [`Decentralized::with_store`]) serves the
    /// unchanged prefix from its memo. The round is 1-based. The switch is
    /// written into the run's per-round policy table at construction; the
    /// controller cannot move it.
    pub strategy_switch: Option<(u32, Strategy)>,
    /// Optional adaptive policy controller, the threshold rule (see
    /// [`ControllerSpec`]): observes each round's wait time, update
    /// staleness and accuracy delta at its first aggregation and may switch
    /// the wait policy or the staleness decay **from the next round on**. A
    /// demoted first-k is sized from the live members of the aggregating
    /// peer's committee. Decisions land in
    /// [`DecentralizedRun::policy_events`]; the rule draws no randomness, so
    /// a rule that never fires reproduces the static run bit for bit.
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
            payload_bytes: 253_952,                        // SimpleNN's 248 KB
            difficulty: 3_000_000,                         // ≈13 s blocks with 3 paper_vm miners
            computes: vec![ComputeProfile::paper_vm(); 3], // the paper's three VMs
            fitness_threshold: None,
            norm_z_threshold: None,
            degeneracy_min_classes: None,
            adversaries: Vec::new(),
            link: LinkSpec::lan(),
            topology: Topology::FullMesh,
            gossip: GossipMode::AnnounceFetch,
            committees: None,
            staleness_decay: None,
            timeline: Vec::new(),
            retarget: RetargetRule::Homestead,
            watchdog: Some(SimDuration::from_secs(600)),
            strategy_switch: None,
            controller: None,
            seed: 42,
        }
    }
}

impl DecentralizedConfig {
    /// Checks the configuration can run with `peers` participants: every
    /// constraint that does not depend on the datasets, written down once —
    /// [`Decentralized::try_new`] and the scenario engine both call it.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, peers: usize) -> Result<(), ConfigError> {
        if peers < 2 {
            return Err(ConfigError::TooFewPeers { got: peers });
        }
        if peers > MAX_PEERS {
            return Err(ConfigError::TooManyPeers { got: peers });
        }
        validate_timeline(&self.timeline, peers).map_err(ConfigError::InvalidTimeline)?;
        if let Some(adv) = self.adversaries.iter().find(|a| a.client.0 >= peers) {
            return Err(ConfigError::AdversaryOutOfRange {
                peer: adv.client.0,
                peers,
            });
        }
        if matches!(self.strategy_switch, Some((0, _))) {
            return Err(ConfigError::ZeroSwitchRound);
        }
        self.link
            .validate()
            .map_err(|e| ConfigError::InvalidLink(e.to_string()))?;
        if self.computes.len() != peers {
            return Err(ConfigError::PerPeerComputeMismatch {
                profiles: self.computes.len(),
                peers,
            });
        }
        for p in &self.computes {
            p.validate().map_err(ConfigError::InvalidCompute)?;
        }
        if self.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if let Some(ctl) = &self.controller {
            ctl.validate().map_err(ConfigError::InvalidController)?;
        }
        match self.committees.map(|spec| spec.count) {
            Some(0) => Err(ConfigError::InvalidCommittees(
                "need at least one committee".into(),
            )),
            Some(count) if count > peers => Err(ConfigError::InvalidCommittees(format!(
                "more committees than peers ({count} committees, {peers} peers)"
            ))),
            _ => Ok(()),
        }
    }
}

/// One peer's record of one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRoundRecord {
    /// 1-based round.
    pub round: u32,
    /// Accuracy of every evaluated combination on this peer's own test set:
    /// the aggregation's scores by combination index, with this peer as the
    /// owner. Labels are built when read, owner-first as in the paper's
    /// tables (`"B,A"` etc.), and `Debug` prints the `(label, accuracy)`
    /// list.
    pub combos: CandidateScores,
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
        self.combos.accuracy_of(label)
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
    /// the run's [`ChainStore`] handed to a follow-up run through
    /// [`Decentralized::with_store`], replays
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

/// The decentralized experiment driver.
pub struct Decentralized<'a> {
    config: DecentralizedConfig,
    train_shards: &'a [Dataset],
    peer_tests: &'a [Dataset],
    store: Option<ChainStore>,
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
        Decentralized::try_new(config, train_shards, peer_tests).unwrap_or_else(|e| panic!("{e}"))
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
        config.validate(n)?;
        if n != peer_tests.len() {
            return Err(ConfigError::ShardTestMismatch {
                shards: n,
                tests: peer_tests.len(),
            });
        }
        Ok(Decentralized {
            config,
            train_shards,
            peer_tests,
            store: None,
        })
    }

    /// Shares `store` with the run's peers instead of a fresh private store
    /// dropped with the run, so *sequential* runs handed the same handle
    /// reuse each other's cached work (fork replay, memory checks) and the
    /// caller can inspect entry counts afterwards. The run calls
    /// [`ChainStore::begin_epoch`] at start, so entries untouched for a full
    /// run age out instead of accumulating.
    #[must_use]
    pub fn with_store(mut self, store: ChainStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &DecentralizedConfig {
        &self.config
    }

    /// Runs the experiment. `make_model` builds the shared architecture; the
    /// first instance's initialization seeds every peer's starting point.
    pub fn run(&self, make_model: &mut dyn FnMut() -> Sequential) -> DecentralizedRun {
        self.run_traced(make_model, &mut NoopSink)
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
        let mut run = driver::Run::new(self, make_model, sink);
        run.drive();
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockfed_data::{partition_dataset, Partition, SynthCifar, SynthCifarConfig};
    use blockfed_net::ANNOUNCE_BYTES;
    use blockfed_nn::SimpleNnConfig;
    use blockfed_telemetry::{AttrValue, MemorySink, RecordKind, TraceRecord};
    use rand::rngs::StdRng;
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
            wait_policy: policy,
            payload_bytes: 10_000,
            difficulty: 200_000, // fast blocks so tests stay quick
            computes: vec![
                ComputeProfile {
                    hashrate: 100_000.0,
                    train_rate: 500.0,
                    contention: 0.3,
                    batch_parallel: false,
                };
                3
            ],
            gossip: GossipMode::Full,
            seed,
            ..Default::default()
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
        for c in &mut cfg.computes {
            c.train_rate = 5.0;
        }
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
                let max = r.combos.iter().map(|(_, a)| a).fold(f64::MIN, f64::max);
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
            let mut cfg = quick_config(WaitPolicy::All, 1);
            cfg.computes = vec![cfg.computes[0]; n];
            assert!(
                Decentralized::try_new(cfg, &inside, &inside).is_ok(),
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
    fn try_new_rejects_unknown_adversaries_and_round_zero_switches() {
        // Both used to construct and then silently misbehave: the adversary
        // was never applied and the switch acted from round 1.
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.adversaries = vec![Adversary::new(ClientId(7), blockfed_fl::Attack::Replay)];
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests).err();
        assert_eq!(
            err,
            Some(ConfigError::AdversaryOutOfRange { peer: 7, peers: 3 })
        );
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.strategy_switch = Some((0, Strategy::NotConsider));
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests).err();
        assert_eq!(err, Some(ConfigError::ZeroSwitchRound));
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
        // Garbage weights: near-zero accuracy.
        cfg.adversaries = vec![Adversary::new(
            ClientId(0),
            blockfed_fl::Attack::Constant { value: 25.0 },
        )];
        let driver = Decentralized::new(cfg, &fx.shards, &fx.tests);
        let nn = SimpleNnConfig::tiny(fx.tests[0].feature_dim(), fx.tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(30);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
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
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
        cfg.timeline = vec![
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
        cfg.computes.push(cfg.computes[0]);
        cfg.topology = Topology::Ring;
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
    fn zero_batch_size_rejected_with_typed_error() {
        // Used to construct fine and panic mid-run inside the data loader.
        let fx = fixture();
        let mut cfg = quick_config(WaitPolicy::All, 1);
        cfg.batch_size = 0;
        assert_eq!(cfg.validate(3), Err(ConfigError::ZeroBatchSize));
        let err = Decentralized::try_new(cfg, &fx.shards, &fx.tests).err();
        assert_eq!(err, Some(ConfigError::ZeroBatchSize));
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
        cfg.timeline = vec![
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
            cfg.timeline = vec![
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
        cfg.timeline = vec![crate::faults::TimedFault::at_secs(
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
        cfg.timeline = vec![
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
        cfg.computes[2].train_rate = 1.0; // ~60–150 s of training vs the 30 s window
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
    fn demotion_sizes_first_k_from_the_committee_bar() {
        // Two contiguous committees of four, one slow trainer in each, so
        // every wait-all tier-1 round waits on a straggler. A demoted
        // first-k sized from the whole population (8 · 0.5 = 4) would still
        // wait for every committee member; sized from the committee bar it
        // lets a later round aggregate without its straggler.
        let n = 8;
        let (train, test) = SynthCifar::new(SynthCifarConfig::tiny()).generate(2);
        let shards = partition_dataset(&train, n, Partition::Iid, &mut StdRng::seed_from_u64(3));
        let tests = vec![test; n];
        let mut cfg = straggler_config(WaitPolicy::All, 84);
        cfg.rounds = 3;
        cfg.computes = vec![cfg.computes[0]; n];
        cfg.computes[0].train_rate = 1.0;
        cfg.computes[4].train_rate = 1.0;
        cfg.committees = Some(crate::committee::CommitteeSpec::contiguous(2));
        cfg.controller = Some(ControllerSpec::threshold(crate::policy::RuleConfig {
            wait_high_secs: 1.0,
            ..Default::default()
        }));
        let driver = Decentralized::new(cfg, &shards, &tests);
        let nn = SimpleNnConfig::tiny(tests[0].feature_dim(), tests[0].num_classes());
        let mut arch_rng = StdRng::seed_from_u64(84);
        let out = driver.run(&mut || nn.build(&mut arch_rng));
        let first = out.policy_events.first().expect("the rule never fired");
        let thinned = out
            .peer_records
            .iter()
            .flatten()
            .any(|r| r.round > first.round && r.updates_used < 4);
        assert!(thinned, "no later tier-1 round left a straggler out");
    }

    /// A threshold rule whose thresholds no round can cross.
    fn never_firing_rule() -> ControllerSpec {
        ControllerSpec::threshold(crate::policy::RuleConfig {
            wait_high_secs: f64::INFINITY,
            wait_low_secs: 0.0,
            keep_fraction: 1.0,
            staleness_high_secs: f64::INFINITY,
        })
    }

    #[test]
    fn noop_controller_is_bit_identical_to_static() {
        // The controller hook must be free when it never fires: same records,
        // metrics, chain, and settle time as the static run, and an empty
        // decision log.
        let baseline = run(WaitPolicy::All, 83);
        let mut cfg = quick_config(WaitPolicy::All, 83);
        cfg.controller = Some(never_firing_rule());
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
        cfg.controller = Some(ControllerSpec::threshold(crate::policy::RuleConfig {
            keep_fraction: 0.0,
            ..Default::default()
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
        cfg.timeline = faults;
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

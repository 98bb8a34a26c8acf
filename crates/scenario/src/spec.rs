//! The declarative scenario model.
//!
//! A [`ScenarioSpec`] is a complete, self-contained description of one
//! decentralized blockchain-FL run: the orchestrator's [`DecentralizedConfig`]
//! (how many peers, what compute each has, how they are wired, when they
//! wait, how they aggregate, which adversaries are embedded, and a timeline
//! of faults) plus the data, the model and a name. Every run knob is
//! declared once, on the config; the spec reads and writes it through
//! `Deref`. Specs are plain data — build one with the fluent API, hand it to
//! a [`crate::ScenarioRunner`], or run it on externally prepared data with
//! [`ScenarioSpec::run_with`].

use std::ops::{Deref, DerefMut};

use blockfed_core::{
    ChainStore, CommitteeSpec, ComputeProfile, ControllerSpec, Decentralized, DecentralizedConfig,
    DecentralizedRun, Fault, TimedFault,
};
use blockfed_data::{Dataset, Partition, SynthCifarConfig};
use blockfed_fl::{Adversary, Strategy, WaitPolicy};
use blockfed_net::{GossipMode, LinkSpec};
use blockfed_nn::{Sequential, SimpleNnConfig};
use blockfed_sim::SimDuration;

/// How a scenario synthesizes and partitions its federated data.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    /// The synthetic CIFAR-like generator configuration.
    pub synth: SynthCifarConfig,
    /// How the training pool is split across peers.
    pub partition: Partition,
}

impl Default for DataSpec {
    fn default() -> Self {
        DataSpec {
            synth: SynthCifarConfig::tiny(),
            partition: Partition::DirichletLabelSkew { alpha: 0.8 },
        }
    }
}

/// Where [`DataSpec::scaled_for`]'s linear pool growth stops: the per-class
/// count 256 peers resolve to. Beyond it each peer's shard shrinks (to a
/// floor of at least one example at [`blockfed_core::MAX_PEERS`] peers)
/// instead of the pool — and the evaluation cost — growing without bound.
const SCALED_PER_CLASS_CAP: usize = 320;

impl DataSpec {
    /// The paper-scale data spec: the full SynthCifar generator (64-dim
    /// observations, 10 classes, 150 train / 60 test examples per class) with
    /// the paper's Dirichlet label skew — the workload
    /// [`SimpleNnConfig::paper`]-sized models train on. Pair it with
    /// [`ScenarioSpec::model`] and [`ScenarioSpec::batch_parallel`] to run
    /// paper-scale cells instead of the synthesized tiny default.
    pub fn paper() -> Self {
        DataSpec {
            synth: SynthCifarConfig::default(),
            partition: Partition::DirichletLabelSkew { alpha: 0.8 },
        }
    }

    /// A tiny synthetic data spec scaled so `peers` training shards and
    /// per-peer test splits each hold at least a handful of examples — the
    /// default tiny pools starve past ~40 peers. IID partitioning keeps
    /// every shard non-empty at large populations where Dirichlet skew can
    /// zero one out.
    ///
    /// Growth is capped past 256 peers: pools stop growing linearly once
    /// each shard would otherwise keep holding ~5 examples, so a 1024-peer
    /// cell synthesizes (and scores against) the same 1 280-example pool as
    /// a 256-peer one, with every shard and test split still non-empty. The
    /// floor below keeps small populations on the legacy pool sizes.
    pub fn scaled_for(peers: usize) -> Self {
        let tiny = SynthCifarConfig::tiny();
        let per_class = (5 * peers)
            .div_ceil(tiny.num_classes)
            .clamp(20, SCALED_PER_CLASS_CAP);
        DataSpec {
            synth: SynthCifarConfig {
                train_per_class: per_class,
                test_per_class: per_class,
                ..tiny
            },
            partition: Partition::Iid,
        }
    }
}

/// A declarative description of one decentralized run.
///
/// # Examples
///
/// ```
/// use blockfed_scenario::ScenarioSpec;
/// use blockfed_fl::WaitPolicy;
///
/// let spec = ScenarioSpec::new("churny", 5)
///     .rounds(2)
///     .wait(WaitPolicy::FirstK(3))
///     .partition_at(5.0, &[0, 1], &[2, 3, 4])
///     .heal_at(20.0)
///     .leave_at(30.0, 4);
/// assert_eq!(spec.peers(), 5);
/// spec.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (matrix cells derive theirs from it).
    pub name: String,
    /// Data synthesis and partitioning.
    pub data: DataSpec,
    /// The model architecture every peer trains.
    pub model: SimpleNnConfig,
    /// Spec-level override of every peer's
    /// [`ComputeProfile::batch_parallel`] flag, applied when the spec lowers
    /// onto the orchestrator config — so the builder is order-independent
    /// with respect to [`ScenarioSpec::computes`] /
    /// [`ScenarioSpec::uniform_compute`]. `None` keeps the per-profile
    /// flags.
    pub batch_parallel: Option<bool>,
    /// Above this peer count a requested `Strategy::Consider` is lowered to
    /// `Strategy::BestK(best_k)`: the full combination search is exponential
    /// in the peer count, best-k is linear.
    pub consider_cutover: usize,
    /// The `k` used when the cutover kicks in.
    pub best_k: usize,
    /// The run configuration. Its `strategy` is the *requested* one (see
    /// [`ScenarioSpec::resolved_strategy`]), and its `computes` set the peer
    /// count.
    pub config: DecentralizedConfig,
}

/// A scenario is a run config plus its data, model and name, so field reads
/// and writes (`spec.rounds`, `spec.computes[0]`, `spec.timeline`) go to the
/// config's one declaration of each knob.
impl Deref for ScenarioSpec {
    type Target = DecentralizedConfig;

    fn deref(&self) -> &DecentralizedConfig {
        &self.config
    }
}

impl DerefMut for ScenarioSpec {
    fn deref_mut(&mut self) -> &mut DecentralizedConfig {
        &mut self.config
    }
}

impl ScenarioSpec {
    /// A scenario over `peers` identical quick-profile peers with tiny
    /// synthetic data: 3 rounds, wait-all, full combination search below the
    /// cutover, fast (~1 s) blocks.
    pub fn new(name: impl Into<String>, peers: usize) -> Self {
        let data = DataSpec::default();
        let quick = ComputeProfile {
            hashrate: 100_000.0,
            train_rate: 500.0,
            contention: 0.3,
            batch_parallel: false,
        };
        ScenarioSpec {
            name: name.into(),
            model: SimpleNnConfig::tiny(data.synth.feature_dim, data.synth.num_classes),
            data,
            batch_parallel: None,
            consider_cutover: 6,
            best_k: 3,
            config: DecentralizedConfig {
                rounds: 3,
                local_epochs: 2,
                batch_size: 16,
                lr: 0.1,
                payload_bytes: 10_000,
                difficulty: 200_000,
                computes: vec![quick; peers],
                ..Default::default()
            },
        }
    }

    /// The paper-scale cell preset: `peers` peers training the paper's
    /// ~62 K-parameter [`SimpleNnConfig::paper`] SimpleNN on the full
    /// SynthCifar generator ([`DataSpec::paper`]) through the batch-parallel
    /// loop — the one definition behind both the `paper3` benchmark
    /// workload and the paper-scale cell of `tests/train_equivalence.rs`, so
    /// they can never drift apart.
    pub fn paper_cell(name: impl Into<String>, peers: usize) -> Self {
        ScenarioSpec::new(name, peers)
            .rounds(2)
            .local_epochs(2)
            .batch_size(32)
            .lr(0.01)
            .data(DataSpec::paper())
            .model(SimpleNnConfig::paper())
            .batch_parallel(true)
            .seed(64)
    }

    /// The peer count.
    pub fn peers(&self) -> usize {
        self.computes.len()
    }

    /// Sets the communication rounds.
    #[must_use]
    pub fn rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the local epochs per round.
    #[must_use]
    pub fn local_epochs(mut self, epochs: usize) -> Self {
        self.local_epochs = epochs;
        self
    }

    /// Sets the mini-batch size.
    #[must_use]
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Sets the SGD learning rate.
    #[must_use]
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the SGD momentum.
    #[must_use]
    pub fn momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the wait policy.
    #[must_use]
    pub fn wait(mut self, policy: WaitPolicy) -> Self {
        self.wait_policy = policy;
        self
    }

    /// Sets the aggregation strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the Consider→BestK cutover: above `peers` the exponential search
    /// is replaced by `BestK(k)`.
    #[must_use]
    pub fn consider_cutover(mut self, peers: usize, k: usize) -> Self {
        self.consider_cutover = peers;
        self.best_k = k;
        self
    }

    /// From round `round` (1-based) onward, aggregate with `strategy` instead
    /// of the spec's base strategy — the knob behind
    /// [`crate::ScenarioRunner::run_fork_replay`].
    #[must_use]
    pub fn strategy_switch_at(mut self, round: u32, strategy: Strategy) -> Self {
        self.strategy_switch = Some((round, strategy));
        self
    }

    /// Sets the declared artifact size.
    #[must_use]
    pub fn payload_bytes(mut self, bytes: u64) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the proof-of-work difficulty.
    #[must_use]
    pub fn difficulty(mut self, difficulty: u128) -> Self {
        self.difficulty = difficulty;
        self
    }

    /// Gives every peer the same compute profile.
    #[must_use]
    pub fn uniform_compute(mut self, profile: ComputeProfile) -> Self {
        for c in &mut self.computes {
            *c = profile;
        }
        self
    }

    /// Replaces the per-peer compute profiles (and thereby the peer count).
    #[must_use]
    pub fn computes(mut self, profiles: Vec<ComputeProfile>) -> Self {
        self.computes = profiles;
        self
    }

    /// Switches batch-parallel local training on or off for every peer: each
    /// peer's mini-batches are split across the host's `blockfed-compute`
    /// workers. Bit-identical results at any thread count, so reports never
    /// depend on it — the knob is what lets cells train paper-scale models
    /// in reasonable host wall-clock. Applied at lowering time over whatever
    /// compute profiles the spec ends up with, so builder order does not
    /// matter.
    #[must_use]
    pub fn batch_parallel(mut self, on: bool) -> Self {
        self.batch_parallel = Some(on);
        self
    }

    /// The per-peer compute profiles the lowered run will actually use: the
    /// declared profiles with the spec-level [`ScenarioSpec::batch_parallel`]
    /// override applied.
    pub fn effective_computes(&self) -> Vec<ComputeProfile> {
        let mut computes = self.computes.clone();
        if let Some(on) = self.batch_parallel {
            for c in &mut computes {
                c.batch_parallel = on;
            }
        }
        computes
    }

    /// Sets the link profile.
    #[must_use]
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Sets the per-edge packet-loss probability on the current link profile.
    /// An out-of-range rate is caught by [`ScenarioSpec::validate`] (and the
    /// orchestrator's typed `InvalidLink` rejection), not here — specs are
    /// plain data.
    #[must_use]
    pub fn loss(mut self, rate: f64) -> Self {
        self.link.loss_rate = rate;
        self
    }

    /// Sets the liveness-watchdog window in virtual seconds (see
    /// [`DecentralizedConfig::watchdog`]).
    #[must_use]
    pub fn watchdog_secs(mut self, secs: f64) -> Self {
        self.watchdog = Some(SimDuration::from_secs_f64(secs));
        self
    }

    /// Attaches an adaptive policy controller (see
    /// [`DecentralizedConfig::controller`]).
    #[must_use]
    pub fn controller(mut self, spec: ControllerSpec) -> Self {
        self.controller = Some(spec);
        self
    }

    /// Sets the gossip dissemination mode (see
    /// [`DecentralizedConfig::gossip`]).
    #[must_use]
    pub fn gossip(mut self, mode: GossipMode) -> Self {
        self.gossip = mode;
        self
    }

    /// Attaches a hierarchical committee layout (see
    /// [`DecentralizedConfig::committees`]).
    #[must_use]
    pub fn committees(mut self, spec: CommitteeSpec) -> Self {
        self.committees = Some(spec);
        self
    }

    /// Enables the fitness gate.
    #[must_use]
    pub fn fitness_threshold(mut self, th: f64) -> Self {
        self.fitness_threshold = Some(th);
        self
    }

    /// Enables the norm-outlier gate.
    #[must_use]
    pub fn norm_z_threshold(mut self, z: f64) -> Self {
        self.norm_z_threshold = Some(z);
        self
    }

    /// Adds an adversary.
    #[must_use]
    pub fn adversary(mut self, adv: Adversary) -> Self {
        self.adversaries.push(adv);
        self
    }

    /// Schedules a partition at `secs` of virtual time.
    #[must_use]
    pub fn partition_at(mut self, secs: f64, left: &[usize], right: &[usize]) -> Self {
        self.timeline.push(TimedFault::at_secs(
            secs,
            Fault::Partition {
                left: left.to_vec(),
                right: right.to_vec(),
            },
        ));
        self
    }

    /// Schedules a heal-all at `secs`.
    #[must_use]
    pub fn heal_at(mut self, secs: f64) -> Self {
        self.timeline
            .push(TimedFault::at_secs(secs, Fault::HealAll));
        self
    }

    /// Schedules a peer departure at `secs`.
    #[must_use]
    pub fn leave_at(mut self, secs: f64, peer: usize) -> Self {
        self.timeline
            .push(TimedFault::at_secs(secs, Fault::PeerLeave { peer }));
        self
    }

    /// Schedules a peer join at `secs` (the peer is dormant before).
    #[must_use]
    pub fn join_at(mut self, secs: f64, peer: usize) -> Self {
        self.timeline
            .push(TimedFault::at_secs(secs, Fault::PeerJoin { peer }));
        self
    }

    /// Schedules a hash-rate shock at `secs`.
    #[must_use]
    pub fn hash_shock_at(mut self, secs: f64, peer: usize, factor: f64) -> Self {
        self.timeline.push(TimedFault::at_secs(
            secs,
            Fault::HashRateShock { peer, factor },
        ));
        self
    }

    /// Schedules a process crash at `secs`: the peer keeps its identity and
    /// on-chain state but loses in-flight fetches and its mempool until a
    /// [`ScenarioSpec::restart_at`].
    #[must_use]
    pub fn crash_at(mut self, secs: f64, peer: usize) -> Self {
        self.timeline
            .push(TimedFault::at_secs(secs, Fault::PeerCrash { peer }));
        self
    }

    /// Schedules a crashed peer's restart at `secs` (resyncs the chain, then
    /// resumes its round).
    #[must_use]
    pub fn restart_at(mut self, secs: f64, peer: usize) -> Self {
        self.timeline
            .push(TimedFault::at_secs(secs, Fault::PeerRestart { peer }));
        self
    }

    /// Replaces the data spec (the model is re-derived to match its shape).
    #[must_use]
    pub fn data(mut self, data: DataSpec) -> Self {
        self.model = SimpleNnConfig::tiny(data.synth.feature_dim, data.synth.num_classes);
        self.data = data;
        self
    }

    /// Replaces the model architecture.
    #[must_use]
    pub fn model(mut self, model: SimpleNnConfig) -> Self {
        self.model = model;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Renames the spec.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The strategy the run will actually use: a requested `Consider` is
    /// lowered to `BestK(best_k)` above the cutover peer count, keeping the
    /// aggregation cost linear where the full search would be exponential.
    pub fn resolved_strategy(&self) -> Strategy {
        if self.strategy == Strategy::Consider && self.peers() > self.consider_cutover {
            Strategy::BestK(self.best_k)
        } else {
            self.strategy
        }
    }

    /// Checks the spec is runnable: its own `best_k`, the orchestrator's
    /// checks on the config (a spec and `Decentralized::try_new` refuse with
    /// the same words), and that the data pools cover every peer.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.best_k == 0 {
            return Err("best_k must be positive".into());
        }
        let n = self.peers();
        self.config.validate(n).map_err(|e| e.to_string())?;
        let pool = self.data.synth.test_per_class * self.data.synth.num_classes;
        if pool / n == 0 {
            return Err(format!(
                "test pool of {pool} examples cannot cover {n} peers"
            ));
        }
        // Starved training pools used to slip past validation and blow up
        // deep in partitioning/training at large populations; reject them
        // up front like the test pool.
        let train = self.data.synth.train_per_class * self.data.synth.num_classes;
        if train / n == 0 {
            return Err(format!(
                "train pool of {train} examples cannot shard across {n} peers"
            ));
        }
        Ok(())
    }

    /// Lowers the spec onto the orchestrator's configuration: the wrapped
    /// config with the strategy resolved and the `batch_parallel` override
    /// applied.
    pub fn decentralized_config(&self) -> DecentralizedConfig {
        let mut cfg = self.config.clone();
        cfg.strategy = self.resolved_strategy();
        cfg.computes = self.effective_computes();
        cfg
    }

    /// Runs the spec against externally prepared shards/tests and a model
    /// factory — the lowering used by `blockfed-bench`, whose experiments
    /// bring their own datasets and architectures (e.g. the EffNet head).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the shard count differs from the
    /// spec's peer count.
    pub fn run_with(
        &self,
        train_shards: &[Dataset],
        peer_tests: &[Dataset],
        make_model: &mut dyn FnMut() -> Sequential,
    ) -> DecentralizedRun {
        let mut sink = blockfed_telemetry::NoopSink;
        self.run_traced_with(train_shards, peer_tests, make_model, &mut sink)
    }

    /// [`ScenarioSpec::run_with`] with a trace sink attached: every span and
    /// event the orchestrator emits lands in `sink`, stamped with virtual sim
    /// time. Attaching a sink never perturbs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the shard count differs from the
    /// spec's peer count.
    pub fn run_traced_with(
        &self,
        train_shards: &[Dataset],
        peer_tests: &[Dataset],
        make_model: &mut dyn FnMut() -> Sequential,
        sink: &mut dyn blockfed_telemetry::TraceSink,
    ) -> DecentralizedRun {
        self.run_traced_with_store(train_shards, peer_tests, make_model, sink, None)
    }

    /// [`ScenarioSpec::run_traced_with`] with an explicit [`ChainStore`]
    /// handle: every peer of the run shares `store` for block-execution and
    /// signature-verdict caching, and sequential runs handed the same store
    /// reuse each other's cached work (the fork-replay path). `None` gives
    /// the run a private store that is dropped with it.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or the shard count differs from the
    /// spec's peer count.
    pub fn run_traced_with_store(
        &self,
        train_shards: &[Dataset],
        peer_tests: &[Dataset],
        make_model: &mut dyn FnMut() -> Sequential,
        sink: &mut dyn blockfed_telemetry::TraceSink,
        store: Option<ChainStore>,
    ) -> DecentralizedRun {
        self.validate().expect("invalid scenario spec");
        assert_eq!(
            train_shards.len(),
            self.peers(),
            "shard count must match the spec's peer count"
        );
        let mut driver = Decentralized::new(self.decentralized_config(), train_shards, peer_tests);
        if let Some(store) = store {
            driver = driver.with_store(store);
        }
        driver.run_traced(make_model, sink)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use blockfed_core::{RetargetRule, RuleConfig, MAX_PEERS};
    use blockfed_fl::{Attack, ClientId, StalenessDecay};
    use blockfed_net::Topology;

    /// A threshold rule whose thresholds no round can cross.
    pub(crate) fn never_firing_rule() -> ControllerSpec {
        ControllerSpec::threshold(RuleConfig {
            wait_high_secs: f64::INFINITY,
            wait_low_secs: 0.0,
            keep_fraction: 1.0,
            staleness_high_secs: f64::INFINITY,
        })
    }

    #[test]
    fn lowering_is_the_config_with_strategy_and_batch_parallel_resolved() {
        // The defaults: the orchestrator's own, under `new`'s quick profile.
        let base = ScenarioSpec::new("base", 3);
        base.validate().unwrap();
        let cfg = base.decentralized_config();
        assert_eq!(cfg, base.config, "nothing to resolve on a default spec");
        assert_eq!(cfg.gossip, GossipMode::AnnounceFetch);
        assert_eq!(cfg.retarget, RetargetRule::Homestead);
        assert_eq!(cfg.watchdog, Some(SimDuration::from_secs(600)));
        assert_eq!(cfg.strategy, Strategy::Consider);
        // Every knob off its default lowers verbatim, except the requested
        // Consider (resolved past the cutover) and the batch-parallel flag
        // (applied to every profile).
        let replay = Adversary::new(ClientId(1), Attack::Replay);
        let mut spec = ScenarioSpec::new("every-knob", 8)
            .rounds(4)
            .local_epochs(1)
            .batch_size(8)
            .lr(0.2)
            .momentum(0.5)
            .wait(WaitPolicy::FirstK(2))
            .consider_cutover(6, 2)
            .strategy_switch_at(2, Strategy::NotConsider)
            .payload_bytes(1_234)
            .difficulty(99_000)
            .link(LinkSpec::wan())
            .loss(0.05)
            .watchdog_secs(30.0)
            .controller(never_firing_rule())
            .gossip(GossipMode::Full)
            .committees(CommitteeSpec::contiguous(2))
            .fitness_threshold(0.2)
            .norm_z_threshold(1.5)
            .adversary(replay.clone())
            .leave_at(5.0, 3)
            .batch_parallel(true)
            .seed(7);
        spec.computes[2].train_rate = 50.0;
        spec.topology = Topology::Ring;
        spec.retarget = RetargetRule::Pi { kp: 0.3, ki: 0.05 };
        spec.staleness_decay = Some(StalenessDecay::Polynomial { a: 0.5 });
        spec.degeneracy_min_classes = Some(2);
        spec.validate().unwrap();
        let mut computes = vec![
            ComputeProfile {
                batch_parallel: true,
                ..base.computes[0]
            };
            8
        ];
        computes[2].train_rate = 50.0;
        let expected = DecentralizedConfig {
            rounds: 4,
            local_epochs: 1,
            batch_size: 8,
            lr: 0.2,
            momentum: 0.5,
            wait_policy: WaitPolicy::FirstK(2),
            strategy: Strategy::BestK(2),
            payload_bytes: 1_234,
            difficulty: 99_000,
            computes,
            fitness_threshold: Some(0.2),
            norm_z_threshold: Some(1.5),
            degeneracy_min_classes: Some(2),
            adversaries: vec![replay],
            link: LinkSpec {
                loss_rate: 0.05,
                ..LinkSpec::wan()
            },
            topology: Topology::Ring,
            gossip: GossipMode::Full,
            committees: Some(CommitteeSpec::contiguous(2)),
            staleness_decay: Some(StalenessDecay::Polynomial { a: 0.5 }),
            timeline: vec![TimedFault::at_secs(5.0, Fault::PeerLeave { peer: 3 })],
            retarget: RetargetRule::Pi { kp: 0.3, ki: 0.05 },
            watchdog: Some(SimDuration::from_secs(30)),
            strategy_switch: Some((2, Strategy::NotConsider)),
            controller: Some(never_firing_rule()),
            seed: 7,
        };
        assert_eq!(spec.decentralized_config(), expected);
    }

    #[test]
    fn consider_cutover_lowers_to_best_k() {
        let small = ScenarioSpec::new("s", 5).consider_cutover(6, 3);
        assert_eq!(small.resolved_strategy(), Strategy::Consider);
        let big = ScenarioSpec::new("b", 10).consider_cutover(6, 3);
        assert_eq!(big.resolved_strategy(), Strategy::BestK(3));
        // An explicit strategy is never overridden.
        let explicit = ScenarioSpec::new("e", 10).strategy(Strategy::NotConsider);
        assert_eq!(explicit.resolved_strategy(), Strategy::NotConsider);
        assert_eq!(
            big.decentralized_config().strategy,
            Strategy::BestK(3),
            "the lowering uses the resolved strategy"
        );
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(ScenarioSpec::new("one", 1).validate().is_err());
        // 33 peers is no longer a mask-width violation — only the data pool
        // has to cover the population now.
        let thirty_three = ScenarioSpec::new("past-u32", 33).data(DataSpec::scaled_for(33));
        thirty_three.validate().unwrap();
        // 257 peers — the old ceiling's rejection point — now validates; the
        // ceiling is the mask's widened 1024.
        ScenarioSpec::new("past-old-cap", 257)
            .data(DataSpec::scaled_for(257))
            .validate()
            .unwrap();
        // Past the orchestrator ceiling the error mirrors ConfigError.
        let too_many = ScenarioSpec::new("many", 1025)
            .data(DataSpec::scaled_for(1025))
            .validate()
            .unwrap_err();
        assert!(too_many.contains("at most 1024 peers"), "{too_many}");
        assert_eq!(
            too_many,
            blockfed_core::ConfigError::TooManyPeers { got: 1025 }.to_string(),
            "spec and orchestrator must reject with the same words"
        );
        assert!(ScenarioSpec::new("r0", 3).rounds(0).validate().is_err());
        let bad_fault = ScenarioSpec::new("f", 3).leave_at(1.0, 7);
        assert!(bad_fault.validate().is_err());
        let bad_adv =
            ScenarioSpec::new("a", 3).adversary(Adversary::new(ClientId(5), Attack::Replay));
        assert_eq!(
            bad_adv.validate().unwrap_err(),
            blockfed_core::ConfigError::AdversaryOutOfRange { peer: 5, peers: 3 }.to_string()
        );
        // 40 test examples cannot cover 48 peers; the scaled data spec can.
        assert!(ScenarioSpec::new("wide", 20).validate().is_ok());
        assert!(ScenarioSpec::new("starved", 48).validate().is_err());
        assert!(ScenarioSpec::new("fed", 48)
            .data(DataSpec::scaled_for(48))
            .validate()
            .is_ok());
        // A starved *train* pool is refused up front instead of blowing up
        // deep in the partitioner at run time.
        let starved_train = ScenarioSpec::new("st", 48).data(DataSpec {
            synth: blockfed_data::SynthCifarConfig {
                train_per_class: 1,
                test_per_class: 100,
                ..blockfed_data::SynthCifarConfig::tiny()
            },
            partition: blockfed_data::Partition::Iid,
        });
        let err = starved_train.validate().unwrap_err();
        assert!(err.contains("train pool of 4 examples"), "{err}");
    }

    #[test]
    fn zero_batch_size_is_refused_with_the_orchestrators_words() {
        // Used to pass validation and panic mid-run inside the data loader.
        let err = ScenarioSpec::new("probe", 3)
            .rounds(1)
            .batch_size(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, blockfed_core::ConfigError::ZeroBatchSize.to_string());
    }

    #[test]
    fn committee_specs_are_refused_with_the_orchestrators_words() {
        ScenarioSpec::new("c", 6)
            .committees(CommitteeSpec::contiguous(3))
            .validate()
            .unwrap();
        let zero = ScenarioSpec::new("c0", 6)
            .committees(CommitteeSpec::contiguous(0))
            .validate()
            .unwrap_err();
        assert_eq!(
            zero,
            blockfed_core::ConfigError::InvalidCommittees("need at least one committee".into())
                .to_string()
        );
        let over = ScenarioSpec::new("c9", 6)
            .committees(CommitteeSpec::seeded(9, 7))
            .validate()
            .unwrap_err();
        assert_eq!(
            over,
            blockfed_core::ConfigError::InvalidCommittees(
                "more committees than peers (9 committees, 6 peers)".into()
            )
            .to_string()
        );
    }

    #[test]
    fn scaled_data_caps_past_256_peers_but_covers_the_ceiling() {
        // Linear growth below the cap…
        assert_eq!(DataSpec::scaled_for(48).synth.train_per_class, 60);
        // …the 256-peer point lands exactly on it (so the committed scale256
        // baselines are untouched)…
        assert_eq!(DataSpec::scaled_for(256).synth.train_per_class, 320);
        assert_eq!(DataSpec::scaled_for(512).synth.train_per_class, 320);
        // …and past it the pool stops growing while every shard and test
        // split stays non-empty all the way to the orchestrator ceiling.
        let huge = DataSpec::scaled_for(MAX_PEERS);
        assert_eq!(huge.synth.train_per_class, 320);
        let pool = huge.synth.test_per_class * huge.synth.num_classes;
        assert!(
            pool / MAX_PEERS >= 1,
            "pool {pool} starves {MAX_PEERS} peers"
        );
        ScenarioSpec::new("ceiling", MAX_PEERS)
            .data(huge)
            .validate()
            .unwrap();
    }

    #[test]
    fn batch_parallel_is_builder_order_independent() {
        // The spec-level knob survives a later computes()/uniform_compute()
        // because it is applied at lowering time, not at builder-call time.
        let profiles = vec![ComputeProfile::paper_vm(); 3];
        let flipped_first = ScenarioSpec::new("bp", 3)
            .batch_parallel(true)
            .computes(profiles.clone());
        let flipped_last = ScenarioSpec::new("bp", 3)
            .computes(profiles)
            .batch_parallel(true);
        for spec in [&flipped_first, &flipped_last] {
            assert!(spec.effective_computes().iter().all(|c| c.batch_parallel));
        }
        // Unset, the per-profile flags pass through untouched.
        let mut spec = ScenarioSpec::new("bp-off", 3);
        spec.computes[1].batch_parallel = true;
        let effective = spec.effective_computes();
        assert!(!effective[0].batch_parallel && effective[1].batch_parallel);
    }

    #[test]
    fn timeline_builders_accumulate() {
        let spec = ScenarioSpec::new("t", 5)
            .partition_at(1.0, &[0, 1], &[2, 3])
            .heal_at(2.0)
            .join_at(3.0, 4)
            .leave_at(4.0, 0)
            .hash_shock_at(5.0, 1, 2.0)
            .crash_at(6.0, 1)
            .restart_at(7.0, 1);
        assert_eq!(spec.timeline.len(), 7);
        spec.validate().unwrap();
        // Crash/restart alternation is enforced through the shared timeline
        // validator.
        assert!(ScenarioSpec::new("r", 3)
            .restart_at(1.0, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn invalid_loss_mirrors_the_orchestrator() {
        ScenarioSpec::new("lossy", 3).loss(0.05).validate().unwrap();
        let err = ScenarioSpec::new("bad", 3)
            .loss(1.5)
            .validate()
            .unwrap_err();
        assert!(err.starts_with("invalid link profile"), "{err}");
        assert_eq!(
            err,
            blockfed_core::ConfigError::InvalidLink(
                blockfed_net::LinkError::InvalidLossRate { got: 1.5 }.to_string()
            )
            .to_string(),
            "spec and orchestrator must reject with the same words"
        );
    }
}

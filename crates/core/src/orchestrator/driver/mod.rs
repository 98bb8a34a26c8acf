//! The event driver: one `Run` owns the scheduler, the simulated network and
//! the telemetry, pops events in virtual-time order and applies what the
//! [`Node`]s and the [`RoundEngine`] return. Here: the run state, the event
//! loop and the round handlers. [`gossip`]: flood / pull / fetch-episode
//! plumbing; [`churn`]: fault handlers and watchdog; [`finish`]: the final
//! fold; [`obs`]: telemetry and metrics state.

mod churn;
mod finish;
mod gossip;
mod obs;

use std::collections::{BTreeMap, HashMap};

use blockfed_chain::{
    Blockchain, ChainStore, DifficultyController, GenesisSpec, SealPolicy, StoreCounters,
    Transaction,
};
use blockfed_crypto::sha256::sha256;
use blockfed_crypto::{KeyPair, H160, H256};
use blockfed_data::{Batcher, Dataset};
use blockfed_fl::{ClientId, ModelUpdate};
use blockfed_net::Network;
use blockfed_nn::serialize::encode_params;
use blockfed_nn::{Sequential, Sgd};
use blockfed_sim::{RngHub, Scheduler, SimDuration, SimTime};
use blockfed_telemetry::TraceSink;
use blockfed_vm::{ComboMask, NATIVE_REGISTRY_CODE};
use rand::rngs::StdRng;
use rand::Rng;

use self::gossip::{FetchState, GossipState, Parcel};
use self::obs::Obs;
use super::block_log::BlockLog;
use super::node::{Node, Reorg};
use super::round::{AggArtifact, Aggregated, RoundEngine, Tier1Pending, Tier2};
use super::{registry_address, Decentralized, DecentralizedConfig, PeerRoundRecord};
use crate::coupling::{model_fingerprint, record_aggregate_tx, register_tx, submit_model_tx};
use crate::faults::Fault;

#[derive(Debug)]
enum Event {
    /// Local training finished. `gen` is the peer's training generation at
    /// schedule time: a crash bumps the generation, so a completion that was
    /// in flight when the process died arrives stale and is discarded.
    TrainDone {
        peer: usize,
        gen: u32,
    },
    /// A flooded or pulled parcel arriving at `to` over recorded `route`.
    Deliver {
        to: usize,
        route: usize,
        parcel: Parcel,
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

/// One peer: its node, and where it stands in the round sequence. Whether it
/// currently participates lives in [`Run::live`].
struct Peer {
    node: Node,
    current_round: u32,
    training: bool,
    train_done_at: Option<SimTime>,
    global_params: Vec<f32>,
    records: Vec<PeerRoundRecord>,
    /// Training generation, bumped on every crash so in-flight `TrainDone`
    /// events scheduled before the crash arrive stale and are ignored.
    train_gen: u32,
    /// First round this peer participates in (1 unless it joined mid-run).
    first_round: u32,
    /// Cumulative hash-rate multiplier from `HashRateShock` faults.
    hash_scale: f64,
    /// Set between this peer's tier-1 aggregation and its tier-2 merge
    /// (hierarchical runs only). Like the round position it survives a crash
    /// — the tier-1 record is already in `records`, so losing it would
    /// strand the round.
    tier1: Option<Tier1Pending>,
}

impl Peer {
    fn done(&self, total_rounds: u32) -> bool {
        self.first_round > total_rounds
            || (self.tier1.is_none()
                && self.records.len() as u32 >= total_rounds + 1 - self.first_round)
    }
}

/// The whole mutable state of one run, owned by the event loop. Every handler
/// is a `&mut self` method taking only what identifies its event (a peer, a
/// log index, the virtual instant): nothing is threaded by hand.
pub(super) struct Run<'a> {
    cfg: &'a DecentralizedConfig,
    train_shards: &'a [Dataset],
    peer_tests: &'a [Dataset],
    make_model: &'a mut dyn FnMut() -> Sequential,
    /// The chain store every peer of this run shares (see
    /// [`Decentralized::with_store`]): each block is executed and each
    /// signature verified once per run instead of once per peer.
    store: ChainStore,
    /// The store's counters at run start, so the run reports only its own
    /// hits, misses and evictions on a shared store.
    store_base: StoreCounters,
    peers: Vec<Peer>,
    /// Whether each peer currently participates (false before a `PeerJoin`
    /// fires, after a `PeerLeave`, or between a `PeerCrash` and its
    /// `PeerRestart`).
    live: Vec<bool>,
    engine: RoundEngine<'a>,
    /// Committee-level aggregate artifacts and in-flight targeted pulls of
    /// them (expected-arrival guarded, like payload fetch episodes).
    agg_log: Vec<AggArtifact>,
    agg_pulls: HashMap<(usize, H256), SimTime>,
    network: Network,
    sched: Scheduler<Event>,
    net_rng: StdRng,
    mine_rng: StdRng,
    train_time_rng: StdRng,
    /// Backoff jitter has its own stream, so lossless, fault-free runs —
    /// which never retry — draw nothing for it.
    fetch_rng: StdRng,
    attack_rng: StdRng,
    // Shared logs so events carry small indices instead of payloads.
    tx_log: Vec<Transaction>,
    update_log: Vec<ModelUpdate>,
    /// Aligned with `update_log`: each update's fingerprint, hashed once at
    /// publication.
    update_fp: Vec<H256>,
    /// Aligned with `tx_log`: the update a `submit_model` transaction carries.
    tx_update: Vec<Option<usize>>,
    block_log: BlockLog,
    /// Aligned with `block_log`.
    block_miner: Vec<usize>,
    gs: GossipState,
    /// Every published model by fingerprint: its submit-tx index (what a
    /// fetch episode re-pulls) and its publication time (for the age-of-block
    /// metric).
    published: HashMap<H256, (usize, SimTime)>,
    /// The open fetch episodes (see [`gossip`]), at most one per (peer,
    /// artifact). Ordered, so teardown and diagnostics walk it
    /// deterministically.
    fetches: BTreeMap<(usize, H256), FetchState>,
    fetch_retries: u64,
    recovery_total: SimDuration,
    recoveries: u64,
    /// Active fetch time left behind by episodes that gave up, keyed like
    /// `fetches` and carried into the next one. Cleared when the artifact
    /// arrives by any path or the chasing peer crashes.
    gave_up_elapsed: BTreeMap<(usize, H256), SimDuration>,
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
    /// `t = 0` (see [`Run::bootstrap`]).
    pub fn new(
        driver: &'a Decentralized<'a>,
        make_model: &'a mut dyn FnMut() -> Sequential,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        let cfg = &driver.config;
        let n = driver.train_shards.len();
        let hub = RngHub::new(cfg.seed);
        let mut key_rng = hub.stream("keys");
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&mut key_rng)).collect();
        let addrs: Vec<H160> = keys.iter().map(KeyPair::address).collect();
        let spec = GenesisSpec::with_accounts(&addrs, u64::MAX / 4)
            .with_difficulty(cfg.difficulty)
            .with_code(registry_address(), NATIVE_REGISTRY_CODE.to_vec());
        let init_params = make_model().params_flat();
        let engine = RoundEngine::new(cfg, hub, &addrs, make_model());
        // Peers with a scheduled join are dormant until their fault fires.
        let mut live = vec![true; n];
        for tf in &cfg.timeline {
            if let Fault::PeerJoin { peer } = tf.fault {
                live[peer] = false;
            }
        }
        let store = driver.store.clone().unwrap_or_default();
        store.begin_epoch();
        let store_base = store.counters();
        let peers: Vec<Peer> = keys
            .into_iter()
            .map(|key| {
                let chain = Blockchain::with_store(&spec, SealPolicy::Simulated, store.clone());
                Peer {
                    node: Node::new(key, chain, &store),
                    current_round: 1,
                    training: true,
                    train_done_at: None,
                    global_params: init_params.clone(),
                    records: Vec::new(),
                    train_gen: 0,
                    first_round: 1,
                    hash_scale: 1.0,
                    tier1: None,
                }
            })
            .collect();
        // Difficulty retargeting: the controller aims for the cadence the
        // configured difficulty implies against the genesis hash rate, so at
        // steady state every rule holds the configured block interval, and
        // the adaptive rules pull cadence back there after hash-rate shocks.
        let genesis_rate: f64 = (0..n)
            .filter(|&i| live[i])
            .map(|i| cfg.computes[i].effective_hashrate(true))
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
            store,
            store_base,
            peers,
            live,
            engine,
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
            update_fp: Vec::new(),
            tx_update: Vec::new(),
            block_log: BlockLog::default(),
            block_miner: Vec::new(),
            gs: GossipState::new(cfg, &hub),
            published: HashMap::new(),
            fetches: BTreeMap::new(),
            fetch_retries: 0,
            recovery_total: SimDuration::ZERO,
            recoveries: 0,
            gave_up_elapsed: BTreeMap::new(),
            last_published: vec![None; n],
            pending_faults: cfg.timeline.len(),
            stall: None,
            difficulty_ctl: DifficultyController::with_target(
                cfg.retarget,
                cfg.difficulty,
                implied_target_ns,
            ),
            last_seal_at: None,
            obs: Obs::new(n, sink),
            finished_at: SimTime::ZERO,
        };
        run.bootstrap();
        run
    }

    /// Schedules everything that happens at `t = 0`: registrations (dormant
    /// joiners register when they join), the first training of every active
    /// peer, the fault timeline, the watchdog and the first mining race.
    fn bootstrap(&mut self) {
        let cfg = self.cfg;
        let starters: Vec<usize> = (0..self.peers.len()).filter(|&i| self.live[i]).collect();
        for &i in &starters {
            self.publish_own_tx(i, SimTime::ZERO, |key, nonce| {
                register_tx(registry_address(), key, nonce)
            });
        }
        for &i in &starters {
            self.start_training(i, SimTime::ZERO);
        }
        for (idx, tf) in cfg.timeline.iter().enumerate() {
            self.sched.schedule_after(tf.at, Event::Fault { idx });
        }
        // Liveness watchdog: re-armed on every check, fires the stall
        // diagnostic when nothing has progressed for a full timeout while no
        // scheduled fault can still unblock the run.
        if let Some(timeout) = cfg.watchdog {
            self.sched.schedule_after(timeout, Event::Watchdog);
            self.obs
                .tel
                .run_instant(SimTime::ZERO, "watchdog.armed", || {
                    vec![("timeout_secs", timeout.as_secs_f64().into())]
                });
        }
        let first_race = self.sample_race_delay();
        self.sched.schedule_after(first_race, Event::SealBlock);
    }

    /// The event loop: pops events in virtual-time order until every active
    /// peer finished its rounds and no scheduled fault (e.g. a late join) can
    /// still change the population, or the watchdog declares a stall.
    pub fn drive(&mut self) {
        let n = self.peers.len() as u64;
        // Floods deliver O(n) events each and every peer floods several times
        // per round, so the safety cap scales with the population: a flat 2M
        // floor for small runs, a quadratic term for 1024-peer ones.
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
                Event::Deliver { to, route, parcel } => self.on_deliver(to, route, parcel, now),
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
            && (0..self.peers.len()).all(|i| !self.live[i] || self.peers[i].done(self.cfg.rounds))
    }

    /// Peer `i`'s current weight in the mining race: zero while inactive,
    /// else its contention-adjusted hash rate scaled by any hash-rate shocks.
    fn mining_weight(&self, i: usize) -> f64 {
        let p = &self.peers[i];
        if self.live[i] {
            self.cfg.computes[i].effective_hashrate(p.training) * p.hash_scale
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
        let base = self.cfg.computes[peer].training_time(
            self.train_shards[peer].len(),
            self.cfg.local_epochs,
            true,
        );
        let jitter = base.mul_f64(self.train_time_rng.gen_range(0.0..0.05));
        self.sched
            .schedule_after(base + jitter, Event::TrainDone { peer, gen });
    }

    /// Moves `peer` past `round`, into the next round's training if one is
    /// left.
    fn advance(&mut self, peer: usize, round: u32, now: SimTime) {
        if round < self.cfg.rounds {
            self.peers[peer].current_round = round + 1;
            self.start_training(peer, now);
        }
    }

    /// Signs one of `peer`'s own control transactions at its next nonce, logs
    /// it, admits it to the peer's mempool and floods it.
    fn publish_own_tx(
        &mut self,
        peer: usize,
        now: SimTime,
        sign: impl FnOnce(&KeyPair, u64) -> Transaction,
    ) {
        let tx = self.peers[peer].node.publish(sign);
        let idx = self.tx_log.len();
        self.tx_log.push(tx);
        self.tx_update.push(None);
        self.schedule_flood(peer, 512, Parcel::Tx(idx), now);
    }

    /// Runs `publish` and books every flood and pull byte it moved as tier-2
    /// (committee) traffic.
    fn as_tier2_traffic(&mut self, publish: impl FnOnce(&mut Self)) {
        let before = (self.gs.gossip_bytes, self.gs.fetch_bytes);
        publish(self);
        let metrics = &mut self.obs.metrics;
        metrics.add("tier2_gossip_bytes", self.gs.gossip_bytes - before.0);
        metrics.add("tier2_fetch_bytes", self.gs.fetch_bytes - before.1);
    }

    /// Meters and traces the reorgs an import into `to`'s chain caused.
    fn note_reorgs(&mut self, to: usize, now: SimTime, reorgs: Vec<Reorg>) {
        for (old_head, height) in reorgs {
            self.obs.metrics.add("reorgs", 1);
            self.obs.tel.instant(now, "chain.reorg", to as u32, || {
                vec![
                    ("old_head", old_head.short().into()),
                    ("height", height.into()),
                ]
            });
        }
    }

    fn on_train_done(&mut self, peer: usize, gen: u32, now: SimTime) {
        // A crash bumps the generation: a completion that was in flight when
        // the process died arrives stale.
        if !self.live[peer] || gen != self.peers[peer].train_gen {
            return;
        }
        let cfg = self.cfg;
        let round = self.peers[peer].current_round;
        // Train eagerly at the event (virtual time already paid).
        let mut model = (self.make_model)();
        model.set_params_flat(&self.peers[peer].global_params);
        let mut opt = Sgd::new(cfg.lr, cfg.momentum);
        let mut rng = self
            .engine
            .hub
            .indexed_stream("train", (peer as u64) << 32 | u64::from(round));
        // The batch-parallel loop is bit-identical to the sequential one, so
        // the knob only changes how much host wall-clock the
        // (virtual-time-accounted) training costs.
        model.train_epochs_maybe_par(
            cfg.computes[peer].batch_parallel,
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
        let fingerprint = model_fingerprint(&update);
        let p = &mut self.peers[peer];
        let tx = p
            .node
            .publish(|key, nonce| submit_model_tx(&update, registry_address(), key, nonce));
        self.obs.training_done(peer, now, round);
        let tx_idx = self.tx_log.len();
        self.tx_log.push(tx);
        self.tx_update.push(Some(self.update_log.len()));
        self.update_log.push(update.clone());
        self.update_fp.push(fingerprint);
        self.published.insert(fingerprint, (tx_idx, now));
        p.node.model_store.insert(fingerprint, update);
        p.training = false;
        p.train_done_at = Some(now);
        self.schedule_flood(peer, cfg.payload_bytes, Parcel::Model(tx_idx), now);
        self.try_aggregate(peer, now);
    }

    fn on_deliver(&mut self, to: usize, route: usize, parcel: Parcel, now: SimTime) {
        // A lost pull stays an open fetch episode: its `FetchTimeout` owns
        // the retry.
        if !self.live[to] || !self.route_open(route, to, parcel, now) {
            return;
        }
        match parcel {
            Parcel::Tx(idx) | Parcel::Model(idx) => self.on_deliver_tx(to, idx, now),
            Parcel::Block(idx) => self.on_deliver_block(to, idx, now),
            Parcel::Agg(idx) => self.on_deliver_agg(to, idx, now),
        }
    }

    fn on_deliver_tx(&mut self, to: usize, idx: usize, now: SimTime) {
        // Model payloads are scoped to the sender's committee: everyone else
        // received only the announcement, so they mine the digest
        // transaction but never hold the parameters.
        if let Some(u) = self.tx_update[idx]
            .filter(|&u| self.engine.layout.same(self.update_log[u].client.0, to))
        {
            let (update, fp) = (self.update_log[u].clone(), self.update_fp[u]);
            self.fetch_landed(to, fp, now);
            if self.peers[to].node.model_store.insert(fp, update).is_none() {
                self.obs.last_progress = now;
                self.obs.note(to, now, "artifact.arrived");
            }
            // The artifact is here: any gave-up time still parked for it can
            // no longer be attributed to a recovery.
            self.gave_up_elapsed.remove(&(to, fp));
        }
        self.peers[to].node.admit(self.tx_log[idx].clone());
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
            // No live miner; idle until churn revives the chain, and forget
            // the last seal so the dead window is not retargeted on.
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
        if let Some(block) = self.peers[winner].node.seal(now.as_nanos()) {
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
            let block_bytes = 1024 + 256 * block.transactions.len() as u64;
            let block_idx = self.block_log.push(block, &self.peers[winner].node.chain);
            self.block_miner.push(winner);
            self.schedule_flood(winner, block_bytes, Parcel::Block(block_idx), now);
            self.try_aggregate(winner, now);
            // The winner imported its own block without a delivery event:
            // newly confirmed records may have made its merge ready.
            self.try_merge(winner, now);
        }
        let delay = self.sample_race_delay();
        self.sched.schedule_after(delay, Event::SealBlock);
    }

    fn on_deliver_block(&mut self, to: usize, idx: usize, now: SimTime) {
        let reorgs = self.peers[to].node.import(idx, &self.block_log);
        self.note_reorgs(to, now, reorgs);
        self.chase_missing(to, self.block_miner[idx], now);
        self.try_aggregate(to, now);
        // Fresh confirmations may complete a pending tier-2 merge.
        self.try_merge(to, now);
    }

    fn on_deliver_agg(&mut self, to: usize, idx: usize, now: SimTime) {
        let hash = self.agg_log[idx].hash;
        self.agg_pulls.remove(&(to, hash));
        if self.peers[to].node.agg_store.insert(hash, idx).is_none() {
            self.obs.last_progress = now;
            self.obs.note(to, now, "agg.arrived");
        }
        self.try_merge(to, now);
    }

    /// Runs `peer`'s tier-1 aggregation and applies the result: anomaly
    /// instants, cutover note, publication, meters, the round record, the
    /// controller's decision point, then park-for-merge or advance.
    fn try_aggregate(&mut self, peer: usize, now: SimTime) {
        let p = &mut self.peers[peer];
        let round = p.current_round;
        if !self.live[peer] || p.done(self.cfg.rounds) || p.training {
            return;
        }
        let Some(trained_at) = p.train_done_at else {
            return;
        };
        let test = &self.peer_tests[peer];
        let (dropped, done) =
            self.engine
                .tier1(&mut p.node, peer, round, &self.live, test, &self.block_log);
        for &(from, (_, event)) in &dropped {
            self.obs.tel.instant(now, event, peer as u32, || {
                vec![("round", round.into()), ("from", from.to_string().into())]
            });
        }
        let Some(done) = done else {
            return; // nothing aggregatable yet; wait for more submissions
        };
        if self.engine.policy.cutover_fires(round) {
            // The replay cutover engaging is forward motion, not silence:
            // note it on the progress clock (and in telemetry) so the
            // watchdog cannot kill a run mid-switch.
            let strategy = self.engine.policy.at(round).strategy;
            self.obs.last_progress = now;
            self.obs
                .tel
                .instant(now, "policy.switched", peer as u32, || {
                    let decision = format!("replay-cutover strategy={strategy:?}");
                    vec![("round", round.into()), ("decision", decision.into())]
                });
        }
        self.publish_aggregate(peer, round, &done, now);
        let Aggregated {
            outcome,
            usable,
            fingerprints,
            members,
            weight,
        } = done;
        let combos = outcome.candidates.with_owner(ClientId(peer));
        let chosen = outcome.combination.label(Some(ClientId(peer)));

        let wait = now.saturating_since(trained_at);
        self.obs.aggregated(peer, now);
        self.obs.metrics.observe("wait_secs", wait.as_secs_f64());
        self.obs
            .tel
            .instant(now, "round.aggregated", peer as u32, || {
                vec![
                    ("round", round.into()),
                    ("wait_secs", wait.as_secs_f64().into()),
                    ("updates", (usable.len() as u64).into()),
                    ("chosen", chosen.clone().into()),
                ]
            });
        // Age-of-block freshness of the consumed updates.
        let mut age_total = SimDuration::ZERO;
        let mut age_max = SimDuration::ZERO;
        for fp in &fingerprints {
            if let Some(&(_, published)) = self.published.get(fp) {
                let age = now.saturating_since(published);
                self.obs
                    .metrics
                    .observe("staleness_secs", age.as_secs_f64());
                age_total += age;
                age_max = age_max.max(age);
            }
        }
        let p = &mut self.peers[peer];
        p.records.push(PeerRoundRecord {
            round,
            combos,
            chosen,
            chosen_accuracy: outcome.score,
            wait,
            aggregated_at: now,
            updates_used: usable.len(),
            update_age_mean: age_total / usable.len() as u64,
            update_age_max: age_max,
            dropped: dropped
                .iter()
                .map(|(client, (reason, _))| format!("{client}:{reason}"))
                .collect(),
        });
        p.train_done_at = None;
        self.consult_controller(peer, now);

        if self.engine.layout.hierarchical() {
            // Park the round: the merge, not this aggregation, advances it.
            self.peers[peer].tier1 = Some(Tier1Pending {
                round,
                done_at: now,
                weight,
                members,
                params: outcome.params,
            });
            self.try_merge(peer, now);
        } else {
            self.peers[peer].global_params = outcome.params;
            self.advance(peer, round, now);
        }
    }

    /// Publishes `peer`'s `record_aggregate` transaction for `round`: the
    /// fingerprint of `params` and a variable-width mask over `members`, so
    /// client indices past 31 are preserved verbatim. Returns the fingerprint.
    fn record_aggregate(
        &mut self,
        peer: usize,
        round: u32,
        members: impl IntoIterator<Item = usize>,
        params: &[f32],
        now: SimTime,
    ) -> H256 {
        let mask = ComboMask::from_members(members);
        let hash = sha256(&encode_params(params));
        self.publish_own_tx(peer, now, |key, nonce| {
            record_aggregate_tx(round, mask, hash, registry_address(), key, nonce)
        });
        hash
    }

    /// Puts `peer`'s tier-1 aggregate on chain. In a flat run every peer
    /// records. In a hierarchical run only the committee *leader* — its
    /// lowest-indexed active member — records, and also publishes the
    /// aggregate itself: the cross-committee artifact every peer pulls for
    /// its tier-2 merge (C such artifacts per round replace N model payloads
    /// — the tier-2 half of the hierarchical traffic win).
    fn publish_aggregate(&mut self, peer: usize, round: u32, agg: &Aggregated, now: SimTime) {
        let (members, params) = (agg.members.iter().copied(), &agg.outcome.params);
        let layout = &self.engine.layout;
        if !layout.hierarchical() {
            self.record_aggregate(peer, round, members, params, now);
            return;
        }
        let leads =
            (0..self.live.len()).find(|&i| self.live[i] && layout.same(i, peer)) == Some(peer);
        // Everyone passes through the bracket: a non-leader books zero bytes,
        // which still creates the tier-2 counters.
        self.as_tier2_traffic(|run| {
            if leads {
                let hash = run.record_aggregate(peer, round, members, params, now);
                let aidx = run.agg_log.len();
                run.agg_log.push(AggArtifact {
                    hash,
                    params: params.clone(),
                    weight: agg.weight,
                });
                run.peers[peer].node.agg_store.insert(hash, aidx);
                run.schedule_flood(peer, run.cfg.payload_bytes, Parcel::Agg(aidx), now);
            }
        });
    }

    /// Adaptive-controller decision point, called right after `peer`
    /// recorded a round: the *first* aggregation of each round feeds the
    /// rule one observation (see [`super::round::PolicyEngine::observe`]);
    /// its decisions re-tune rounds `round + 1` onward. A quiet rule leaves
    /// every meter, clock and RNG stream untouched.
    fn consult_controller(&mut self, peer: usize, now: SimTime) {
        let Some(rec) = self.peers[peer].records.last() else {
            return;
        };
        let round = rec.round;
        let bar = self.engine.layout.bar(peer, &self.live);
        for d in self.engine.policy.observe(rec, bar, now) {
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

    /// Runs the tier-2 merge of a peer parked between the tiers (a no-op for
    /// anyone else, so for every peer of a flat run) and applies the result:
    /// pulls the aggregates still missing, or adopts the merged model and
    /// advances the round. Only the highest-indexed active peer records the
    /// merge on chain, with the union mask of every consumed committee (its
    /// key may also have authored a tier-1 record for the round, which is
    /// benign: record selection prefers the earlier, artifact-backed one).
    fn try_merge(&mut self, peer: usize, now: SimTime) {
        let p = &mut self.peers[peer];
        let Some(t1) = p.tier1.as_ref().filter(|_| self.live[peer]) else {
            return;
        };
        let (round, parked_at) = (t1.round, t1.done_at);
        let merge = self.engine.tier2(
            &mut p.node,
            peer,
            t1,
            &self.live,
            &self.agg_log,
            &self.block_log,
        );
        let (params, members) = match merge {
            Tier2::Waiting { wanted } => return self.pull_aggregates(peer, wanted, now),
            Tier2::Merged { params, members } => (params, members),
        };
        if self.live.iter().rposition(|a| *a) == Some(peer) {
            self.as_tier2_traffic(|run| {
                run.record_aggregate(peer, round, members, &params, now);
            });
        }
        let p = &mut self.peers[peer];
        p.global_params = params;
        p.tier1 = None;
        let merge_wait = now.saturating_since(parked_at);
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
        self.advance(peer, round, now);
    }
}

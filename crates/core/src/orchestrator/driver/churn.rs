//! The driver's fault timeline — partitions, churn, hash-rate shocks — and
//! the liveness watchdog.

use std::fmt::Write as _;

use blockfed_net::NodeId;
use blockfed_sim::SimTime;

use super::{register_tx, registry_address, Event, Fault, Run};

impl Run<'_> {
    pub(super) fn on_fault(&mut self, idx: usize, now: SimTime) {
        self.pending_faults -= 1;
        let fault = self.cfg.timeline[idx].fault.clone();
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
                self.live[peer] = false;
                self.obs
                    .churn(peer, now, "churn.leave", self.peers[peer].current_round);
                self.recheck_waiters(now);
            }
            Fault::PeerJoin { peer } => self.on_join(peer, now),
            Fault::PeerCrash { peer } => self.on_crash(peer, now),
            Fault::PeerRestart { peer } => self.on_restart(peer, now),
        }
    }

    /// Imports every block sealed so far into `peer`'s chain — how a joiner
    /// or a restarted peer catches up. Returns the synced height.
    fn sync_chain(&mut self, peer: usize, now: SimTime) -> u64 {
        let reorgs = self.peers[peer].node.sync(&self.block_log);
        self.note_reorgs(peer, now, reorgs);
        self.peers[peer].node.chain.head_block().number()
    }

    /// The active population shrank: wait policies now measure against fewer
    /// peers, and a committee with no live member and no record is no longer
    /// needed — re-check every waiter, or wait-all deadlocks on the departed.
    fn recheck_waiters(&mut self, now: SimTime) {
        for p in 0..self.peers.len() {
            if self.live[p] {
                self.try_aggregate(p, now);
                self.try_merge(p, now);
            }
        }
    }

    fn on_join(&mut self, peer: usize, now: SimTime) {
        self.live[peer] = true;
        // 1. Sync: download every block sealed so far.
        let synced_height = self.sync_chain(peer, now);
        // 2. Register on the FL registry.
        self.publish_own_tx(peer, now, |key, nonce| {
            register_tx(registry_address(), key, nonce)
        });
        // 3. Enter the *earliest* round still in progress. Any later one
        //    would starve a live `wait-all` laggard forever: the joiner
        //    inflates the population the laggard measures against but would
        //    never submit for the laggard's round.
        let join_round = (0..self.peers.len())
            .filter(|&i| i != peer && self.live[i])
            .map(|i| self.peers[i].current_round)
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
        self.live[peer] = false;
        self.peers[peer].train_gen += 1;
        self.peers[peer].node.crash();
        let tel = &mut self.obs.tel;
        self.fetches.retain(|(who, _), st| {
            if *who == peer {
                tel.end(now, "fetch", peer as u32, st.span, || {
                    vec![("aborted", true.into())]
                });
            }
            *who != peer
        });
        // Parked gave-up time dies with the process too.
        self.gave_up_elapsed.retain(|(who, _), _| *who != peer);
        self.obs.crash_aborts(peer, now);
        self.obs
            .churn(peer, now, "churn.crash", self.peers[peer].current_round);
        self.recheck_waiters(now);
    }

    fn on_restart(&mut self, peer: usize, now: SimTime) {
        self.live[peer] = true;
        // Resync like a joiner; this also refills the fresh mempool with the
        // peer's own pending transactions.
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
            // path, which may be the wait between tier 1 and the merge.
            self.obs.resume_wait(peer, now, round);
            self.try_aggregate(peer, now);
            self.try_merge(peer, now);
        }
    }

    pub(super) fn on_watchdog(&mut self, now: SimTime) {
        let cfg = self.cfg;
        let timeout = cfg.watchdog.expect("watchdog event implies a timeout");
        let last_progress = self.obs.last_progress;
        let idle = now.saturating_since(last_progress);
        let unfinished = |run: &Self, i: usize| run.live[i] && !run.peers[i].done(cfg.rounds);
        // A peer still training is a scheduled `TrainDone` — guaranteed
        // future progress — so a round legitimately waiting on a straggler
        // (the wait-all case the paper's title poses) is not a stall, no
        // matter how quiet the clock has been.
        let training_pending =
            (0..self.peers.len()).any(|i| unfinished(self, i) && self.peers[i].training);
        if self.pending_faults > 0 || training_pending || idle < timeout {
            self.obs.tel.run_instant(now, "watchdog.check", || {
                vec![("idle_secs", idle.as_secs_f64().into())]
            });
            // Re-arm: checking twice per window bounds detection latency at
            // 1.5 timeouts.
            self.sched.schedule_after(timeout / 2, Event::Watchdog);
            return;
        }
        let n_active = self.live.iter().filter(|a| **a).count();
        let mut detail = String::new();
        for i in 0..self.peers.len() {
            if !unfinished(self, i) {
                continue;
            }
            let peer = &mut self.peers[i];
            let round = peer.current_round;
            let subs = peer.node.confirmed(round, &self.block_log);
            let held = &peer.node.model_store;
            let arrived = subs
                .iter()
                .filter(|s| held.contains_key(&s.model_hash))
                .count();
            let _ = write!(
                detail,
                " peer={i} round={round} training={} confirmed={} \
                 arrived={arrived} bar={n_active}",
                peer.training,
                subs.len(),
            );
            // Cite the peer's telemetry: what it last did...
            if let Some((at, what)) = self.obs.last_event[i] {
                let _ = write!(detail, " last={what}@{at}");
            }
            // ...every payload fetch still pending...
            for ((_, fp), st) in self.fetches.iter().filter(|((p, _), _)| *p == i) {
                let _ = write!(detail, " fetch={}@a{}", fp.short(), st.attempt);
            }
            // ...and whose confirmed round artifacts never arrived (the
            // usual wait-all culprits).
            let missing: Vec<String> = subs
                .iter()
                .filter(|s| !held.contains_key(&s.model_hash))
                .filter_map(|s| self.engine.clients.get(&s.sender).map(|c| c.to_string()))
                .collect();
            if !missing.is_empty() {
                let _ = write!(detail, " missing={}", missing.join(","));
            }
        }
        // Cite the policy the stuck round actually runs under — a controller
        // may have moved it off the configured one.
        let stuck_round = (0..self.peers.len())
            .filter(|&i| unfinished(self, i))
            .map(|i| self.peers[i].current_round)
            .min()
            .unwrap_or(1);
        let diag = format!(
            "stalled: no progress for {timeout} under {:?} \
             (last progress at {last_progress}):{detail}",
            self.engine.policy.at(stuck_round).wait
        );
        self.obs.tel.run_instant(now, "watchdog.stalled", || {
            vec![
                ("idle_secs", idle.as_secs_f64().into()),
                ("detail", diag.clone().into()),
            ]
        });
        self.stall = Some(diag);
    }
}

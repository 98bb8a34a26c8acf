//! The driver's network plumbing: floods, targeted pulls, and the fetch
//! episodes that recover model artifacts a flood failed to deliver.
//!
//! A fetch episode opens when a block confirms a submission whose artifact
//! the importing peer never received (the gossip crossed a partition, was lost
//! to packet drops, or the peer joined late). The block's miner is asked
//! first; each attempt's `FetchTimeout` then retries with exponential backoff,
//! rotating over every active holder, until the artifact lands or the attempt
//! budget runs out — after which the next confirming block restarts the chase
//! with the time already spent carried over, so `recovery_ms` meters all of
//! it. One episode per (peer, artifact) is open at a time.

use blockfed_crypto::H256;
use blockfed_net::{FloodScratch, GossipMode, NodeId, ANNOUNCE_BYTES};
use blockfed_sim::{RngHub, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use super::{DecentralizedConfig, Event, Fault, Run};

/// What a flood carries: decides the delivery event, whether the payload is
/// an artifact (announced and pulled under announce/fetch rather than pushed),
/// and who pulls it.
#[derive(Debug, Clone, Copy)]
pub enum Parcel {
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

/// A fetch episode gives up after this many timeout-driven retries.
const MAX_FETCH_ATTEMPTS: u32 = 8;

/// Exponential backoff before fetch attempt `attempt + 1`: 250 ms doubling
/// per attempt with ±10% jitter, capped at 8 s.
fn fetch_backoff(attempt: u32, rng: &mut impl Rng) -> SimDuration {
    let base = 0.25 * f64::from(1u32 << attempt.min(6));
    let jitter = rng.gen_range(0.9..1.1);
    SimDuration::from_secs_f64((base * jitter).min(8.0))
}

/// One open fetch episode.
pub(super) struct FetchState {
    pub attempt: u32,
    /// Who was asked first: the confirming block's miner.
    primary: usize,
    first_at: SimTime,
    /// Active fetch time earlier gave-up episodes spent on this artifact.
    carried: SimDuration,
    payload_bytes: u64,
    tx_idx: usize,
    /// The episode's open telemetry span.
    pub span: u64,
}

/// The run-wide gossip plumbing: the dissemination mode, the traffic meters
/// it splits bytes across, the reusable flood-routing scratch, and the relay
/// paths of deliveries still in flight.
pub(super) struct GossipState {
    mode: GossipMode,
    /// Whether relay paths must be recorded for in-flight cut checks: only a
    /// timeline that can sever a link or kill a relay ever consults one, so
    /// other runs skip the per-delivery path clone (an empty path always
    /// passes `Network::path_open` and [`relays_alive`]).
    track_routes: bool,
    scratch: FloodScratch,
    /// Relay path of every scheduled delivery (for in-flight cut checks).
    route_log: Vec<Vec<(NodeId, NodeId)>>,
    pub gossip_bytes: u64,
    pub fetch_bytes: u64,
    /// Deliveries lost in transit: per-edge packet loss on the relay tree
    /// plus in-flight partition/relay-crash cuts.
    pub dropped_msgs: u64,
    /// Dedicated stream for [`GossipMode::Epidemic`]'s neighbor sampling,
    /// drawn from only in that mode (an unused stream perturbs nothing).
    epidemic_rng: StdRng,
}

impl GossipState {
    pub fn new(cfg: &DecentralizedConfig, hub: &RngHub) -> Self {
        use Fault::{Partition, PeerCrash, PeerLeave};
        let cuts = |f: &Fault| matches!(f, Partition { .. } | PeerLeave { .. } | PeerCrash { .. });
        GossipState {
            mode: cfg.gossip,
            track_routes: cfg.timeline.iter().any(|tf| cuts(&tf.fault)),
            scratch: FloodScratch::new(),
            route_log: Vec::new(),
            gossip_bytes: 0,
            fetch_bytes: 0,
            dropped_msgs: 0,
            epidemic_rng: hub.stream("epidemic"),
        }
    }
}

/// Whether every *relay* node on a recorded route is still alive: the relays
/// are the path's interior nodes — the endpoint each consecutive edge pair
/// shares. A delivery whose relay crash-stopped while the message was in
/// flight is lost, mirroring the partition semantics of `Network::path_open`.
fn relays_alive(path: &[(NodeId, NodeId)], live: &[bool]) -> bool {
    path.windows(2).all(|w| {
        let (a, b) = w[0];
        let shared = if a == w[1].0 || a == w[1].1 { a } else { b };
        live[shared.0]
    })
}

impl Run<'_> {
    /// Schedules one flood's deliveries to currently active peers, records
    /// each delivery's relay path when the timeline can cut one mid-flight,
    /// and meters the traffic as [`DecentralizedConfig::gossip`] describes:
    /// [`GossipMode::Full`] pushes `bytes` once per relay edge;
    /// [`GossipMode::AnnounceFetch`] floods an artifact as a digest-sized
    /// announcement per edge plus one targeted pull per *pulling* peer over
    /// its shortest path; [`GossipMode::Epidemic`] announces every message
    /// larger than an announcement and meters `ANNOUNCE_BYTES ×` the
    /// transmissions of a fanout-sampled rumor sweep instead of the per-edge
    /// cost. The delivery schedule is the flood's shortest-path tree in every
    /// mode, so only the meters differ.
    pub fn schedule_flood(&mut self, origin: usize, bytes: u64, parcel: Parcel, now: SimTime) {
        let artifact = matches!(parcel, Parcel::Model(_) | Parcel::Agg(_));
        // Crash-stopped and dormant peers neither receive nor relay: route
        // over the active subgraph.
        self.gs.scratch.set_avoid(self.live.iter().map(|a| !a));
        // An artifact no larger than the announcement is inlined in it —
        // pulling it separately would only add a request round and
        // double-count bytes — so announcing engages strictly above that size,
        // which keeps `gossip_bytes(AnnounceFetch) ≤ gossip_bytes(Full)`.
        let announce = match (artifact, self.gs.mode) {
            (true, GossipMode::AnnounceFetch) if bytes > ANNOUNCE_BYTES => Some(ANNOUNCE_BYTES),
            (_, GossipMode::Epidemic { .. }) if bytes > ANNOUNCE_BYTES => Some(ANNOUNCE_BYTES),
            _ => None,
        };
        self.sched.reserve(self.network.len());
        let (gs, sched, layout) = (&mut self.gs, &mut self.sched, &self.engine.layout);
        let stats = self.network.flood_with(
            NodeId(origin),
            bytes,
            &mut self.net_rng,
            &mut gs.scratch,
            |node, delay, path| {
                let to = node.0;
                // Only the sender's committee pulls a model payload: everyone
                // else sees the announcement (and the minable digest
                // transaction it carries) but never fetches the parameters —
                // the tier-1 half of the hierarchical traffic win.
                let pulls = !matches!(parcel, Parcel::Model(_)) || layout.same(to, origin);
                if announce.is_some() && pulls {
                    gs.fetch_bytes += bytes * path.len() as u64;
                }
                let route = gs.route_log.len();
                let kept = if gs.track_routes { path } else { &[] };
                gs.route_log.push(kept.to_vec());
                sched.schedule_after(delay, Event::Deliver { to, route, parcel });
            },
        );
        // Every delivery path lies on the flood's shortest-path tree and each
        // reached node contributes exactly its own tree edge, so distinct
        // relay edges = deliveries. Lost deliveries never crossed their last
        // edge: they meter no bytes, only the drop count.
        match self.gs.mode {
            GossipMode::Epidemic { fanout } if announce.is_some() => {
                // The rumor sweep reuses the flood scratch (its avoid mask is
                // already the active-peer mask) and draws only from the
                // epidemic stream, so the flood schedule above is untouched.
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

    /// Pulls `parcel` (`bytes` on the wire) from `source` to `to` over the
    /// currently-open active subgraph, sampling per-edge loss like any other
    /// transmission. Unless `to` is unreachable or the pull was lost in
    /// transit, meters it, records its path and schedules the delivery;
    /// returns the arrival delay and the bytes metered.
    fn schedule_pull(
        &mut self,
        source: usize,
        to: usize,
        bytes: u64,
        parcel: Parcel,
    ) -> Option<(SimDuration, u64)> {
        self.gs.scratch.set_avoid(self.live.iter().map(|a| !a));
        let track_routes = self.gs.track_routes;
        let mut found = None;
        let _ = self.network.flood_with(
            NodeId(source),
            bytes,
            &mut self.net_rng,
            &mut self.gs.scratch,
            |node, delay, path| {
                if node.0 == to {
                    let kept = if track_routes { path } else { &[] };
                    found = Some((delay, path.len() as u64, kept.to_vec()));
                }
            },
        );
        let (delay, hops, path) = found?;
        let metered = bytes * hops;
        match self.gs.mode {
            GossipMode::Full => self.gs.gossip_bytes += metered,
            GossipMode::AnnounceFetch | GossipMode::Epidemic { .. } => {
                self.gs.fetch_bytes += metered;
            }
        }
        let route = self.gs.route_log.len();
        self.gs.route_log.push(path);
        self.sched
            .schedule_after(delay, Event::Deliver { to, route, parcel });
        Some((delay, metered))
    }

    /// Whether delivery `route` survived its flight. One whose link was
    /// partitioned or whose relay crash-stopped meanwhile is lost: counted,
    /// traced, and `false`.
    pub fn route_open(&mut self, route: usize, to: usize, parcel: Parcel, now: SimTime) -> bool {
        let path = &self.gs.route_log[route];
        if self.network.path_open(path) && relays_alive(path, &self.live) {
            return true;
        }
        let (kind, idx) = match parcel {
            Parcel::Tx(idx) | Parcel::Model(idx) => ("tx", idx),
            Parcel::Block(idx) => ("block", idx),
            Parcel::Agg(idx) => ("agg", idx),
        };
        self.obs.tel.instant(now, "net.dropped", to as u32, || {
            vec![("kind", kind.into()), ("idx", (idx as u64).into())]
        });
        self.gs.dropped_msgs += 1;
        false
    }

    /// Opens a fetch episode for every submission of `to`'s round that its
    /// chain confirms — it just imported a block `miner` sealed — but whose
    /// artifact it does not hold.
    pub fn chase_missing(&mut self, to: usize, miner: usize, now: SimTime) {
        let round = self.peers[to].current_round;
        let subs = self.peers[to].node.confirmed(round, &self.block_log);
        let held = &self.peers[to].node.model_store;
        let missing: Vec<(H256, u64, usize)> = subs
            .iter()
            .filter(|s| !held.contains_key(&s.model_hash))
            // Hierarchical runs only chase artifacts of the peer's own
            // committee — the rest were never meant to arrive.
            .filter(|s| self.engine.in_committee(&s.sender, to))
            .filter_map(|s| {
                let (tx_idx, _) = *self.published.get(&s.model_hash)?;
                Some((s.model_hash, s.payload_bytes, tx_idx))
            })
            .collect();
        for (fp, payload_bytes, tx_idx) in missing {
            if self.fetches.contains_key(&(to, fp)) || miner == to {
                continue;
            }
            let span = self.obs.tel.begin(now, "fetch", to as u32, || {
                vec![
                    ("from", (miner as u64).into()),
                    ("bytes", payload_bytes.into()),
                    ("round", round.into()),
                ]
            });
            self.obs.note(to, now, "fetch.start");
            // A restarted chase resumes the recovery clock where the gave-up
            // episodes left it (the idle gap between them stays excluded).
            let carried = self.gave_up_elapsed.remove(&(to, fp));
            self.fetches.insert(
                (to, fp),
                FetchState {
                    attempt: 0,
                    primary: miner,
                    first_at: now,
                    carried: carried.unwrap_or(SimDuration::ZERO),
                    payload_bytes,
                    tx_idx,
                    span,
                },
            );
            self.launch_fetch(Some(miner), to, fp, 0);
        }
    }

    /// Launches attempt `attempt` of the open fetch episode `(to, fp)` from
    /// `source` (`None`: nobody can serve it right now), and always schedules
    /// the attempt's deadline: past the expected arrival when the pull is on
    /// its way (a clean delivery then finds the episode resolved and the
    /// timeout does nothing), a plain backoff when the pull was lost or no
    /// holder is reachable.
    fn launch_fetch(&mut self, source: Option<usize>, to: usize, fp: H256, attempt: u32) {
        let st = &self.fetches[&(to, fp)];
        let (bytes, idx) = (st.payload_bytes, st.tx_idx);
        let arrival = source
            .and_then(|from| self.schedule_pull(from, to, bytes, Parcel::Model(idx)))
            .map_or(SimDuration::ZERO, |(delay, _)| delay);
        let deadline = arrival + fetch_backoff(attempt, &mut self.fetch_rng);
        self.sched
            .schedule_after(deadline, Event::FetchTimeout { to, fp, attempt });
    }

    /// Closes `to`'s fetch episode for `fp`, if one is open, as recovered.
    pub fn fetch_landed(&mut self, to: usize, fp: H256, now: SimTime) {
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
    }

    /// Ends `to`'s fetch episode for `fp` without the artifact, flagged `why`.
    fn close_fetch(
        &mut self,
        to: usize,
        fp: H256,
        now: SimTime,
        why: &'static str,
    ) -> Option<FetchState> {
        let st = self.fetches.remove(&(to, fp))?;
        let attrs = || vec![(why, true.into())];
        self.obs.tel.end(now, "fetch", to as u32, st.span, attrs);
        Some(st)
    }

    pub fn on_fetch_timeout(&mut self, to: usize, fp: H256, attempt: u32, now: SimTime) {
        // Resolved episodes and superseded deadlines are no-ops, so the
        // timeout a successful pull leaves behind costs nothing — and draws
        // no randomness.
        let live = matches!(self.fetches.get(&(to, fp)), Some(st) if st.attempt == attempt);
        if !live {
            return;
        }
        if !self.live[to] || self.peers[to].node.model_store.contains_key(&fp) {
            self.close_fetch(to, fp, now, "superseded");
            return;
        }
        if attempt >= MAX_FETCH_ATTEMPTS {
            if let Some(st) = self.close_fetch(to, fp, now, "gave_up") {
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
            .filter(|&i| i != to && self.live[i])
            .filter(|&i| self.peers[i].node.model_store.contains_key(&fp))
            .collect();
        if holders.is_empty() {
            return self.launch_fetch(None, to, fp, next); // churn; re-check later
        }
        let primary = self.fetches[&(to, fp)].primary;
        let start = holders.iter().position(|&h| h == primary).unwrap_or(0);
        let source = holders[(start + next as usize - 1) % holders.len()];
        self.fetch_retries += 1;
        self.obs.tel.instant(now, "fetch.retry", to as u32, || {
            vec![("from", (source as u64).into()), ("attempt", next.into())]
        });
        self.obs.note(to, now, "fetch.retry");
        self.launch_fetch(Some(source), to, fp, next);
    }

    /// Tier-2 recovery: a committee's record is confirmed on `peer`'s chain
    /// but its aggregate never arrived (lost flood, late join). Pull each
    /// `wanted` aggregate from its lowest-indexed active holder over the
    /// shortest open path, guarded by the expected arrival of any pull
    /// already in flight.
    pub fn pull_aggregates(&mut self, peer: usize, wanted: Vec<H256>, now: SimTime) {
        for hash in wanted {
            if self
                .agg_pulls
                .get(&(peer, hash))
                .is_some_and(|&exp| now < exp)
            {
                continue;
            }
            let holder = (0..self.peers.len())
                .filter(|&i| i != peer && self.live[i])
                .find_map(|i| self.peers[i].node.agg_store.get(&hash).map(|&idx| (i, idx)));
            let Some((src, idx)) = holder else {
                continue;
            };
            let bytes = self.cfg.payload_bytes;
            if let Some((delay, metered)) = self.schedule_pull(src, peer, bytes, Parcel::Agg(idx)) {
                self.obs.metrics.add("tier2_fetch_bytes", metered);
                self.agg_pulls.insert((peer, hash), now + delay);
            }
        }
    }
}

//! The driver's observability state: telemetry, metrics and the watchdog's
//! progress clock.

use blockfed_sim::SimTime;
use blockfed_telemetry::{MetricSet, Telemetry, TraceSink};

/// The nested spans a peer's round is traced as — `round` ⊃ `round.train` →
/// `round.wait` — as indices into a peer's span slots and their names.
const ROUND: usize = 0;
const TRAIN: usize = 1;
const WAIT: usize = 2;
const SPAN_NAMES: [&str; 3] = ["round", "round.train", "round.wait"];

/// The run's observability state: the structured [`Telemetry`] emitter, the
/// folded [`MetricSet`], the watchdog's progress clock, and the open-span
/// bookkeeping that turns discrete events into per-peer round timelines. The
/// span slots are private to the methods below: the event loop says what
/// happened to a peer, never which span to open or close.
///
/// Span slots are updated unconditionally — ids are allocated even under a
/// `NoopSink` — so instrumented state never depends on whether anyone is
/// listening (the invariance proof relies on this).
pub(super) struct Obs<'s> {
    pub tel: Telemetry<'s>,
    pub metrics: MetricSet,
    /// Virtual time of the last liveness-relevant event (see
    /// [`super::DecentralizedConfig::watchdog`]).
    pub last_progress: SimTime,
    /// Most recent telemetry event per peer, cited by the watchdog's stall
    /// diagnostic so a stuck run names what each peer last did.
    pub last_event: Vec<Option<(SimTime, &'static str)>>,
    /// Open spans per peer: `(span id, opened at)` per slot.
    spans: Vec<[Option<(u64, SimTime)>; 3]>,
}

impl<'s> Obs<'s> {
    pub fn new(n: usize, sink: &'s mut dyn TraceSink) -> Self {
        Obs {
            tel: Telemetry::new(sink),
            metrics: MetricSet::new(),
            last_progress: SimTime::ZERO,
            last_event: vec![None; n],
            spans: vec![[None; 3]; n],
        }
    }

    /// Notes a peer-attributed event for the watchdog diagnostic.
    pub fn note(&mut self, peer: usize, now: SimTime, what: &'static str) {
        self.last_event[peer] = Some((now, what));
    }

    fn open(&mut self, peer: usize, slot: usize, now: SimTime, round: u32) {
        let attrs = || vec![("round", round.into())];
        let id = self.tel.begin(now, SPAN_NAMES[slot], peer as u32, attrs);
        self.spans[peer][slot] = Some((id, now));
    }

    /// Closes `peer`'s span in `slot` if open — flagged `why` when it did not
    /// end normally — and returns when it was opened.
    fn close(
        &mut self,
        peer: usize,
        slot: usize,
        now: SimTime,
        why: Option<&'static str>,
    ) -> Option<SimTime> {
        let (id, opened) = self.spans[peer][slot].take()?;
        let attrs = || why.map(|w| (w, true.into())).into_iter().collect();
        self.tel.end(now, SPAN_NAMES[slot], peer as u32, id, attrs);
        Some(opened)
    }

    /// Opens the `round` and `round.train` spans as a peer starts (or, after
    /// a crash-restart, re-starts) training. A round span left open by a
    /// crash is resumed, not reopened.
    pub fn begin_training(&mut self, peer: usize, now: SimTime, round: u32) {
        if self.spans[peer][ROUND].is_none() {
            self.open(peer, ROUND, now, round);
        }
        self.open(peer, TRAIN, now, round);
        self.note(peer, now, "train.start");
    }

    /// Closes the train span and opens the wait span as the peer publishes
    /// its model — the instant the title's "wait or not to wait" clock
    /// starts ticking.
    pub fn training_done(&mut self, peer: usize, now: SimTime, round: u32) {
        if let Some(opened) = self.close(peer, TRAIN, now, None) {
            let secs = now.saturating_since(opened).as_secs_f64();
            self.metrics.observe("train_secs", secs);
        }
        self.open(peer, WAIT, now, round);
        self.note(peer, now, "train.done");
        self.last_progress = now;
    }

    /// Closes the wait and round spans as the peer aggregates.
    pub fn aggregated(&mut self, peer: usize, now: SimTime) {
        self.close(peer, WAIT, now, None);
        self.close(peer, ROUND, now, None);
        self.note(peer, now, "round.aggregated");
        self.last_progress = now;
    }

    /// Aborts a crashed peer's in-progress phase spans. The round span stays
    /// open: identity and round position survive a crash, so the round
    /// resumes when the peer restarts.
    pub fn crash_aborts(&mut self, peer: usize, now: SimTime) {
        self.close(peer, TRAIN, now, Some("aborted"));
        self.close(peer, WAIT, now, Some("aborted"));
    }

    /// Reopens the wait span of a peer that restarts after a crash having
    /// already published for its round (the crash aborted the original).
    pub fn resume_wait(&mut self, peer: usize, now: SimTime, round: u32) {
        if self.spans[peer][WAIT].is_none() {
            self.open(peer, WAIT, now, round);
        }
    }

    /// Marks a peer leaving the population (`churn.leave`, `churn.crash`).
    pub fn churn(&mut self, peer: usize, now: SimTime, name: &'static str, round: u32) {
        self.note(peer, now, name);
        self.tel
            .instant(now, name, peer as u32, || vec![("round", round.into())]);
    }

    /// Closes every span still open at run end (a stall, a dormant joiner
    /// that never fired, or simply the last settle instant).
    pub fn close_open_spans(&mut self, at: SimTime) {
        for peer in 0..self.spans.len() {
            for slot in [WAIT, TRAIN, ROUND] {
                self.close(peer, slot, at, Some("truncated"));
            }
        }
    }
}

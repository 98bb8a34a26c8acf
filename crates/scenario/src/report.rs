//! Scenario results: per-cell metrics, a rendered table, and the
//! machine-readable `BENCH_scenarios.json` feed for the perf trajectory.

use std::io;
use std::path::{Path, PathBuf};

use blockfed_fl::{Strategy, WaitPolicy};
use blockfed_report::Table;
use blockfed_telemetry::{Histogram, MetricSet};

/// The folded result of one scenario cell.
///
/// Equality ignores [`CellReport::wall_clock_secs`] (host timing noise), so
/// two runs of the same seed compare equal exactly when the *simulation* was
/// bit-identical.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's name (base name plus axis suffixes).
    pub name: String,
    /// Peer count.
    pub peers: usize,
    /// Communication rounds requested.
    pub rounds: u32,
    /// Wait policy in force.
    pub wait_policy: WaitPolicy,
    /// The strategy actually used (after the Consider→BestK cutover).
    pub strategy: Strategy,
    /// Compact name of the adaptive policy controller the cell ran under
    /// (`None` = the spec's static knobs, the paper's setting).
    pub controller: Option<String>,
    /// Master seed.
    pub seed: u64,
    /// Mean final-round accuracy across peers that completed ≥ 1 round.
    pub mean_final_accuracy: f64,
    /// Mean per-round aggregation wait (virtual seconds).
    pub mean_wait_secs: f64,
    /// Virtual time when the run settled.
    pub makespan_secs: f64,
    /// Fraction of sealed blocks that did not make the canonical chain.
    pub fork_rate: f64,
    /// Total bytes crossing links during gossip floods (announcements only
    /// under announce/fetch; full payloads under legacy full flooding).
    pub gossip_bytes: u64,
    /// Total bytes of targeted payload pulls (one artifact copy per
    /// receiving peer). Zero under legacy full flooding.
    pub fetch_bytes: u64,
    /// Counters, gauges, and per-phase distributions folded from the
    /// instrumented run: resilience meters (`dropped_msgs`, `fetch_retries`,
    /// `recovery_ms`, `stalled`) plus timing histograms (`wait_secs`,
    /// `train_secs`, `staleness_secs`, `fetch_ms`, `block_interval_secs`).
    /// Read by name with zero defaults; the named accessors below cover the
    /// meters older callers used as fields.
    pub metrics: MetricSet,
    /// Canonical blocks on peer 0's chain.
    pub blocks: usize,
    /// Total per-peer round records folded into the cell.
    pub records: usize,
    /// Highest participant index set in any on-chain aggregate mask
    /// (`None` when no aggregate confirmed). A value ≥ 32 certifies the cell
    /// ran through the variable-width (post-u32) combination-mask path.
    pub max_mask_bit: Option<u32>,
    /// Accuracy trajectory over virtual time: one `(completed_at_secs,
    /// mean_accuracy)` entry per communication round that anyone finished,
    /// in round order — the raw material of time-to-accuracy comparisons.
    pub round_accuracy: Vec<(f64, f64)>,
    /// Host wall-clock the cell took (excluded from equality).
    pub wall_clock_secs: f64,
}

impl PartialEq for CellReport {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.peers == other.peers
            && self.rounds == other.rounds
            && self.wait_policy == other.wait_policy
            && self.strategy == other.strategy
            && self.controller == other.controller
            && self.seed == other.seed
            && self.mean_final_accuracy == other.mean_final_accuracy
            && self.mean_wait_secs == other.mean_wait_secs
            && self.makespan_secs == other.makespan_secs
            && self.fork_rate == other.fork_rate
            && self.gossip_bytes == other.gossip_bytes
            && self.fetch_bytes == other.fetch_bytes
            && self.metrics == other.metrics
            && self.blocks == other.blocks
            && self.records == other.records
            && self.max_mask_bit == other.max_mask_bit
            && self.round_accuracy == other.round_accuracy
    }
}

impl CellReport {
    /// Deliveries lost to per-edge packet loss (flood relays and targeted
    /// pulls). Zero on lossless links.
    pub fn dropped_msgs(&self) -> u64 {
        self.metrics.counter("dropped_msgs")
    }

    /// Payload-fetch retries the loss-recovery machinery issued. Zero on
    /// lossless fault-free runs.
    pub fn fetch_retries(&self) -> u64 {
        self.metrics.counter("fetch_retries")
    }

    /// Mean virtual milliseconds from a fetch episode's first attempt to the
    /// artifact's arrival, over episodes that needed the retry machinery.
    /// `0.0` when nothing had to recover.
    pub fn recovery_ms(&self) -> f64 {
        self.metrics.gauge("recovery_ms")
    }

    /// Whether the liveness watchdog stopped the cell as stalled instead of
    /// letting it settle.
    pub fn stalled(&self) -> bool {
        self.metrics.gauge("stalled") != 0.0
    }

    /// Worst single aggregation wait (virtual seconds) any peer endured.
    pub fn wait_max_secs(&self) -> f64 {
        self.metrics
            .histogram("wait_secs")
            .map_or(0.0, Histogram::max)
    }

    /// Mean staleness (virtual seconds) of updates folded into aggregates.
    pub fn staleness_mean_secs(&self) -> f64 {
        self.metrics
            .histogram("staleness_secs")
            .map_or(0.0, Histogram::mean)
    }

    /// Knob changes the cell's adaptive controller applied. Zero on static
    /// (and noop-controller) cells.
    pub fn policy_switches(&self) -> u64 {
        self.metrics.counter("policy_switches")
    }

    /// Tier-2 committee merges completed across peers (hierarchical cells
    /// only; zero on flat cells).
    pub fn committee_rounds(&self) -> u64 {
        self.metrics.counter("committee_rounds")
    }

    /// Worst wait (virtual seconds) any peer spent between finishing its
    /// committee's tier-1 aggregate and completing the tier-2 cross-committee
    /// merge. `0.0` on flat cells.
    pub fn merge_wait_max_secs(&self) -> f64 {
        self.metrics
            .histogram("merge_wait_secs")
            .map_or(0.0, Histogram::max)
    }

    /// Flood bytes attributable to the committee tier (leader record floods,
    /// committee-aggregate announcements, tier-2 merge records) — a subset of
    /// [`CellReport::gossip_bytes`]. Zero on flat cells.
    pub fn tier2_gossip_bytes(&self) -> u64 {
        self.metrics.counter("tier2_gossip_bytes")
    }

    /// Pulled-payload bytes attributable to the committee tier
    /// (committee-aggregate pulls and their loss recovery) — a subset of
    /// [`CellReport::fetch_bytes`]. Zero on flat cells.
    pub fn tier2_fetch_bytes(&self) -> u64 {
        self.metrics.counter("tier2_fetch_bytes")
    }

    /// Virtual seconds until the cell's mean accuracy first reached
    /// `threshold` (the paper's speed-vs-precision currency). `None` if no
    /// round got there — which compares as *slower than* any reached time.
    pub fn time_to_accuracy(&self, threshold: f64) -> Option<f64> {
        self.round_accuracy
            .iter()
            .find(|&&(_, acc)| acc >= threshold)
            .map(|&(t, _)| t)
    }
}

/// The folded result of a whole scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The matrix (base spec) name.
    pub name: String,
    /// One report per cell, in matrix expansion order.
    pub cells: Vec<CellReport>,
}

impl ScenarioReport {
    /// Renders the per-cell metrics as an aligned table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("Scenario matrix — {}", self.name),
            &[
                "Cell",
                "Peers",
                "Policy",
                "Strategy",
                "Ctl",
                "Final acc",
                "Mean wait (s)",
                "Makespan (s)",
                "Fork rate",
                "Gossip (MB)",
                "Fetch (MB)",
                "Dropped",
                "Retries",
                "Wall (s)",
            ],
        );
        for c in &self.cells {
            table.row_owned(vec![
                c.name.clone(),
                c.peers.to_string(),
                c.wait_policy.to_string(),
                c.strategy.to_string(),
                c.controller.clone().unwrap_or_else(|| "-".into()),
                format!("{:.4}", c.mean_final_accuracy),
                format!("{:.2}", c.mean_wait_secs),
                format!("{:.1}", c.makespan_secs),
                format!("{:.3}", c.fork_rate),
                format!("{:.2}", c.gossip_bytes as f64 / 1e6),
                format!("{:.2}", c.fetch_bytes as f64 / 1e6),
                c.dropped_msgs().to_string(),
                c.fetch_retries().to_string(),
                format!("{:.2}", c.wall_clock_secs),
            ]);
        }
        table
    }

    /// Renders the speed-vs-precision comparison: per cell, the virtual time
    /// to first reach `threshold` mean accuracy (the wait-or-not-to-wait
    /// question in one number), alongside final accuracy and the knob changes
    /// an adaptive controller applied.
    pub fn time_to_accuracy_table(&self, threshold: f64) -> Table {
        let mut table = Table::new(
            format!("Time to {:.0}% accuracy — {}", threshold * 100.0, self.name),
            &["Cell", "Policy", "Ctl", "TTA (s)", "Final acc", "Switches"],
        );
        for c in &self.cells {
            table.row_owned(vec![
                c.name.clone(),
                c.wait_policy.to_string(),
                c.controller.clone().unwrap_or_else(|| "-".into()),
                c.time_to_accuracy(threshold)
                    .map_or_else(|| "never".into(), |t| format!("{t:.1}")),
                format!("{:.4}", c.mean_final_accuracy),
                c.policy_switches().to_string(),
            ]);
        }
        table
    }

    /// Serializes the report as JSON (the `BENCH_scenarios.json` shape: one
    /// object with a `scenario` name and a `cells` array of flat metrics).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.name)));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&c.name)));
            out.push_str(&format!("\"peers\": {}, ", c.peers));
            out.push_str(&format!("\"rounds\": {}, ", c.rounds));
            out.push_str(&format!(
                "\"wait_policy\": {}, ",
                json_str(&c.wait_policy.to_string())
            ));
            out.push_str(&format!(
                "\"strategy\": {}, ",
                json_str(&c.strategy.to_string())
            ));
            out.push_str(&format!(
                "\"controller\": {}, ",
                c.controller.as_deref().map_or("null".into(), json_str)
            ));
            out.push_str(&format!("\"seed\": {}, ", c.seed));
            out.push_str(&format!(
                "\"mean_final_accuracy\": {}, ",
                json_f64(c.mean_final_accuracy)
            ));
            out.push_str(&format!(
                "\"mean_wait_secs\": {}, ",
                json_f64(c.mean_wait_secs)
            ));
            out.push_str(&format!(
                "\"makespan_secs\": {}, ",
                json_f64(c.makespan_secs)
            ));
            out.push_str(&format!("\"fork_rate\": {}, ", json_f64(c.fork_rate)));
            out.push_str(&format!("\"gossip_bytes\": {}, ", c.gossip_bytes));
            out.push_str(&format!("\"fetch_bytes\": {}, ", c.fetch_bytes));
            out.push_str(&format!("\"dropped_msgs\": {}, ", c.dropped_msgs()));
            out.push_str(&format!("\"fetch_retries\": {}, ", c.fetch_retries()));
            out.push_str(&format!("\"recovery_ms\": {}, ", json_f64(c.recovery_ms())));
            out.push_str(&format!("\"stalled\": {}, ", c.stalled()));
            out.push_str(&format!(
                "\"wait_max_secs\": {}, ",
                json_f64(c.wait_max_secs())
            ));
            out.push_str(&format!(
                "\"staleness_mean_secs\": {}, ",
                json_f64(c.staleness_mean_secs())
            ));
            out.push_str(&format!("\"policy_switches\": {}, ", c.policy_switches()));
            out.push_str(&format!("\"committee_rounds\": {}, ", c.committee_rounds()));
            out.push_str(&format!(
                "\"merge_wait_max_secs\": {}, ",
                json_f64(c.merge_wait_max_secs())
            ));
            out.push_str(&format!(
                "\"tier2_gossip_bytes\": {}, ",
                c.tier2_gossip_bytes()
            ));
            out.push_str(&format!(
                "\"tier2_fetch_bytes\": {}, ",
                c.tier2_fetch_bytes()
            ));
            out.push_str(&format!(
                "\"round_accuracy\": [{}], ",
                c.round_accuracy
                    .iter()
                    .map(|&(t, a)| format!("[{}, {}]", json_f64(t), json_f64(a)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str(&format!("\"blocks\": {}, ", c.blocks));
            out.push_str(&format!("\"records\": {}, ", c.records));
            out.push_str(&format!(
                "\"max_mask_bit\": {}, ",
                c.max_mask_bit.map_or("null".into(), |b| b.to_string())
            ));
            out.push_str(&format!("\"metrics\": {}, ", c.metrics.to_json()));
            out.push_str(&format!(
                "\"wall_clock_secs\": {}",
                json_f64(c.wall_clock_secs)
            ));
            out.push_str(if i + 1 < self.cells.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`ScenarioReport::to_json`] to `dir/BENCH_scenarios.json`,
    /// creating the directory. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join("BENCH_scenarios.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str) -> CellReport {
        let mut metrics = MetricSet::new();
        metrics.add("dropped_msgs", 7);
        metrics.add("fetch_retries", 3);
        metrics.set_gauge("recovery_ms", 120.5);
        metrics.set_gauge("stalled", 0.0);
        metrics.observe("wait_secs", 1.0);
        metrics.observe("wait_secs", 1.5);
        metrics.observe("staleness_secs", 4.0);
        CellReport {
            name: name.into(),
            peers: 5,
            rounds: 2,
            wait_policy: WaitPolicy::FirstK(3),
            strategy: Strategy::BestK(3),
            controller: None,
            seed: 7,
            mean_final_accuracy: 0.5,
            mean_wait_secs: 1.25,
            makespan_secs: 100.0,
            fork_rate: 0.1,
            gossip_bytes: 1_000_000,
            fetch_bytes: 250_000,
            metrics,
            blocks: 12,
            records: 10,
            max_mask_bit: Some(4),
            round_accuracy: vec![(40.0, 0.3), (100.0, 0.5)],
            wall_clock_secs: 3.3,
        }
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let a = cell("a");
        let mut b = cell("a");
        b.wall_clock_secs = 99.0;
        assert_eq!(a, b);
        let mut c = cell("a");
        c.blocks = 13;
        assert_ne!(a, c);
        // The resilience meters are part of simulation identity.
        let mut d = cell("a");
        d.metrics.add("dropped_msgs", 1);
        assert_ne!(a, d);
        let mut e = cell("a");
        e.metrics.set_gauge("stalled", 1.0);
        assert_ne!(a, e);
    }

    #[test]
    fn meter_accessors_read_the_metric_set() {
        let c = cell("a");
        assert_eq!(c.dropped_msgs(), 7);
        assert_eq!(c.fetch_retries(), 3);
        assert_eq!(c.recovery_ms(), 120.5);
        assert!(!c.stalled());
        assert_eq!(c.wait_max_secs(), 1.5);
        assert_eq!(c.staleness_mean_secs(), 4.0);
        // Missing metrics read as zero, never panic.
        let mut bare = cell("b");
        bare.metrics = MetricSet::new();
        assert_eq!(bare.dropped_msgs(), 0);
        assert_eq!(bare.wait_max_secs(), 0.0);
        assert!(!bare.stalled());
        assert_eq!(bare.policy_switches(), 0);
        // Committee meters read zero on flat cells…
        assert_eq!(bare.committee_rounds(), 0);
        assert_eq!(bare.merge_wait_max_secs(), 0.0);
        assert_eq!(bare.tier2_gossip_bytes(), 0);
        assert_eq!(bare.tier2_fetch_bytes(), 0);
        // …and read the folded counters on hierarchical ones.
        let mut hier = cell("h");
        hier.metrics.add("committee_rounds", 4);
        hier.metrics.add("tier2_gossip_bytes", 512);
        hier.metrics.add("tier2_fetch_bytes", 2048);
        hier.metrics.observe("merge_wait_secs", 1.5);
        hier.metrics.observe("merge_wait_secs", 0.5);
        assert_eq!(hier.committee_rounds(), 4);
        assert_eq!(hier.merge_wait_max_secs(), 1.5);
        assert_eq!(hier.tier2_gossip_bytes(), 512);
        assert_eq!(hier.tier2_fetch_bytes(), 2048);
    }

    #[test]
    fn time_to_accuracy_walks_the_trajectory() {
        let c = cell("a"); // rounds at (40s, 0.3) and (100s, 0.5)
        assert_eq!(c.time_to_accuracy(0.25), Some(40.0));
        assert_eq!(c.time_to_accuracy(0.3), Some(40.0));
        assert_eq!(c.time_to_accuracy(0.4), Some(100.0));
        assert_eq!(c.time_to_accuracy(0.9), None, "never reached");
        // The trajectory and controller identity are part of cell equality.
        let mut d = cell("a");
        d.round_accuracy[1].1 = 0.6;
        assert_ne!(c, d);
        let mut e = cell("a");
        e.controller = Some("rule".into());
        assert_ne!(c, e);
        // The TTA table renders reached and never-reached cells.
        let report = ScenarioReport {
            name: "tta".into(),
            cells: vec![cell("fast"), cell("slow")],
        };
        let rendered = report.time_to_accuracy_table(0.4).to_string();
        assert!(rendered.contains("Time to 40% accuracy"));
        assert!(rendered.contains("100.0"));
        let rendered = report.time_to_accuracy_table(0.9).to_string();
        assert!(rendered.contains("never"));
    }

    #[test]
    fn json_shape_and_escaping() {
        let report = ScenarioReport {
            name: "demo \"quoted\"".into(),
            cells: vec![cell("one"), cell("two")],
        };
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"demo \\\"quoted\\\"\""));
        assert!(json.contains("\"name\": \"one\""));
        assert!(json.contains("\"mean_final_accuracy\": 0.5"));
        assert!(json.contains("\"max_mask_bit\": 4"));
        assert!(json.contains("\"wall_clock_secs\": 3.3"));
        assert!(json.contains("\"dropped_msgs\": 7"));
        assert!(json.contains("\"fetch_retries\": 3"));
        assert!(json.contains("\"recovery_ms\": 120.5"));
        assert!(json.contains("\"stalled\": false"));
        // Telemetry columns derived from the folded histograms.
        assert!(json.contains("\"wait_max_secs\": 1.5"));
        assert!(json.contains("\"staleness_mean_secs\": 4"));
        // Adaptive-policy columns: controller identity, switch count, and
        // the accuracy trajectory TTA is computed from.
        assert!(json.contains("\"controller\": null"));
        assert!(json.contains("\"policy_switches\": 0"));
        // Committee columns are always present (zero on flat cells).
        assert!(json.contains("\"committee_rounds\": 0"));
        assert!(json.contains("\"merge_wait_max_secs\": 0"));
        assert!(json.contains("\"tier2_gossip_bytes\": 0"));
        assert!(json.contains("\"tier2_fetch_bytes\": 0"));
        assert!(json.contains("\"round_accuracy\": [[40, 0.3], [100, 0.5]]"));
        // The full extensible metric set rides along as a nested object.
        assert!(json.contains("\"metrics\": {\"counters\":{"));
        assert!(json.contains("\"wait_secs\":{\"count\":2"));
        // Two cells, comma-separated.
        assert_eq!(json.matches("\"peers\": 5").count(), 2);
    }

    #[test]
    fn table_renders_all_cells() {
        let report = ScenarioReport {
            name: "t".into(),
            cells: vec![cell("one"), cell("two"), cell("three")],
        };
        let t = report.table();
        assert_eq!(t.len(), 3);
        assert!(t.to_string().contains("wait-3"));
    }

    #[test]
    fn json_carries_fetch_bytes() {
        let report = ScenarioReport {
            name: "t".into(),
            cells: vec![cell("one")],
        };
        assert!(report.to_json().contains("\"fetch_bytes\": 250000"));
    }

    #[test]
    fn json_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("blockfed-scn-{}", std::process::id()));
        let report = ScenarioReport {
            name: "disk".into(),
            cells: vec![cell("c")],
        };
        let path = report.write_json(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"scenario\": \"disk\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

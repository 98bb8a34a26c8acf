//! The blockfed benchmark: five cells that each load a different layer, the
//! end-to-end metrics a user of the simulator sees, and an outside-in
//! per-layer replay. `BENCHMARK.json` at the repository root is its contract;
//! `README.md` beside this package explains every workload and metric.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0   one untraced pass (end-to-end metrics)
//! benchmark --workload NAME --seed N --seconds S --trace 1   one traced pass (per-layer metrics)
//! benchmark [--seed N] [--seconds S] [--workload NAME]       every workload, one child process each
//!           [--traced]                                       … plus the traced pass of each
//!           [--selfcheck]                                    … twice over (A/A), compared against the bounds
//! ```
//!
//! A single pass prints every metric by name with its unit and ends with one
//! JSON line (`correct`, `attempted`, `failed`, `metrics`). It exits non-zero
//! when a correctness check fails. It is a closed loop with one client: one
//! process at a time, compute threads fixed to `min(nproc, 2)`.

mod census;
mod json;
mod measure;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one pass measures by default.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`: make exactly one pass in this process.
    trace: Option<bool>,
    traced: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: None,
        traced: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1 | --traced | --selfcheck]"
            );
            return ExitCode::from(2);
        }
    };
    let ok = match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => single_pass(workload, &args, trace),
        _ => all_workloads(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One pass of one workload in this process. Returns whether it was correct.
fn single_pass(workload: &Workload, args: &Args, trace: bool) -> bool {
    // One client, a fixed worker count: enough to cross the compute layer's
    // parallel paths, never more than the machine has.
    let threads = nproc().min(2);
    blockfed::compute::set_threads(threads);
    println!(
        "# blockfed benchmark: workload {} ({} pass), --seed {}, --seconds {}",
        workload.name,
        if trace { "traced" } else { "untraced" },
        args.seed,
        args.seconds
    );
    println!("# why: {}", workload.why);
    println!(
        "# closed loop, one client, one process; nproc={} compute.threads={threads}",
        nproc()
    );
    let (result, correct) = if trace {
        traced_report(workload, args)
    } else {
        untraced_report(workload, args)
    };
    println!("{}", result.render());
    correct
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn result_line(
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(String, Value)>,
) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn print_problems(problems: &[String]) {
    for p in problems {
        println!("PROBLEM: {p}");
    }
}

fn untraced_report(workload: &Workload, args: &Args) -> (Value, bool) {
    let e = measure::end_to_end(workload, args.seed, args.seconds);
    println!(
        "# host-time metrics are medians over {} cold reps, one sub-seed each; at this count \
         no percentile beyond the quartiles is supportable",
        e.reps.len()
    );
    let values = [
        ("run_s", e.run_s.median, Some(e.run_s)),
        ("setup_s", e.setup_s.median, Some(e.setup_s)),
        (
            "peer_rounds_per_s",
            e.peer_rounds_per_s.median,
            Some(e.peer_rounds_per_s),
        ),
        ("peak_rss_mb", e.peak_rss_mb, None),
        ("traffic_mb", e.traffic_mb.median, Some(e.traffic_mb)),
    ];
    let mut metrics = Vec::new();
    for (def, (name, value, summary)) in END_TO_END.iter().zip(values) {
        assert_eq!(def.name, name, "metric table out of step");
        let detail = summary.map_or(String::new(), |s| {
            format!("  {s}, spread {:.1}%", s.spread() * 100.0)
        });
        println!(
            "{:<20} {:>14.6} {:<6} ({} is better, bound {:.0}%){detail}",
            def.name,
            value,
            def.unit,
            def.better,
            def.bound * 100.0
        );
        metrics.push((def.name.to_string(), metric_value(value, def.unit)));
    }
    for (rep, (seed, sim)) in e.reps.iter().enumerate() {
        println!(
            "sim_digest rep={rep} seed={seed} {} records={} final_accuracy={:.4} \
             sim_wait_s={:.4} sim_makespan_s={:.3} gossip_bytes={} fetch_bytes={}",
            sim.digest,
            sim.records,
            sim.final_accuracy,
            sim.sim_wait_s,
            sim.sim_makespan_s,
            sim.gossip_bytes,
            sim.fetch_bytes
        );
    }
    print_problems(&e.problems);
    let correct = e.problems.is_empty() && e.failed == 0;
    println!(
        "peer-rounds attempted={} failed={} correct={correct}",
        e.attempted, e.failed
    );
    (
        result_line(e.attempted, e.failed, correct, metrics),
        correct,
    )
}

fn traced_report(workload: &Workload, args: &Args) -> (Value, bool) {
    let spec = workload.spec(measure::sub_seed(args.seed, 0));
    let mut t = replay::traced_pass(&spec, args.seconds);
    let dir = std::path::Path::new("target/benchmark");
    let path = dir.join(format!("trace-{}.json", workload.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(workload.name, &t.spans).render()));
    match written {
        Ok(()) => println!("# {} spans written to {}", t.spans.len(), path.display()),
        Err(e) => t
            .problems
            .push(format!("could not write {}: {e}", path.display())),
    }
    println!(
        "# untraced runs before and after the traced one: {:.4} s and {:.4} s",
        t.untraced_s.0, t.untraced_s.1
    );
    println!("# census (seed {}): {:?}", spec.seed, t.census);
    println!("sim_digest rep=0 seed={} {}", spec.seed, t.sim.digest);
    let mut metrics = Vec::new();
    for def in &PER_LAYER {
        let value = t.metrics.get(def.name).copied().unwrap_or(0.0);
        println!(
            "{:<32} {:>16.6} {:<8} ({} is better)",
            def.name, value, def.unit, def.better
        );
        metrics.push((def.name.to_string(), metric_value(value, def.unit)));
    }
    print_problems(&t.problems);
    let correct = t.problems.is_empty() && t.failed == 0;
    println!(
        "peer-rounds attempted={} failed={} correct={correct}",
        t.attempted, t.failed
    );
    (
        result_line(t.attempted, t.failed, correct, metrics),
        correct,
    )
}

/// What a child pass reported: its result line and its `sim_digest` lines.
struct ChildReport {
    result: Value,
    digests: Vec<String>,
}

impl ChildReport {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }
}

/// Runs one pass of one workload in a child process of this binary, so that
/// `peak_rss_mb` is per workload and nothing runs concurrently. The child's
/// output is passed through.
fn child_pass(workload: &Workload, args: &Args, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} pass: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last)
        .map_err(|e| format!("the {} pass printed no result line: {e}", workload.name))?;
    if !output.status.success() && result.get("correct").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "the {} pass died: {}",
            workload.name, output.status
        ));
    }
    let digests = stdout
        .lines()
        .filter(|l| l.starts_with("sim_digest "))
        .map(str::to_string)
        .collect();
    Ok(ChildReport { result, digests })
}

/// Every workload (or the one named), one child process after another; with
/// `--traced` also each traced pass, with `--selfcheck` the untraced set a
/// second time and the A/A comparison.
fn all_workloads(args: &Args) -> bool {
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut ok = true;
    let mut run_set = |trace: bool| -> Vec<Option<ChildReport>> {
        selected
            .iter()
            .map(|w| match child_pass(w, args, trace) {
                Ok(report) => {
                    ok &= report.correct();
                    println!();
                    Some(report)
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                    None
                }
            })
            .collect()
    };
    let first = run_set(false);
    let second = if args.selfcheck {
        run_set(false)
    } else {
        Vec::new()
    };
    let traced = if args.traced {
        run_set(true)
    } else {
        Vec::new()
    };

    println!("## end-to-end summary (--seed {})", args.seed);
    println!("{:<14} {:<20} {:>14} unit", "workload", "metric", "value");
    for (w, report) in selected.iter().zip(&first) {
        let Some(report) = report else { continue };
        for def in &END_TO_END {
            println!(
                "{:<14} {:<20} {:>14.4} {}",
                w.name,
                def.name,
                report.metric(def.name),
                def.unit
            );
        }
    }
    if args.traced {
        println!(
            "\n## estimated share of run_s per layer (traced pass; see README for the method)"
        );
        let layers = ["nn", "fl", "crypto", "core", "chain", "net"];
        print!("{:<14}", "workload");
        for l in layers {
            print!(" {l:>8}");
        }
        println!(" {:>13}", "unattributed");
        for (w, report) in selected.iter().zip(&traced) {
            let Some(report) = report else { continue };
            print!("{:<14}", w.name);
            for l in layers {
                print!(" {:>8.3}", report.metric(&format!("{l}.est_share")));
            }
            println!(" {:>13.3}", report.metric("core.unattributed_share"));
        }
    }
    if args.selfcheck {
        ok &= selfcheck_table(&selected, &first, &second);
    }
    println!("\nbenchmark {}", if ok { "OK" } else { "FAILED" });
    ok
}

/// The A/A table: both medians, their ratio and the bound for every workload
/// × end-to-end metric, and whether both sets simulated the same thing.
fn selfcheck_table(
    selected: &[&Workload],
    first: &[Option<ChildReport>],
    second: &[Option<ChildReport>],
) -> bool {
    let mut ok = true;
    println!("\n## selfcheck: two sets of runs of the same code (A/A)");
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for ((w, a), b) in selected.iter().zip(first).zip(second) {
        let (Some(a), Some(b)) = (a, b) else {
            ok = false;
            continue;
        };
        for def in &END_TO_END {
            let (va, vb) = (a.metric(def.name), b.metric(def.name));
            let ratio = vb / va;
            let within = (ratio - 1.0).abs() <= def.bound;
            ok &= within;
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>8.4} {:>5.0}%  {}",
                w.name,
                def.name,
                va,
                vb,
                ratio,
                def.bound * 100.0,
                if within { "ok" } else { "OUTSIDE BOUND" }
            );
        }
        // Both sets ran the same sub-seeds in the same order; a shorter set
        // simply made fewer reps.
        let same = a.digests.iter().zip(&b.digests).all(|(x, y)| x == y) && !a.digests.is_empty();
        ok &= same;
        println!(
            "{:<14} sim_digest: {} reps compared, {}",
            w.name,
            a.digests.len().min(b.digests.len()),
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    ok
}

//! The repository benchmark: fault-injection campaigns end to end, and a
//! traced run that times each layer's public calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replace_ram|replace_spill|fleet_shared> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted` and `failed` (campaign tasks, a
//! task failing when it is missing, errored, re-queued or off its
//! oracle), and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it start with `#`
//! and carry the run's metadata and sample counts. See `README.md`.

mod config;
mod e2e;
mod fleet;
mod inputs;
mod layers;
mod oracle;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use e2e::Tally;

/// What one run measured.
pub struct Outcome {
    /// Tasks attempted and failed, and any correctness problem.
    pub tally: Tally,
    /// Sample counts and the like, printed as `#` lines.
    pub notes: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

const WORKLOADS: [&str; 3] = ["replace_ram", "replace_spill", "fleet_shared"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit checked out in `root`, read from `.git` without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// The type of the filesystem holding `path`: the longest mount point
/// that prefixes it, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Cumulative `(all, steal)` CPU time from `/proc/stat`, in clock ticks:
/// the share the hypervisor gave to other guests shows how noisy the host
/// was during a run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(args.seconds);
    if args.trace {
        let outcome = layers::traced(&args.workload, args.seed, seconds)?;
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, outcome.1).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
        return Ok(outcome.0);
    }
    match args.workload.as_str() {
        "replace_ram" => e2e::in_process(args.seed, seconds, false),
        "replace_spill" => e2e::in_process(args.seed, seconds, true),
        _ => e2e::fleet(args.seed, seconds),
    }
}

fn main() -> ExitCode {
    stats::retain_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(fleet::SERVE_ARG) {
        return match fleet::serve_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < config::POOL_THREADS {
        eprintln!(
            "perfbench: refusing to run on {nproc} CPU(s): the campaign pool runs {} threads, \
             and an oversubscribed pool measures the scheduler, not the program",
            config::POOL_THREADS
        );
        return ExitCode::from(3);
    }

    // Spill segments and trace files stay inside the checkout.
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let out_dir = root.join(".perfbench");
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);

    let meta = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("git_rev", git_rev(&root)),
        ("profile", env!("PERFBENCH_PROFILE").to_owned()),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("spill_dir", tmp.display().to_string()),
        ("spill_fs", filesystem_of(&tmp)),
    ];
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("# meta {{{}}}", meta.join(", "));

    let ticks_before = cpu_ticks();
    let mut outcome = match run(&args, &out_dir) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks_before, cpu_ticks()) {
        let share = steal1.saturating_sub(steal0) as f64 / all1.saturating_sub(all0).max(1) as f64;
        println!("# host cpu steal during the run: {:.1}%", share * 100.0);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut metrics = Vec::new();
    for &(name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            outcome
                .tally
                .problems
                .push(format!("{name} is not a number"));
            continue;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for problem in &outcome.tally.problems {
        println!("# INCORRECT: {problem}");
    }
    let correct = outcome.tally.problems.is_empty() && outcome.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

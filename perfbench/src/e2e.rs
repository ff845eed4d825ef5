//! The end-to-end runs (tracing off): closed-loop campaigns, each checked
//! task by task against its oracle.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sympl_cluster::{run_cluster, CampaignReport, ClusterConfig};
use sympl_wire::{run_distributed_with, CampaignJob, ChaosPlan, DistOptions, WireError};

use crate::config::{
    self, ms, Prepared, FLEET_REPLACE_TASKS, FLEET_TCAS_TASKS, REPLACE_TASKS, SPILL_WINDOW_BYTES,
};
use crate::fleet::{RawClient, Worker};
use crate::inputs::{input_set, Inputs};
use crate::oracle::{self, failed_tasks, oracle_of, report_checksums};
use crate::stats::{balanced_quantile, median, peak_rss_mb};
use crate::Outcome;

/// Distinct inputs an in-process run cycles through (seed 0 has only the
/// paper's): enough that a run's median describes the input distribution
/// rather than its draw.
pub const INPUTS_PER_RUN: usize = 20;
/// Distinct input pairs a fleet run cycles through; a run completes about
/// four pairs, and the wire, not the engine, sets their pace.
pub const FLEET_INPUTS: usize = 4;
/// Fleet set-ups timed per run, each spawning a worker process;
/// `setup_s` is their median.
pub const FLEET_SETUP_REPS: usize = 8;

/// Runs `p`'s campaign in process on the 2-thread pool.
#[must_use]
pub fn run_local(p: &Prepared) -> CampaignReport {
    run_with(p, &p.config)
}

fn run_with(p: &Prepared, config: &ClusterConfig) -> CampaignReport {
    let w = &p.workload;
    run_cluster(
        &w.program,
        &w.detectors,
        &w.input,
        &p.campaign,
        &p.predicate,
        config,
    )
}

/// The inputs of a run, one `line/tcas-vector` per draw.
fn describe(inputs: &[Inputs]) -> String {
    let each: Vec<String> = inputs
        .iter()
        .map(|i| format!("{}/{}", i.replace_line, i.tcas_name))
        .collect();
    each.join(" ")
}

/// The oracle for `p`: per-task checksums of its campaign run in process
/// with an in-RAM frontier, whatever `p`'s window.
#[must_use]
pub fn ram_oracle(p: &Prepared) -> Vec<u128> {
    let mut config = p.config.clone();
    config.search.max_frontier_bytes = None;
    oracle_of(&run_with(p, &config))
}

/// Tallies tasks attempted and failed against an oracle.
#[derive(Default)]
pub struct Tally {
    /// Tasks attempted.
    pub attempted: u64,
    /// Tasks missing, errored, re-queued, or off the oracle.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one campaign's tasks against `expected`.
    pub fn check(&mut self, what: &str, got: &[(usize, u128)], expected: &[u128]) {
        let failed = failed_tasks(got, expected);
        self.attempted += expected.len() as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.problems
                .push(format!("{what}: {failed} task(s) off the oracle"));
        }
    }

    /// Requires a seed-0 oracle to match its recorded reference.
    pub fn reference(&mut self, what: &str, oracle: &[u128], reference: u128) {
        let got = oracle::fold(oracle);
        if got != reference {
            self.problems.push(format!(
                "{what}: seed-0 checksum {got:032x} differs from the recorded {reference:032x}"
            ));
        }
    }
}

/// `replace_ram` (`window = None`) and `replace_spill` (the 4 MiB window):
/// the replace campaign run in process, one campaign after another.
pub fn in_process(seed: u64, seconds: Duration, spill: bool) -> Result<Outcome, String> {
    let window = spill.then_some(SPILL_WINDOW_BYTES);
    let inputs = input_set(seed, INPUTS_PER_RUN);
    let prepare = |i: &Inputs| config::prepare("replace", i.replace(), REPLACE_TASKS, window);
    let prepared: Vec<Prepared> = inputs.iter().map(prepare).collect();
    let mut tally = Tally::default();
    // Warm-up, untimed.
    let _ = run_local(&prepared[0]);

    // A set-up takes well under a millisecond, so one is timed before
    // every campaign: the samples then span the run like the campaigns.
    // Samples are kept per input, and every input weighs the same in the
    // figures.
    let per_input = || vec![Vec::new(); prepared.len()];
    let (mut setup_s, mut campaign_s, mut task_ms) = (per_input(), per_input(), per_input());
    let mut runs: Vec<(usize, Vec<(usize, u128)>)> = Vec::new();
    let mut spilled = 0usize;
    let started = Instant::now();
    while started.elapsed() < seconds || runs.len() < prepared.len() {
        let which = runs.len() % prepared.len();
        let set_up = Instant::now();
        black_box(prepare(&inputs[which]));
        setup_s[which].push(set_up.elapsed().as_secs_f64());
        let submitted = Instant::now();
        let report = run_local(&prepared[which]);
        campaign_s[which].push(submitted.elapsed().as_secs_f64());
        task_ms[which].extend(report.tasks.iter().map(|t| ms(t.elapsed)));
        spilled += report.spilled_states();
        runs.push((which, report_checksums(&report)));
    }
    let rss = peak_rss_mb(std::process::id()).ok_or("cannot read the peak resident set")?;

    // In RAM the first campaign of each input is its oracle. A spilling
    // run checks against in-RAM runs made after the timed loop, so they
    // do not raise the peak resident set measured.
    let oracles: Vec<Vec<u128>> = if spill {
        if spilled == 0 {
            tally
                .problems
                .push("replace_spill never spilled".to_owned());
        }
        prepared.iter().map(ram_oracle).collect()
    } else {
        let first = &runs[..prepared.len()];
        let every_task_once =
            |sums: &[(usize, u128)]| sums.iter().map(|s| s.0).eq(0..REPLACE_TASKS);
        if !first.iter().all(|(_, sums)| every_task_once(sums)) {
            tally
                .problems
                .push("replace: an oracle campaign does not report every task once".to_owned());
        }
        first
            .iter()
            .map(|(_, sums)| sums.iter().map(|&(_, sum)| sum).collect())
            .collect()
    };
    if seed == 0 {
        tally.reference("replace", &oracles[0], oracle::reference::REPLACE_80);
    }
    for (which, got) in &runs {
        tally.check("replace", got, &oracles[*which]);
    }

    let campaign = balanced_quantile(&campaign_s, 0.5);
    Ok(Outcome {
        tally,
        notes: vec![
            format!("inputs: {}", describe(&inputs)),
            format!("campaigns={} inputs={}", runs.len(), prepared.len()),
            format!(
                "task_ms samples={}",
                task_ms.iter().map(Vec::len).sum::<usize>()
            ),
            format!("spilled_states={spilled}"),
        ],
        metrics: vec![
            ("campaign_s", campaign, "s"),
            ("task_ms.p50", balanced_quantile(&task_ms, 0.5), "ms"),
            ("task_ms.p90", balanced_quantile(&task_ms, 0.9), "ms"),
            ("small_tenant_s", campaign, "s"),
            ("setup_s", balanced_quantile(&setup_s, 0.5), "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

/// Both tenants of the shared fleet for one input draw.
pub struct Tenants {
    /// The tcas tenant (the small campaign).
    pub tcas: Prepared,
    /// The replace tenant.
    pub replace: Prepared,
}

/// Prepares both tenants' campaigns for `inputs`.
#[must_use]
pub fn tenants(inputs: &Inputs) -> Tenants {
    Tenants {
        tcas: config::prepare("tcas", inputs.tcas.clone(), FLEET_TCAS_TASKS, None),
        replace: config::prepare("replace", inputs.replace(), FLEET_REPLACE_TASKS, None),
    }
}

/// One tenant's session on the fleet: its report (or error), when it was
/// pooled relative to `t0`, and when each task result arrived.
pub struct TenantRun {
    /// The pooled report, or the campaign's error.
    pub report: Result<CampaignReport, WireError>,
    /// Submission-to-report time, measured from the pair's start.
    pub done: Duration,
    /// When each task result was pooled.
    pub stamps: Vec<Instant>,
}

/// Runs one tenant's campaign through `run_distributed_with` against
/// the worker at `addr`, with the default heartbeat and equal priority.
pub fn run_tenant(addr: &str, p: &Prepared, t0: Instant) -> TenantRun {
    let stamps = Mutex::new(Vec::new());
    let on_result = |_: usize| stamps.lock().expect("stamp lock").push(Instant::now());
    let job = CampaignJob {
        program: &p.workload.program,
        program_id: p.workload.name,
        input: &p.workload.input,
        campaign: &p.campaign,
        predicate: &p.predicate,
        config: &p.config,
    };
    let opts = DistOptions {
        client_label: Some(p.workload.name.to_owned()),
        chaos: ChaosPlan {
            on_result: Some(&on_result),
            ..ChaosPlan::default()
        },
        ..DistOptions::default()
    };
    let report = run_distributed_with(&job, &[addr.to_owned()], &opts);
    let done = t0.elapsed();
    TenantRun {
        report,
        done,
        stamps: stamps.into_inner().expect("stamp lock"),
    }
}

/// Runs both tenants at once against the worker at `addr`: the small
/// (tcas) and the big (replace) campaign.
pub fn run_pair(addr: &str, small: &Prepared, big: &Prepared) -> (TenantRun, TenantRun, Duration) {
    let t0 = Instant::now();
    let (small, big) = std::thread::scope(|s| {
        let small = s.spawn(|| run_tenant(addr, small, t0));
        let big = s.spawn(|| run_tenant(addr, big, t0));
        (
            small.join().expect("tcas tenant thread"),
            big.join().expect("replace tenant thread"),
        )
    });
    (small, big, t0.elapsed())
}

/// Counts one tenant run against its oracle: an error fails every task,
/// and a re-queued task counts as failed.
pub fn check_tenant(tally: &mut Tally, what: &str, run: &TenantRun, expected: &[u128]) {
    match &run.report {
        Ok(report) => {
            tally.check(what, &report_checksums(report), expected);
            if report.tasks_retried > 0 {
                tally.failed += report.tasks_retried as u64;
                tally.problems.push(format!(
                    "{what}: {} task(s) re-queued",
                    report.tasks_retried
                ));
            }
        }
        Err(e) => {
            tally.attempted += expected.len() as u64;
            tally.failed += expected.len() as u64;
            tally.problems.push(format!("{what}: {e}"));
        }
    }
}

/// In-process oracles of both tenants, checked against the seed-0
/// references when `seed` is 0.
pub fn tenant_oracles(
    seed: u64,
    all: &[Tenants],
    tally: &mut Tally,
) -> Vec<(Vec<u128>, Vec<u128>)> {
    let oracles: Vec<(Vec<u128>, Vec<u128>)> = all
        .iter()
        .map(|t| (ram_oracle(&t.tcas), ram_oracle(&t.replace)))
        .collect();
    if seed == 0 {
        tally.reference("tcas", &oracles[0].0, oracle::reference::TCAS_16);
        tally.reference("replace", &oracles[0].1, oracle::reference::REPLACE_32);
    }
    oracles
}

/// Times the fleet's set-up `FLEET_SETUP_REPS` times: both tenants' campaigns,
/// a worker process and one session handshake (each worker but the last
/// is shut down, untimed). Returns the median and the last worker, still
/// running.
pub fn fleet_setup(inputs: &[Inputs]) -> Result<(f64, Worker), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = Vec::new();
    let mut worker: Option<Worker> = None;
    for rep in 0..FLEET_SETUP_REPS {
        if let Some(previous) = worker.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        black_box(tenants(&inputs[rep % inputs.len()]));
        let w = Worker::spawn(&exe)?;
        RawClient::connect(&w.addr, "setup").map_err(|e| format!("session handshake: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        worker = Some(w);
    }
    Ok((median(&times), worker.expect("at least one set-up ran")))
}

/// `fleet_shared`: the tcas and replace tenants share one worker process,
/// pair after pair.
pub fn fleet(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let inputs = input_set(seed, FLEET_INPUTS);
    let (setup_s, worker) = fleet_setup(&inputs)?;
    let all: Vec<Tenants> = inputs.iter().map(tenants).collect();
    let mut tally = Tally::default();
    let oracles = tenant_oracles(seed, &all, &mut tally);

    let (small, big, _) = run_pair(&worker.addr, &all[0].tcas, &all[0].replace);
    check_tenant(&mut tally, "tcas warm-up", &small, &oracles[0].0);
    check_tenant(&mut tally, "replace warm-up", &big, &oracles[0].1);

    let per_input = || vec![Vec::new(); all.len()];
    let (mut campaign_s, mut small_s, mut task_ms) = (per_input(), per_input(), per_input());
    let started = Instant::now();
    let mut pairs = 0;
    while started.elapsed() < seconds {
        let which = pairs % all.len();
        let (small, big, both) = run_pair(&worker.addr, &all[which].tcas, &all[which].replace);
        campaign_s[which].push(both.as_secs_f64());
        small_s[which].push(small.done.as_secs_f64());
        for run in [&small, &big] {
            task_ms[which].extend(run.stamps.windows(2).map(|w| ms(w[1] - w[0])));
        }
        check_tenant(&mut tally, "tcas", &small, &oracles[which].0);
        check_tenant(&mut tally, "replace", &big, &oracles[which].1);
        pairs += 1;
    }
    let rss = peak_rss_mb(worker.pid()).ok_or("cannot read the worker's peak resident set")?;
    worker.shutdown()?;

    Ok(Outcome {
        tally,
        notes: vec![
            format!("inputs: {}", describe(&inputs)),
            format!("pairs={pairs} inputs={}", all.len()),
            format!(
                "task_ms samples={}",
                task_ms.iter().map(Vec::len).sum::<usize>()
            ),
        ],
        metrics: vec![
            ("campaign_s", balanced_quantile(&campaign_s, 0.5), "s"),
            ("task_ms.p50", balanced_quantile(&task_ms, 0.5), "ms"),
            ("task_ms.p90", balanced_quantile(&task_ms, 0.9), "ms"),
            ("small_tenant_s", balanced_quantile(&small_s, 0.5), "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

//! The deterministic campaign configuration every workload runs, and the
//! set-up step that resolves a workload into a ready-to-run campaign.

use std::time::Duration;

use sympl_apps::Workload;
use sympl_check::{FrontierPolicy, Predicate, SearchLimits};
use sympl_cluster::{shard_specs, ClusterConfig, TaskSpec};
use sympl_inject::{Campaign, ErrorClass};
use sympl_machine::ExecLimits;

/// Worker threads of the in-process pool; also the most engine threads or
/// coordinator connections one benchmark process runs at once.
pub const POOL_THREADS: usize = 2;
/// Per-point state cap.
pub const MAX_STATES: usize = 50_000;
/// Findings per task (the paper's cap).
pub const FINDINGS_PER_TASK: usize = 10;
/// Tasks the in-process replace campaign is sharded into.
pub const REPLACE_TASKS: usize = 80;
/// Tasks of the replace tenant on the shared fleet. Each wire round trip
/// costs a poll period, and a task whose engine work (or wait behind the
/// other tenant's task) crosses one costs another: with 16 heavier tasks
/// about a tenth of the gaps did, so `task_ms.p90` flipped between ~180
/// and ~300 ms from run to run on a busy host. 32 lighter tasks keep it
/// within a poll period.
pub const FLEET_REPLACE_TASKS: usize = 32;
/// Tasks of the tcas tenant on the shared fleet: half as many as replace.
pub const FLEET_TCAS_TASKS: usize = FLEET_REPLACE_TASKS / 2;
/// The in-RAM frontier window of `replace_spill`.
pub const SPILL_WINDOW_BYTES: usize = 4 << 20;

/// A campaign ready to run: the resolved workload with the seed's input,
/// its golden-output predicate, the campaign, its shards and its config.
pub struct Prepared {
    /// The workload, carrying the generated input.
    pub workload: Workload,
    /// Wrong output relative to the golden run.
    pub predicate: Predicate,
    /// The register-file campaign.
    pub campaign: Campaign,
    /// The campaign's shards, as `run_cluster` and the wire coordinator
    /// make them.
    pub specs: Vec<TaskSpec>,
    /// The deterministic cluster configuration.
    pub config: ClusterConfig,
}

/// The deterministic configuration: BFS, a per-point state cap, 10
/// findings per task, sequential point searches, no time budgets.
#[must_use]
pub fn cluster_config(max_steps: u64, tasks: usize, window: Option<usize>) -> ClusterConfig {
    ClusterConfig {
        workers: POOL_THREADS,
        tasks,
        search: SearchLimits {
            exec: ExecLimits::with_max_steps(max_steps),
            max_states: MAX_STATES,
            max_solutions: FINDINGS_PER_TASK,
            max_time: None,
            policy: FrontierPolicy::Bfs,
            max_frontier_bytes: window,
        },
        task_budget: None,
        max_findings_per_task: FINDINGS_PER_TASK,
        point_workers_hint: Some(1),
    }
}

/// Resolves the named bundled workload, gives it `input`, runs its golden
/// execution, decodes the program and shards the campaign — the set-up a
/// campaign pays before its first task can run.
///
/// # Panics
///
/// When `name` is not a bundled workload.
#[must_use]
pub fn prepare(name: &str, input: Vec<i64>, tasks: usize, window: Option<usize>) -> Prepared {
    let mut workload = sympl_apps::resolve_workload(name).expect("a bundled workload");
    workload.input = input;
    let golden = sympl_apps::golden(&workload).output_ints();
    let _ = workload.program.decoded();
    let campaign = Campaign::new(&workload.program, ErrorClass::RegisterFile);
    let specs = shard_specs(&campaign, tasks);
    let config = cluster_config(workload.max_steps, tasks, window);
    Prepared {
        workload,
        predicate: Predicate::WrongOutput { expected: golden },
        campaign,
        specs,
        config,
    }
}

/// `std::time::Duration` as fractional milliseconds.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

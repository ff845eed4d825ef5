//! The outcome oracle: a per-task checksum of what a task found, blind to
//! the resource counters a frontier or schedule change may move.
//!
//! `CampaignReport::outcome_digest` also hashes `spilled_states`, so a
//! spilling campaign and an in-RAM one with identical findings digest
//! differently. The checksum here covers the same outcome fields and
//! findings without it, so `replace_spill` can be held to `replace_ram`.

use std::hash::Hash;

use sympl_cluster::{CampaignReport, Finding, TaskResult};
use sympl_symbolic::Fnv128Hasher;

/// One task's outcome checksum: completion statistics, states explored,
/// and every finding's point, terminal-state fingerprint and witness
/// trace. Wall-clock time, spilled states, frontier peaks, engine width,
/// steals and cache statistics are left out.
#[must_use]
pub fn task_checksum(task: &TaskResult, findings: &[Finding]) -> u128 {
    let mut h = Fnv128Hasher::new();
    (
        task.id,
        task.points_examined,
        task.points_total,
        task.activated,
        task.findings,
        task.completed,
        task.states_explored,
    )
        .hash(&mut h);
    findings.len().hash(&mut h);
    for f in findings {
        (f.task_id, f.point).hash(&mut h);
        f.solution.state.fingerprint().0.hash(&mut h);
        f.solution.trace.hash(&mut h);
    }
    h.finish128()
}

/// Per-task checksums of a pooled report, indexed by position in
/// `report.tasks` (task id order).
#[must_use]
pub fn report_checksums(report: &CampaignReport) -> Vec<(usize, u128)> {
    report
        .tasks
        .iter()
        .map(|t| {
            let findings: Vec<Finding> = report
                .findings
                .iter()
                .filter(|f| f.task_id == t.id)
                .cloned()
                .collect();
            (t.id, task_checksum(t, &findings))
        })
        .collect()
}

/// Counts the tasks of `got` that fail against the oracle `expected`
/// (checksums by task id): each task id missing from `got`, reported
/// twice, or whose checksum differs counts once.
#[must_use]
pub fn failed_tasks(got: &[(usize, u128)], expected: &[u128]) -> usize {
    let mut seen = vec![false; expected.len()];
    let mut failed = 0;
    for &(id, sum) in got {
        match expected.get(id) {
            Some(&want) if !seen[id] => {
                seen[id] = true;
                if sum != want {
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
    }
    failed + seen.iter().filter(|s| !**s).count()
}

/// Checksums in task order, for use as an oracle.
#[must_use]
pub fn oracle_of(report: &CampaignReport) -> Vec<u128> {
    report_checksums(report)
        .into_iter()
        .map(|(_, s)| s)
        .collect()
}

/// Folds per-task checksums into one campaign checksum, for the seed-0
/// references.
#[must_use]
pub fn fold(checksums: &[u128]) -> u128 {
    let mut h = Fnv128Hasher::new();
    checksums.hash(&mut h);
    h.finish128()
}

/// Seed 0's campaign checksums (the paper's inputs), folded over the
/// per-task checksums in task order.
pub mod reference {
    /// `replace`, 80 tasks, in RAM or spilling.
    pub const REPLACE_80: u128 = 0x26ed_b522_2086_f350_482b_0885_dafd_f74c;
    /// `replace`, 32 tasks (the fleet's replace tenant).
    pub const REPLACE_32: u128 = 0xe5f9_2878_a973_c4ef_4273_f6e4_760b_85ba;
    /// `tcas`, 16 tasks (the fleet's tcas tenant).
    pub const TCAS_16: u128 = 0x2774_5cc8_c239_80bd_9aba_5922_3234_b096;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use sympl_check::Solution;
    use sympl_inject::{InjectTarget, InjectionPoint};
    use sympl_machine::MachineState;

    fn task() -> TaskResult {
        TaskResult {
            id: 3,
            points_examined: 2,
            points_total: 2,
            activated: 2,
            findings: 1,
            completed: true,
            elapsed: Duration::from_millis(5),
            states_explored: 40,
            point_workers: 1,
            steals: 0,
            peak_frontier_len: 7,
            peak_frontier_bytes: 700,
            spilled_states: 0,
            memo_hits: 0,
            memo_states_skipped: 0,
            prefix_steps_saved: 0,
        }
    }

    fn finding(pc: usize) -> Finding {
        Finding {
            task_id: 3,
            point: InjectionPoint::new(4, InjectTarget::Register(sympl_asm::Reg::r(2))),
            solution: Solution {
                state: MachineState::with_input(vec![1]),
                trace: vec![4, pc],
            },
        }
    }

    #[test]
    fn checksum_ignores_resource_counters() {
        let base = task_checksum(&task(), &[finding(5)]);
        let mut spilled = task();
        spilled.spilled_states = 1234;
        spilled.peak_frontier_bytes = 1;
        spilled.elapsed = Duration::from_secs(9);
        assert_eq!(task_checksum(&spilled, &[finding(5)]), base);
    }

    #[test]
    fn checksum_changes_with_one_finding() {
        let base = task_checksum(&task(), &[finding(5)]);
        assert_ne!(task_checksum(&task(), &[finding(6)]), base);
        assert_ne!(task_checksum(&task(), &[]), base);
    }

    #[test]
    fn failed_tasks_counts_missing_duplicate_and_wrong() {
        let expected = [1, 2, 3];
        assert_eq!(failed_tasks(&[(0, 1), (1, 2), (2, 3)], &expected), 0);
        assert_eq!(failed_tasks(&[(0, 1), (2, 3)], &expected), 1);
        assert_eq!(failed_tasks(&[(0, 1), (1, 9), (2, 3)], &expected), 1);
        assert_eq!(
            failed_tasks(&[(0, 1), (0, 1), (1, 2), (2, 3)], &expected),
            1
        );
    }
}

//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, and the per-layer metrics they give.
//!
//! 1. `asm`: `DecodedProgram::decode`.
//! 2. `cluster`: a traced campaign — `shard_specs`, `run_task_spec` per
//!    task on a 2-thread pool, `pool_results` — alternated with untraced
//!    campaigns to measure the tracing overhead.
//! 3. `inject` + `check`: per point, `prepare_cached` then
//!    `Explorer::explore`, with `PrefixCache::new` timed on its own.
//! 4. `machine` + `check` replay: each point's BFS loop re-run over the
//!    public `step_into` / `fingerprint` / `FingerprintSet` /
//!    `FrontierQueue`, with every operation timed. The replay must
//!    reproduce the engine's `states_explored` and `duplicate_hits`
//!    exactly, or the run fails.
//! 5. `wire`: a raw client speaks the protocol to a worker process frame
//!    by frame; every `TaskDone` must match in-process `run_task_spec` on
//!    the same shard. `FairScheduler::pick` is timed with two backlogged
//!    tenants.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sympl_asm::DecodedProgram;
use sympl_check::{Explorer, FrontierQueue, Predicate, SearchLimits};
use sympl_cluster::{pool_results, run_task_spec, shard_specs, Finding, TaskResult};
use sympl_detect::DetectorSet;
use sympl_inject::{prepare_cached, PrefixCache};
use sympl_machine::{decode_state, encode_state, FingerprintSet, MachineState, SuccessorBuf};
use sympl_wire::{
    decode_message, encode_message, program_digest, FairScheduler, Message, TaskFrame,
    DEFAULT_HEARTBEAT_INTERVAL,
};

use crate::config::{self, ms, Prepared, POOL_THREADS, REPLACE_TASKS, SPILL_WINDOW_BYTES};
use crate::e2e::{
    self, check_tenant, ram_oracle, run_local, run_pair, run_tenant, Tally, INPUTS_PER_RUN,
};
use crate::fleet::{RawClient, Worker};
use crate::inputs::input_set;
use crate::oracle::{self, report_checksums, task_checksum};
use crate::stats::{median, quantile, timer_overhead, OpTimer};
use crate::trace::Tracer;
use crate::Outcome;

/// Least number of traced and untraced campaigns alternated for the
/// overhead estimate.
const OVERHEAD_PAIRS: usize = 2;
/// Repetitions of the cheap set-up calls (decode, prefix cache).
const SETUP_CALL_REPS: usize = 20;
/// One popped state in this many goes through the state codec.
const CODEC_EVERY: usize = 8;
/// The raw wire probe sends every this-many-th shard; each round trip
/// costs a wire poll period.
const PROBE_STRIDE: usize = 4;
/// Handshakes timed for `wire.handshake_ms`.
const HANDSHAKES: usize = 5;
/// `FairScheduler::pick` calls timed.
const PICKS: u32 = 1_000_000;

/// Runs the traced run of `workload`; returns the per-layer metrics and
/// the spans as JSON.
pub fn traced(workload: &str, seed: u64, seconds: Duration) -> Result<(Outcome, String), String> {
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let inputs = input_set(seed, INPUTS_PER_RUN).swap_remove(0);
    let fleet = workload == "fleet_shared";
    let units: Vec<Prepared> = match workload {
        "replace_ram" => vec![config::prepare(
            "replace",
            inputs.replace(),
            REPLACE_TASKS,
            None,
        )],
        "replace_spill" => vec![config::prepare(
            "replace",
            inputs.replace(),
            REPLACE_TASKS,
            Some(SPILL_WINDOW_BYTES),
        )],
        _ => {
            let t = e2e::tenants(&inputs);
            vec![t.tcas, t.replace]
        }
    };

    // Oracles, also the warm-up. A spilling campaign's oracle is the
    // same campaign in RAM.
    let oracles: Vec<Vec<u128>> = units.iter().map(ram_oracle).collect();
    if seed == 0 {
        for (u, o) in units.iter().zip(&oracles) {
            let reference = match (u.workload.name, u.config.tasks) {
                ("tcas", _) => oracle::reference::TCAS_16,
                (_, REPLACE_TASKS) => oracle::reference::REPLACE_80,
                _ => oracle::reference::REPLACE_32,
            };
            tally.reference(u.workload.name, o, reference);
        }
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let ms_of = |name: &str| -> Vec<f64> { tracer.durations(name).into_iter().map(ms).collect() };
    let median_us = |name: &str| median(&ms_of(name)) * 1e3;

    // asm: decode.
    for u in &units {
        for _ in 0..SETUP_CALL_REPS {
            tracer.span("asm.decode", None, 0, || {
                black_box(DecodedProgram::decode(black_box(&u.workload.program)))
            });
        }
    }
    metrics.push(("asm.decode_us", median_us("asm.decode"), "us"));

    // cluster: traced campaigns, and the tracing overhead.
    let mut shapes = Vec::new();
    let overhead_ms = if fleet {
        for (id, (u, o)) in units.iter().zip(&oracles).enumerate() {
            let c = traced_campaign(&tracer, u, id as u64);
            tally.check("traced campaign", &c.sums, o);
            shapes.push((c.busy, c.straggler));
        }
        fleet_overhead(&tracer, &units, &oracles, seconds, &mut tally)?
    } else {
        let mut traced_s = Vec::new();
        let mut untraced_s = Vec::new();
        let started = Instant::now();
        while started.elapsed() < seconds || traced_s.len() < OVERHEAD_PAIRS {
            let submitted = Instant::now();
            let report = run_local(&units[0]);
            untraced_s.push(submitted.elapsed().as_secs_f64());
            tally.check("untraced campaign", &report_checksums(&report), &oracles[0]);
            let c = traced_campaign(&tracer, &units[0], traced_s.len() as u64);
            traced_s.push(c.wall.as_secs_f64());
            tally.check("traced campaign", &c.sums, &oracles[0]);
            shapes.push((c.busy, c.straggler));
        }
        (median(&traced_s) - median(&untraced_s)) * 1e3
    };
    let task_ms = ms_of("cluster.run_task_spec");
    metrics.push(("cluster.task_ms.p50", quantile(&task_ms, 0.5), "ms"));
    metrics.push(("cluster.task_ms.p90", quantile(&task_ms, 0.9), "ms"));
    let busy: Vec<f64> = shapes.iter().map(|s| s.0).collect();
    let straggler: Vec<f64> = shapes.iter().map(|s| s.1).collect();
    metrics.push(("cluster.busy_frac", median(&busy), "fraction"));
    metrics.push(("cluster.straggler_frac", median(&straggler), "fraction"));
    metrics.push((
        "cluster.pool_ms",
        median(&ms_of("cluster.pool_results")),
        "ms",
    ));

    // inject + check: per-point searches, then the layer replay.
    let timer = timer_overhead();
    let mut engine = EngineTotals::default();
    let mut replay = ReplayStats::default();
    for (unit_id, u) in units.iter().enumerate() {
        point_pass(
            &tracer,
            u,
            unit_id as u64,
            &mut engine,
            &mut replay,
            &mut tally,
        );
    }
    metrics.push(("inject.prefix_us", median_us("inject.prefix_cache"), "us"));
    metrics.push((
        "inject.prepare_us",
        median_us("inject.prepare_cached"),
        "us",
    ));
    let explore_ms = ms_of("check.explore");
    let explore_s: f64 = explore_ms.iter().sum::<f64>() / 1e3;
    metrics.push(("check.explore_ms.p50", quantile(&explore_ms, 0.5), "ms"));
    metrics.push(("check.explore_ms.p90", quantile(&explore_ms, 0.9), "ms"));
    metrics.push((
        "check.states_per_s",
        engine.states as f64 / explore_s,
        "1/s",
    ));
    metrics.push((
        "check.new_frac",
        1.0 - engine.duplicate_hits as f64 / replay.successors as f64,
        "fraction",
    ));
    metrics.push((
        "check.peak_frontier_mb",
        engine.peak_frontier_bytes as f64 / f64::from(1 << 20),
        "MB",
    ));
    metrics.push(("machine.step_ns", replay.step.ns_per_op(timer), "ns"));
    metrics.push((
        "machine.succ_per_step",
        replay.successors as f64 / replay.step.ops as f64,
        "count",
    ));
    metrics.push((
        "machine.fingerprint_ns",
        replay.fingerprint.ns_per_op(timer),
        "ns",
    ));
    metrics.push(("check.visited_ns", replay.visited.ns_per_op(timer), "ns"));
    metrics.push(("check.push_ns", replay.push.ns_per_op(timer), "ns"));
    metrics.push(("check.pop_ns", replay.pop.ns_per_op(timer), "ns"));
    metrics.push((
        "check.spill_frac",
        engine.spilled_states as f64 / replay.push.ops as f64,
        "fraction",
    ));
    if replay.codec_mismatches > 0 {
        tally.problems.push(format!(
            "{} state(s) changed in an encode_state/decode_state round trip",
            replay.codec_mismatches
        ));
    }
    metrics.push(("machine.encode_ns", replay.encode.ns_per_op(timer), "ns"));
    metrics.push(("machine.decode_ns", replay.decode.ns_per_op(timer), "ns"));
    metrics.push((
        "machine.state_bytes",
        replay.encoded_bytes as f64 / replay.encode.ops as f64,
        "bytes",
    ));

    // wire: a raw client against a worker process, and the scheduler.
    let probe = wire_probe(&tracer, &units, &oracles, &mut tally)?;
    metrics.push(("wire.handshake_ms", median(&ms_of("wire.handshake")), "ms"));
    let rtt = ms_of("wire.round_trip");
    metrics.push(("wire.rtt_ms.p50", quantile(&rtt, 0.5), "ms"));
    metrics.push(("wire.rtt_ms.p90", quantile(&rtt, 0.9), "ms"));
    metrics.push(("wire.wait_ms.p50", median(&probe.wait_ms), "ms"));
    metrics.push((
        "wire.heartbeats_per_task",
        probe.heartbeats as f64 / rtt.len() as f64,
        "count",
    ));
    metrics.push(("wire.encode_us", median_us("wire.encode_message"), "us"));
    metrics.push(("wire.decode_us", median_us("wire.decode_message"), "us"));
    metrics.push(("wire.task_bytes", median(&probe.task_bytes), "bytes"));
    metrics.push(("wire.done_bytes", median(&probe.done_bytes), "bytes"));
    metrics.push(("wire.sched_pick_ns", sched_pick_ns(&tracer), "ns"));
    metrics.push(("trace.overhead_ms", overhead_ms, "ms"));

    let mut notes = vec![
        format!(
            "replayed {} point search(es), {} states, {} successors",
            engine.searches, engine.states, replay.successors
        ),
        format!("timer overhead {} ns per interval", timer.as_nanos()),
        format!("probe tasks={} heartbeats={}", rtt.len(), probe.heartbeats),
    ];
    for (name, (count, time)) in tracer.self_times() {
        notes.push(format!("self {name}: {count} span(s), {:.3} ms", ms(time)));
    }
    Ok((
        Outcome {
            tally,
            notes,
            metrics,
        },
        tracer.to_json(),
    ))
}

/// A traced campaign's wall time, per-task checksums, busy fraction
/// (task time over pool capacity) and straggler fraction (longest task
/// over wall time).
struct TracedCampaign {
    wall: Duration,
    sums: Vec<(usize, u128)>,
    busy: f64,
    straggler: f64,
}

/// One campaign as `run_cluster` runs it, with spans: `shard_specs`,
/// `run_task_spec` per task on a 2-thread pool, then `pool_results` and
/// the checksums.
fn traced_campaign(tracer: &Tracer, u: &Prepared, id: u64) -> TracedCampaign {
    let w = &u.workload;
    let root = tracer.open("cluster.campaign", None, id);
    let specs = tracer.span("cluster.shard_specs", Some(root), id, || {
        shard_specs(&u.campaign, u.config.tasks)
    });
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(TaskResult, Vec<Finding>)>> = Mutex::new(Vec::new());
    let task_times: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..POOL_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let span = tracer.open("cluster.run_task_spec", Some(root), id);
                let outcome = run_task_spec(
                    &w.program,
                    &w.detectors,
                    &w.input,
                    spec,
                    &u.predicate,
                    &u.config,
                );
                let took = tracer.close(span);
                task_times.lock().expect("task time lock").push(took);
                results.lock().expect("results lock").push(outcome);
            });
        }
    });
    let pooled = results.into_inner().expect("results lock");
    let sums = tracer.span("cluster.pool_results", Some(root), id, || {
        report_checksums(&pool_results(pooled, Duration::ZERO))
    });
    let wall = tracer.close(root);
    let task_times = task_times.into_inner().expect("task time lock");
    let total: f64 = task_times.iter().map(Duration::as_secs_f64).sum();
    let longest = task_times
        .iter()
        .map(Duration::as_secs_f64)
        .fold(0.0, f64::max);
    TracedCampaign {
        wall,
        sums,
        busy: total / (POOL_THREADS as f64 * wall.as_secs_f64()),
        straggler: longest / wall.as_secs_f64(),
    }
}

/// Traced and untraced fleet pairs, alternated for `seconds` (at least
/// [`OVERHEAD_PAIRS`] of each): the traced pair records a span per tenant
/// session and one per pooled task result.
fn fleet_overhead(
    tracer: &Tracer,
    units: &[Prepared],
    oracles: &[Vec<u128>],
    seconds: Duration,
    tally: &mut Tally,
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let worker = Worker::spawn(&exe)?;
    let (small, big) = (&units[0], &units[1]);
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let started = Instant::now();
    while started.elapsed() < seconds || traced_s.len() < OVERHEAD_PAIRS {
        let (s, b, both) = run_pair(&worker.addr, small, big);
        untraced_s.push(both.as_secs_f64());
        check_tenant(tally, "tcas", &s, &oracles[0]);
        check_tenant(tally, "replace", &b, &oracles[1]);

        let id = traced_s.len() as u64;
        let t0 = Instant::now();
        let root = tracer.open("fleet.pair", None, id);
        let session = |p: &Prepared| {
            let span = tracer.open("wire.session", Some(root), id);
            let run = run_tenant(&worker.addr, p, t0);
            let mut previous = t0;
            for &stamp in &run.stamps {
                tracer.record("wire.result", Some(span), id, previous, stamp);
                previous = stamp;
            }
            tracer.close(span);
            run
        };
        let (s, b) = std::thread::scope(|scope| {
            let s = scope.spawn(|| session(small));
            let b = scope.spawn(|| session(big));
            (
                s.join().expect("tcas tenant thread"),
                b.join().expect("replace tenant thread"),
            )
        });
        traced_s.push(tracer.close(root).as_secs_f64());
        check_tenant(tally, "tcas", &s, &oracles[0]);
        check_tenant(tally, "replace", &b, &oracles[1]);
    }
    worker.shutdown()?;
    Ok((median(&traced_s) - median(&untraced_s)) * 1e3)
}

/// Engine-side totals of the per-point pass.
#[derive(Default)]
struct EngineTotals {
    searches: usize,
    states: usize,
    duplicate_hits: usize,
    spilled_states: usize,
    peak_frontier_bytes: usize,
}

/// Operation counts and timings of the layer replay.
#[derive(Default)]
struct ReplayStats {
    successors: u64,
    step: OpTimer,
    fingerprint: OpTimer,
    visited: OpTimer,
    push: OpTimer,
    pop: OpTimer,
    encode: OpTimer,
    decode: OpTimer,
    encoded_bytes: u64,
    /// Popped states whose codec round trip changed their fingerprint.
    codec_mismatches: u64,
}

/// Every point of `u`'s campaign: `prepare_cached` and `Explorer::explore`
/// under spans, then the layer replay of the same search, which must
/// reproduce the engine's counts.
fn point_pass(
    tracer: &Tracer,
    u: &Prepared,
    unit_id: u64,
    engine: &mut EngineTotals,
    replay: &mut ReplayStats,
    tally: &mut Tally,
) {
    let w = &u.workload;
    let exec = &u.config.search.exec;
    let mut cache = None;
    for _ in 0..SETUP_CALL_REPS {
        cache = Some(tracer.span("inject.prefix_cache", None, unit_id, || {
            PrefixCache::new(&w.program, &w.detectors, &w.input, exec)
        }));
    }
    let cache = cache.expect("at least one prefix cache");
    let explorer = Explorer::new(&w.program, &w.detectors)
        .with_limits(u.config.search.clone())
        .with_workers_hint(Some(1));
    let decoded = w.program.decoded();
    let mut mismatches = 0;
    for point in u.specs.iter().flat_map(|s| &s.points) {
        let prepared = tracer.span("inject.prepare_cached", None, unit_id, || {
            prepare_cached(&cache, point)
        });
        if !prepared.activated || prepared.seeds.is_empty() {
            continue;
        }
        let seeds = prepared.seeds.clone();
        let report = tracer.span("check.explore", None, unit_id, || {
            explorer.explore(prepared.seeds, &u.predicate)
        });
        engine.searches += 1;
        engine.states += report.states_explored;
        engine.duplicate_hits += report.duplicate_hits;
        engine.spilled_states += report.spilled_states;
        engine.peak_frontier_bytes = engine.peak_frontier_bytes.max(report.peak_frontier_bytes);
        let (states, dups) = tracer.span("check.replay", None, unit_id, || {
            replay_search(
                decoded,
                &w.detectors,
                &u.config.search,
                &u.predicate,
                seeds,
                replay,
            )
        });
        if (states, dups) != (report.states_explored, report.duplicate_hits) {
            mismatches += 1;
        }
    }
    tally.attempted += engine.searches as u64;
    if mismatches > 0 {
        tally.failed += mismatches;
        tally.problems.push(format!(
            "{}: the layer replay diverged from the engine on {mismatches} point search(es)",
            w.name
        ));
    }
}

/// The sequential engine's BFS loop, re-run over the public layer calls
/// with each call timed. Returns `(states_explored, duplicate_hits)`.
fn replay_search(
    decoded: &DecodedProgram,
    detectors: &DetectorSet,
    limits: &SearchLimits,
    predicate: &Predicate,
    seeds: Vec<MachineState>,
    st: &mut ReplayStats,
) -> (usize, usize) {
    let mut visited = FingerprintSet::default();
    let mut frontier: Box<dyn FrontierQueue<()>> = limits.policy.build(limits.max_frontier_bytes);
    for s in seeds {
        if visited.insert(s.fingerprint()) {
            let t = Instant::now();
            frontier.seed(s, ());
            st.push.add(t, 1);
        }
    }
    let mut states = 0;
    let mut dups = 0;
    let mut solutions = 0;
    let mut successors = SuccessorBuf::new();
    let mut bytes = Vec::new();
    'search: loop {
        let t = Instant::now();
        let popped = frontier.pop();
        st.pop.add(t, 1);
        let Some((state, ())) = popped else {
            assert!(
                frontier.next_round().is_none(),
                "the replay covers non-restarting policies only"
            );
            break;
        };
        if states >= limits.max_states {
            break;
        }
        states += 1;
        if states % CODEC_EVERY == 0 {
            bytes.clear();
            let t = Instant::now();
            encode_state(&state, &mut bytes);
            st.encode.add(t, 1);
            st.encoded_bytes += bytes.len() as u64;
            let t = Instant::now();
            let decoded_state = black_box(decode_state(&bytes));
            st.decode.add(t, 1);
            if !decoded_state.is_ok_and(|(s, _)| s.fingerprint() == state.fingerprint()) {
                st.codec_mismatches += 1;
            }
        }
        if state.status().is_terminal() {
            if predicate.matches(&state) {
                solutions += 1;
                if solutions >= limits.max_solutions {
                    break 'search;
                }
            }
            continue;
        }
        let t = Instant::now();
        state.step_into(decoded, detectors, &limits.exec, &mut successors);
        st.step.add(t, 1);
        for succ in successors.drain() {
            st.successors += 1;
            let t = Instant::now();
            let fp = succ.fingerprint();
            st.fingerprint.add(t, 1);
            let t = Instant::now();
            let new = visited.insert(fp);
            st.visited.add(t, 1);
            if new {
                let t = Instant::now();
                frontier.push(succ, ());
                st.push.add(t, 1);
            } else {
                dups += 1;
            }
        }
    }
    (states, dups)
}

/// What the raw wire probe saw besides its spans.
#[derive(Default)]
struct Probe {
    wait_ms: Vec<f64>,
    heartbeats: u64,
    task_bytes: Vec<f64>,
    done_bytes: Vec<f64>,
}

/// Speaks the protocol by hand to a fresh worker process: timed session
/// handshakes, then shards sent one at a time, each `TaskDone` checked
/// against the in-process oracle for that shard.
fn wire_probe(
    tracer: &Tracer,
    units: &[Prepared],
    oracles: &[Vec<u128>],
    tally: &mut Tally,
) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let worker = Worker::spawn(&exe)?;
    for id in 0..HANDSHAKES as u64 {
        tracer
            .span("wire.handshake", None, id, || {
                RawClient::connect(&worker.addr, "probe-handshake")
            })
            .map_err(|e| format!("probe handshake: {e}"))?;
    }
    let mut client =
        RawClient::connect(&worker.addr, "probe").map_err(|e| format!("probe handshake: {e}"))?;
    let mut probe = Probe::default();
    for (u, oracle) in units.iter().zip(oracles) {
        let w = &u.workload;
        let digest = program_digest(&w.program);
        for spec in u.specs.iter().step_by(PROBE_STRIDE) {
            let id = spec.id as u64;
            let task = tracer.open("wire.task", None, id);
            let frame = Message::Task(TaskFrame {
                program_id: w.name.to_owned(),
                program_digest: digest,
                input: w.input.clone(),
                spec: spec.clone(),
                predicate: u.predicate.clone(),
                search: u.config.search.clone(),
                task_budget: None,
                max_findings: u.config.max_findings_per_task,
                point_workers: 1,
                heartbeat_interval: DEFAULT_HEARTBEAT_INTERVAL,
            });
            let payload = tracer
                .span("wire.encode_message", Some(task), id, || {
                    encode_message(&frame)
                })
                .map_err(|e| format!("encoding a task: {e}"))?;
            probe.task_bytes.push(payload.len() as f64);
            let rtt = tracer.open("wire.round_trip", Some(task), id);
            client
                .send(&payload)
                .map_err(|e| format!("sending a task: {e}"))?;
            let reply = loop {
                let bytes = tracer
                    .span("wire.read_frame", Some(rtt), id, || client.recv())
                    .map_err(|e| format!("reading a reply: {e}"))?;
                let message = tracer
                    .span("wire.decode_message", Some(rtt), id, || {
                        decode_message(&bytes)
                    })
                    .map_err(|e| format!("decoding a reply: {e}"))?;
                match message {
                    Message::Heartbeat => probe.heartbeats += 1,
                    other => break (other, bytes.len()),
                }
            };
            let rtt = tracer.close(rtt);
            tracer.close(task);
            tally.attempted += 1;
            match reply {
                (Message::TaskDone { result, findings }, len) => {
                    probe.done_bytes.push(len as f64);
                    probe.wait_ms.push(ms(rtt.saturating_sub(result.elapsed)));
                    if oracle.get(spec.id) != Some(&task_checksum(&result, &findings)) {
                        tally.failed += 1;
                        tally.problems.push(format!(
                            "{}: TaskDone for shard {} differs from in-process run_task_spec",
                            w.name, spec.id
                        ));
                    }
                }
                (other, _) => {
                    tally.failed += 1;
                    tally
                        .problems
                        .push(format!("{}: shard {} answered {other:?}", w.name, spec.id));
                }
            }
        }
    }
    drop(client);
    worker.shutdown()?;
    Ok(probe)
}

/// Nanoseconds per `FairScheduler::pick` with two equal-priority,
/// backlogged tenants.
fn sched_pick_ns(tracer: &Tracer) -> f64 {
    let clients = [(1u64, true), (1u64, true)];
    let mut scheduler = FairScheduler::new();
    let elapsed = tracer.span("wire.scheduler_picks", None, 0, || {
        let started = Instant::now();
        for _ in 0..PICKS {
            black_box(scheduler.pick(black_box(&clients)));
        }
        started.elapsed()
    });
    elapsed.as_nanos() as f64 / f64::from(PICKS)
}

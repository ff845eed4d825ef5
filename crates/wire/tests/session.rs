//! Event-driven service sessions over loopback: a reply leaves when its
//! task finishes, heartbeats flow only while a task outlives its cadence,
//! `Cancel` is answered without waiting out a timer, and a drain refuses
//! new clients while connected campaigns finish.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sympl_asm::{parse_program, Program};
use sympl_check::{Predicate, SearchLimits};
use sympl_cluster::{run_cluster, shard_specs, ClusterConfig, TaskSpec};
use sympl_detect::DetectorSet;
use sympl_inject::{Campaign, ComputationError, ErrorClass};
use sympl_machine::ExecLimits;
use sympl_wire::{
    decode_message, encode_message, join_coordinator, program_digest, read_frame, read_preamble,
    run_distributed_with, shutdown_worker, write_frame, write_preamble, CampaignJob, ChaosPlan,
    DistOptions, Message, ServeOptions, ServiceStats, TaskFrame, WireError, WorkerServer,
};

fn factorial() -> Program {
    parse_program(
        "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
         loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
         exit: prints \"Factorial = \"\nprint $2\nhalt",
    )
    .unwrap()
}

/// Nested counting loops: each injection point's search takes tens of
/// milliseconds under a 600-step budget, so a task spanning the whole
/// campaign outlives a 20 ms heartbeat cadence many times over.
fn slow_program() -> Program {
    parse_program(
        "read $1\nmov $4 $1\nouter: ori $2 $0 #0\n\
         inner: addi $2 $2 #1\nsetgt $3 $2 $1\nbeq $3 0 inner\n\
         subi $4 $4 #1\nsetgt $5 $4 #0\nbeq $5 1 outer\n\
         prints \"done\"\nhalt",
    )
    .unwrap()
}

fn resolver(id: &str) -> Option<(Program, DetectorSet)> {
    match id {
        "factorial" => Some((factorial(), DetectorSet::new())),
        "slowprog" => Some((slow_program(), DetectorSet::new())),
        _ => None,
    }
}

const SLOW_INPUT: i64 = 6;
const CADENCE: Duration = Duration::from_millis(20);

fn slow_limits() -> SearchLimits {
    SearchLimits {
        exec: ExecLimits::with_max_steps(600),
        ..SearchLimits::default()
    }
}

/// One task frame covering the slow program's whole register campaign.
fn slow_task() -> TaskFrame {
    let program = slow_program();
    let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
    TaskFrame {
        program_id: "slowprog".into(),
        program_digest: program_digest(&program),
        input: vec![SLOW_INPUT],
        spec: shard_specs(&campaign, 1).remove(0),
        predicate: Predicate::OutputContainsErr,
        search: slow_limits(),
        task_budget: None,
        max_findings: 4,
        point_workers: 1,
        heartbeat_interval: CADENCE,
    }
}

/// The longest single point search of [`slow_task`], run in process.
fn longest_slow_point() -> Duration {
    let program = slow_program();
    let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
    let config = ClusterConfig {
        workers: 1,
        tasks: campaign.len(),
        search: slow_limits(),
        task_budget: None,
        max_findings_per_task: 4,
        point_workers_hint: Some(1),
    };
    let report = run_cluster(
        &program,
        &DetectorSet::new(),
        &[SLOW_INPUT],
        &campaign,
        &Predicate::OutputContainsErr,
        &config,
    );
    report.tasks.iter().map(|t| t.elapsed).max().unwrap()
}

/// A coordinator session opened by hand, frame by frame.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str, label: &str) -> Client {
        let mut writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_preamble(&mut writer).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        read_preamble(&mut reader).unwrap();
        let mut client = Client { reader, writer };
        client.send(&Message::ClientHello {
            client: label.into(),
            priority: 1,
        });
        assert!(matches!(client.recv(), Ok(Message::ClientAccept { .. })));
        client
    }

    fn send(&mut self, message: &Message) {
        write_frame(&mut self.writer, &encode_message(message).unwrap()).unwrap();
    }

    fn recv(&mut self) -> Result<Message, WireError> {
        Ok(decode_message(&read_frame(&mut self.reader)?)?)
    }
}

fn start_service() -> (String, JoinHandle<Result<ServiceStats, WireError>>) {
    let server = WorkerServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.serve_with(&resolver, &ServeOptions::default()));
    (addr, handle)
}

#[test]
fn quick_tasks_are_answered_on_completion_not_on_a_poll() {
    // 20 one-point tasks driven one at a time at the default
    // 500 ms cadence. A session that found finished jobs by polling
    // every cadence / 4 spent ≥ 20 × 125 ms waiting; one woken by the
    // executor adds only the loopback round trips to the compute.
    let program = factorial();
    let mut campaign = Campaign::new(
        &program,
        ErrorClass::Computation(ComputationError::DecodeChangedTarget),
    );
    campaign.points.truncate(20);
    let predicate = Predicate::OutputContainsErr;
    let config = ClusterConfig {
        workers: 1,
        tasks: 20,
        search: SearchLimits {
            exec: ExecLimits::with_max_steps(300),
            ..SearchLimits::default()
        },
        task_budget: None,
        max_findings_per_task: 10,
        point_workers_hint: Some(1),
    };
    let local = run_cluster(
        &program,
        &DetectorSet::new(),
        &[4],
        &campaign,
        &predicate,
        &config,
    );
    assert_eq!(local.tasks.len(), 20);
    let job = CampaignJob {
        program: &program,
        program_id: "factorial",
        input: &[4],
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };
    let bound = local.elapsed + Duration::from_secs(1);

    // A listening worker's session.
    let (addr, service) = start_service();
    let opts = DistOptions {
        shutdown_workers: true,
        ..DistOptions::default()
    };
    let started = Instant::now();
    let report = run_distributed_with(&job, &[addr], &opts).unwrap();
    let elapsed = started.elapsed();
    service.join().unwrap().unwrap();
    assert_eq!(report.outcome_digest(), local.outcome_digest());
    assert!(
        elapsed < bound,
        "20 quick tasks took {elapsed:?} over the wire, {:?} in process",
        local.elapsed
    );

    // The same campaign on a worker that joined it.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let join_addr = listener.local_addr().unwrap().to_string();
    let joiner = std::thread::spawn(move || join_coordinator(&join_addr, "joiner", &resolver));
    let opts = DistOptions {
        shutdown_workers: true,
        join_listener: Some(&listener),
        ..DistOptions::default()
    };
    let started = Instant::now();
    let report = run_distributed_with(&job, &[], &opts).unwrap();
    let elapsed = started.elapsed();
    joiner.join().unwrap().unwrap();
    assert_eq!(report.workers_joined, 1);
    assert_eq!(report.outcome_digest(), local.outcome_digest());
    assert!(
        elapsed < bound,
        "20 quick tasks took {elapsed:?} on a joined worker, {:?} in process",
        local.elapsed
    );
}

#[test]
fn heartbeats_flow_only_while_a_task_outlives_its_cadence() {
    let (addr, service) = start_service();
    let mut client = Client::connect(&addr, "beats");

    // A one-point factorial task finishes well inside the default
    // cadence: its reply comes with no heartbeat before it.
    let program = factorial();
    let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
    let spec: TaskSpec = shard_specs(&campaign, campaign.len()).remove(0);
    client.send(&Message::Task(TaskFrame {
        program_id: "factorial".into(),
        program_digest: program_digest(&program),
        input: vec![4],
        spec,
        heartbeat_interval: Duration::from_millis(500),
        ..slow_task()
    }));
    assert!(matches!(client.recv(), Ok(Message::TaskDone { .. })));

    // The whole slow campaign in one task, at a 20 ms cadence.
    let started = Instant::now();
    client.send(&Message::Task(slow_task()));
    let mut beats = Vec::new();
    loop {
        match client.recv().unwrap() {
            Message::Heartbeat => beats.push(started.elapsed()),
            Message::TaskDone { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let took = started.elapsed();
    assert!(
        beats.len() >= 2,
        "a {took:?} task at a {CADENCE:?} cadence sent {} heartbeat(s)",
        beats.len()
    );
    // The liveness contract: no silence as long as the coordinator's
    // deadline (four beats plus a second).
    let mut last = Duration::ZERO;
    for at in beats.iter().copied().chain([took]) {
        assert!(at - last < CADENCE * 4 + Duration::from_secs(1));
        last = at;
    }

    drop(client);
    shutdown_worker(&addr).unwrap();
    service.join().unwrap().unwrap();
}

#[test]
fn a_mid_task_cancel_is_answered_at_the_next_point_boundary() {
    let longest_point = longest_slow_point();
    let (addr, service) = start_service();
    let mut client = Client::connect(&addr, "cancel");
    client.send(&Message::Task(slow_task()));
    // The first heartbeat proves the task is running.
    assert!(matches!(client.recv(), Ok(Message::Heartbeat)));
    let cancelled = Instant::now();
    client.send(&Message::Cancel);
    let reply = loop {
        match client.recv().unwrap() {
            Message::Heartbeat => {}
            other => break other,
        }
    };
    let took = cancelled.elapsed();
    match reply {
        Message::Error(msg) => assert!(msg.contains("cancelled"), "got `{msg}`"),
        other => panic!("expected the typed cancel Error, got {other:?}"),
    }
    // One cadence plus one point boundary, with room for a loaded
    // machine's scheduling.
    let bound = CADENCE + longest_point * 2 + Duration::from_millis(200);
    assert!(
        took < bound,
        "cancel answered after {took:?} (bound {bound:?})"
    );

    drop(client);
    shutdown_worker(&addr).unwrap();
    service.join().unwrap().unwrap();
}

/// Opens a connection and reports whether the service refused it with
/// its typed `Error` frame. An admitted connection sends nothing before
/// the client's hello, so the short read times out instead.
fn is_refused(addr: &str) -> bool {
    let mut writer = TcpStream::connect(addr).unwrap();
    writer
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_preamble(&mut writer).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    read_preamble(&mut reader).unwrap();
    let first = read_frame(&mut reader).map(|payload| decode_message(&payload));
    matches!(first, Ok(Ok(Message::Error(msg))) if msg.contains("capacity"))
}

#[test]
fn a_drain_refuses_new_clients_but_connected_campaigns_finish() {
    let program = factorial();
    let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
    let predicate = Predicate::WrongOutput { expected: vec![24] };
    let config = ClusterConfig {
        workers: 1,
        tasks: 8,
        search: SearchLimits {
            exec: ExecLimits::with_max_steps(300),
            max_solutions: 4,
            ..SearchLimits::default()
        },
        task_budget: None,
        max_findings_per_task: 4,
        point_workers_hint: Some(1),
    };
    let local = run_cluster(
        &program,
        &DetectorSet::new(),
        &[4],
        &campaign,
        &predicate,
        &config,
    );
    let job = CampaignJob {
        program: &program,
        program_id: "factorial",
        input: &[4],
        campaign: &campaign,
        predicate: &predicate,
        config: &config,
    };

    let (addr, service) = start_service();
    // A second tenant, connected before the drain and idle across it.
    let mut idle = Client::connect(&addr, "idle");
    // The drain lands after the campaign's first result, while its
    // coordinator sits between tasks with nothing pending.
    let refused = AtomicBool::new(false);
    let drain_after_first = |results: usize| {
        if results != 1 {
            return;
        }
        shutdown_worker(&addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if is_refused(&addr) {
                refused.store(true, Ordering::SeqCst);
                return;
            }
        }
    };
    let opts = DistOptions {
        chaos: ChaosPlan {
            on_result: Some(&drain_after_first),
            ..ChaosPlan::default()
        },
        ..DistOptions::default()
    };
    let report = run_distributed_with(&job, std::slice::from_ref(&addr), &opts).unwrap();
    assert!(
        refused.load(Ordering::SeqCst),
        "the draining service admitted a new client"
    );
    assert_eq!(report.outcome_digest(), local.outcome_digest());
    assert!(
        !report.degraded,
        "the drain disturbed the campaign's worker"
    );

    // The idle tenant's session is still open and still served.
    let spec = shard_specs(&campaign, campaign.len()).remove(0);
    idle.send(&Message::Task(TaskFrame {
        program_id: "factorial".into(),
        program_digest: program_digest(&program),
        input: vec![4],
        spec,
        heartbeat_interval: Duration::from_millis(500),
        ..slow_task()
    }));
    assert!(matches!(idle.recv(), Ok(Message::TaskDone { .. })));
    // The service exits once its last client hangs up.
    drop(idle);
    let stats = service.join().unwrap().unwrap();
    assert!(stats.refused_clients >= 1);
    assert_eq!(stats.active_clients, 0);
    assert_eq!(
        stats.clients.iter().map(|c| c.completed).sum::<usize>(),
        local.tasks.len() + 1
    );
}

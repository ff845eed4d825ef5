//! The TCP transport: a campaign coordinator and the worker agent.
//!
//! The coordinator ([`run_distributed`] / [`run_distributed_with`])
//! shards a campaign with the same [`sympl_cluster::shard_specs`]
//! partition as the in-process pool, opens one connection per worker
//! address, and drives a request/response loop per worker off a shared
//! task queue. Supervision is heartbeat-based: every in-flight task's
//! worker must beat at the cadence the task frame carries, and a
//! connection silent past [`liveness_deadline`] is declared dead — its
//! task is re-queued for the survivors after a deterministic
//! [`backoff_delay`], the campaign finishing *degraded* rather than
//! aborting as long as one worker remains. Results pool through
//! [`sympl_cluster::pool_results`], so the merged [`CampaignReport`] is
//! ordered exactly as an in-process run's; with a checkpoint file
//! attached, every completed task is also persisted so a coordinator
//! crash can resume instead of restarting.
//!
//! The worker side — a listening [`WorkerServer`] and an outbound
//! [`join_coordinator`] alike — runs every connection as a session of the
//! campaign service in [`crate::service`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_check::Predicate;
use sympl_cluster::{
    merge_part_results, pool_results, shard_specs, split_preserves_outcome, split_spec,
    CampaignReport, ClusterConfig, Finding, TaskResult, TaskSpec,
};
use sympl_detect::DetectorSet;
use sympl_inject::Campaign;

use crate::checkpoint::{campaign_key, load_checkpoint, CheckpointWriter};
use crate::frame::{handshake, read_frame, write_frame};
use crate::proto::{decode_message, encode_message, Message, TaskFrame};
use crate::service::Service;
use crate::{program_digest, WireError};

/// The line a worker prints to stdout once it is ready, followed by its
/// bound socket address — the contract the loopback self-spawn helpers
/// parse to learn an OS-assigned port.
pub const LISTENING_PREFIX: &str = "sympl-wire listening on ";

/// The heartbeat cadence [`run_distributed`] asks workers for when no
/// explicit `--heartbeat-interval` is configured.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// The floor any configured heartbeat interval is clamped to, so a zero
/// or near-zero cadence cannot turn both ends into busy loops.
pub const MIN_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

/// How long a connection with a task in flight may stay silent before the
/// coordinator declares the worker dead: four missed beats plus a second
/// of slack for scheduling and socket latency. Derived from the heartbeat
/// cadence — **never** from the task budget, so unbudgeted tasks are just
/// as supervised as budgeted ones (a wedged worker can no longer hang a
/// campaign whose tasks may legitimately run arbitrarily long).
#[must_use]
pub fn liveness_deadline(heartbeat_interval: Duration) -> Duration {
    heartbeat_interval * 4 + Duration::from_secs(1)
}

/// The deterministic, jitter-free delay before re-queuing a task that has
/// already failed `attempts` times: exponential from 50 ms, capped at
/// 2 s. Zero for a task that has never failed. No randomness — retry
/// schedules must replay identically run-to-run, like everything else in
/// the campaign layer.
#[must_use]
pub fn backoff_delay(attempts: usize) -> Duration {
    if attempts == 0 {
        return Duration::ZERO;
    }
    let base = Duration::from_millis(50);
    let cap = Duration::from_secs(2);
    base.saturating_mul(1u32 << (attempts - 1).min(16)).min(cap)
}

/// How often an idle coordinator connection re-polls the queue (and the
/// service's accept loop re-polls its listener).
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(5);

/// How many times one original shard may be recursively halved by idle
/// workers before the coordinator stops splitting it: a poisonous or
/// merely slow shard fragments into at most `2^MAX_SPLIT_DEPTH` pieces,
/// never forever.
pub const MAX_SPLIT_DEPTH: usize = 6;

/// Locks a mutex, recovering the guard from a poisoned lock: a panic on
/// one dispatch thread must degrade the campaign, not crash the
/// coordinator. Every structure guarded this way (queue, results, fatal
/// error, checkpoint writer) is valid after any partial update — pushes
/// and pops are atomic at the element level.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a task frame's program id to the program and detectors the
/// worker should run. `symplfied serve` resolves the bundled
/// `sympl_apps` workload names; tests plug in whatever they like.
pub type ProgramResolver<'a> = dyn Fn(&str) -> Option<(Program, DetectorSet)> + Sync + 'a;

/// A buffered duplex protocol connection.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
}

/// Encodes `message` and writes it as one frame.
pub(crate) fn send_message(w: &mut impl io::Write, message: &Message) -> Result<(), WireError> {
    write_frame(w, &encode_message(message)?)
}

impl Conn {
    /// Turns Nagle's algorithm off — every frame is a complete message
    /// its peer is waiting for — and exchanges preambles.
    pub(crate) fn establish(mut stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true)?;
        handshake(&mut stream)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(WireError::Io)?),
            writer: stream,
        })
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(WireError::Io)
    }

    pub(crate) fn send(&mut self, message: &Message) -> Result<(), WireError> {
        send_message(&mut self.writer, message)
    }

    pub(crate) fn recv(&mut self) -> Result<Message, WireError> {
        let payload = read_frame(&mut self.reader)?;
        Ok(decode_message(&payload)?)
    }

    /// Waits up to `wait` for the *start* of a frame, then up to `grace`
    /// for the frame to complete. `Ok(None)` means nothing arrived — and
    /// crucially, nothing was consumed: the wait is a buffered `fill_buf`
    /// peek, so a timeout can never eat half a varint and desynchronise
    /// the stream.
    pub(crate) fn poll_recv(
        &mut self,
        wait: Duration,
        grace: Duration,
    ) -> Result<Option<Message>, WireError> {
        self.set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        match self.reader.fill_buf() {
            Ok(buf) => {
                if buf.is_empty() {
                    return Err(WireError::Disconnected);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        }
        self.set_read_timeout(Some(grace.max(Duration::from_millis(1))))?;
        self.recv().map(Some)
    }
}

/// The worker agent: a TCP listener that runs campaign tasks for
/// coordinators. Exposed on the CLI as `symplfied serve --listen <addr>`.
/// [`WorkerServer::serve`] (and its configurable twin
/// [`WorkerServer::serve_with`], in [`crate::service`]) multiplexes many
/// concurrent coordinator sessions over one fairly-scheduled executor.
pub struct WorkerServer {
    pub(crate) listener: TcpListener,
}

impl WorkerServer {
    /// Binds the worker to `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(WorkerServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Prints the [`LISTENING_PREFIX`] readiness line spawn helpers wait
    /// for.
    ///
    /// # Errors
    ///
    /// Any socket error resolving the bound address.
    pub fn announce(&self) -> io::Result<()> {
        println!("{LISTENING_PREFIX}{}", self.local_addr()?);
        // The line must be visible to a parent reading our piped stdout
        // before we block in accept.
        io::stdout().flush()
    }

    /// Serves coordinators with default service options: concurrent
    /// sessions (up to [`crate::DEFAULT_MAX_CLIENTS`]) share one
    /// fairly-scheduled executor, each task answered with a `TaskDone`
    /// (or `Error`) frame. A coordinator hang-up ends only its session; a
    /// `Shutdown` frame drains the service and returns from this function
    /// once the last session closes. See [`WorkerServer::serve_with`] for
    /// the accept gate, status loop, and returned per-client stats.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection errors are reported
    /// to stderr and the worker keeps serving.
    pub fn serve(&self, resolve: &ProgramResolver<'_>) -> Result<(), WireError> {
        self.serve_with(resolve, &crate::ServeOptions::default())
            .map(|_stats| ())
    }
}

/// Joins a *running* campaign as a worker: connects to the coordinator's
/// join listener, sends `Register`, waits for the `Welcome`, then runs the
/// connection as an ordinary service session (no `ClientHello`) until the
/// coordinator shuts it down. Exposed on the CLI as
/// `symplfied serve --join <addr>`.
///
/// Returns once the campaign releases the worker — a `Shutdown` frame
/// and a coordinator hang-up are both clean ends (the campaign is simply
/// over).
///
/// # Errors
///
/// Connection/handshake failures, a coordinator that answers the
/// `Register` with anything but `Welcome`, or a mid-conversation
/// protocol error.
pub fn join_coordinator(
    addr: &str,
    worker_label: &str,
    resolve: &ProgramResolver<'_>,
) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::from)?;
    Service::new(resolve, crate::ServeOptions::default()).join(stream, worker_label)
}

/// Asks the worker service at `addr` to drain: connects, sends a bare
/// `Shutdown` frame, and hangs up. The service stops admitting new
/// clients immediately and exits once its last active session finishes —
/// in-flight campaigns complete undisturbed. The fleet-sharing demos and
/// operator tooling use this to retire a worker no single coordinator
/// owns (a coordinator's own `shutdown_workers` option drains the fleet
/// through its session instead).
///
/// # Errors
///
/// Connection or preamble-handshake failures.
pub fn shutdown_worker(addr: &str) -> Result<(), WireError> {
    let stream = TcpStream::connect(addr).map_err(WireError::from)?;
    let mut conn = Conn::establish(stream)?;
    conn.send(&Message::Shutdown)
}

/// A campaign to distribute: the same inputs [`sympl_cluster::run_cluster`]
/// takes, plus the program id remote workers resolve. The coordinator
/// never runs a search itself — the program is only needed to compute the
/// digest workers verify against.
pub struct CampaignJob<'a> {
    /// The campaign's program (digested into every task frame).
    pub program: &'a Program,
    /// The id workers resolve (a bundled workload name, e.g. `"tcas"`).
    pub program_id: &'a str,
    /// The campaign's input stream.
    pub input: &'a [i64],
    /// The injection campaign to shard.
    pub campaign: &'a Campaign,
    /// The outcome predicate (must be wire-encodable).
    pub predicate: &'a Predicate,
    /// Budgets and sharding — `workers` is ignored (the worker list
    /// plays that role); everything else means what it means in-process.
    pub config: &'a ClusterConfig,
}

/// Test-only failure hooks threaded through [`DistOptions`]; all `None`
/// in production. See the [`crate::chaos`] module for the network-level
/// injector these compose with.
#[derive(Default)]
pub struct ChaosPlan<'a> {
    /// Abort the coordinator (as if it crashed) once this many task
    /// results have been pooled — deterministic stand-in for a SIGKILL'd
    /// coordinator, used by the checkpoint/resume acceptance tests. The
    /// run fails with [`WireError::CoordinatorAborted`]; workers are NOT
    /// shut down, so a resume leg can reuse them.
    pub abort_after_results: Option<usize>,
    /// Called with the running completed-result count after each pooled
    /// result — the kill-a-worker-mid-campaign tests use it to SIGKILL a
    /// loopback worker at a deterministic point in the run.
    pub on_result: Option<&'a (dyn Fn(usize) + Sync)>,
    /// Called exactly once, when the completed-result count first reaches
    /// the threshold — the elastic acceptance legs use it to launch
    /// late-joining workers at a deterministic point in the run
    /// (deterministic in campaign progress, that is; the join itself
    /// still races the remaining work, which is the point).
    pub delayed_join: Option<(usize, &'a (dyn Fn() + Sync))>,
}

/// Coordinator options beyond the worker list.
pub struct DistOptions<'a> {
    /// Send each surviving worker a `Shutdown` frame once the queue
    /// drains (the loopback self-spawn mode uses it so worker processes
    /// exit cleanly).
    pub shutdown_workers: bool,
    /// The heartbeat cadence workers are asked for (clamped to
    /// [`MIN_HEARTBEAT_INTERVAL`]); the liveness deadline is derived from
    /// it via [`liveness_deadline`].
    pub heartbeat_interval: Duration,
    /// Append every completed task to a checkpoint file at this path
    /// (created/truncated at start, carried-over resume entries
    /// rewritten first).
    pub checkpoint: Option<&'a Path>,
    /// Seed completed tasks from this checkpoint file and re-queue only
    /// the missing shards. The checkpoint's campaign key must match this
    /// job's ([`WireError::StaleCheckpoint`] otherwise).
    pub resume: Option<&'a Path>,
    /// Accept late-joining workers on this listener for the duration of
    /// the campaign: a `Register` frame admits the connection into the
    /// same queue/results machinery as the pre-listed workers. The
    /// listener is switched to non-blocking and polled; it outlives the
    /// run (the caller owns it).
    pub join_listener: Option<&'a TcpListener>,
    /// Let idle workers trigger wire-level shard splitting: when the
    /// queue is empty but shards are in flight, the largest in-flight
    /// shard is cancelled, halved via [`sympl_cluster::split_spec`], and
    /// both halves re-queued (down to [`MAX_SPLIT_DEPTH`]). Only honoured
    /// when [`sympl_cluster::split_preserves_outcome`] holds for every
    /// shard — otherwise splitting could move the outcome digest, and the
    /// option is ignored with a warning.
    pub split_idle: bool,
    /// The label this coordinator announces in its `ClientHello` to each
    /// worker's campaign service — free-form, for the service's logs and
    /// per-client stats (never the campaign key or outcome digest).
    /// `None` announces `coordinator-pid<pid>`.
    pub client_label: Option<String>,
    /// The scheduling weight announced in the `ClientHello`: a
    /// backlogged client receives this many task slots per service
    /// scheduler round (clamped to ≥ 1; the default 1 shares equally).
    pub client_priority: u64,
    /// Test-only failure injection.
    pub chaos: ChaosPlan<'a>,
}

impl Default for DistOptions<'_> {
    fn default() -> Self {
        DistOptions {
            shutdown_workers: false,
            heartbeat_interval: DEFAULT_HEARTBEAT_INTERVAL,
            checkpoint: None,
            resume: None,
            join_listener: None,
            split_idle: false,
            client_label: None,
            client_priority: 1,
            chaos: ChaosPlan::default(),
        }
    }
}

/// A queued task: its spec, the contiguous range of the *parent* shard's
/// point list it covers (the whole list for an unsplit shard), its split
/// depth, how many workers have already failed it, and the deterministic
/// earliest instant it may be handed out again ([`backoff_delay`]).
struct QueuedTask {
    spec: TaskSpec,
    /// `[start, end)` offsets into the parent shard's original point
    /// list. Split halves carry the parent's id; the range is what lets
    /// the coordinator re-assemble them in canonical order.
    range: (usize, usize),
    /// How many times this entry's ancestry has been halved.
    depth: usize,
    attempts: usize,
    ready_at: Instant,
}

enum Popped {
    Ready(QueuedTask),
    /// Tasks exist but all are still backing off.
    Delayed,
    Empty,
}

fn pop_task(queue: &Mutex<VecDeque<QueuedTask>>, in_flight: &AtomicUsize) -> Popped {
    let mut q = lock_recovering(queue);
    if q.is_empty() {
        return Popped::Empty;
    }
    let now = Instant::now();
    let Some(idx) = q.iter().position(|t| t.ready_at <= now) else {
        return Popped::Delayed;
    };
    let task = q.remove(idx).expect("position() index in bounds");
    // Under the queue lock, so an observer can never see "queue empty and
    // nothing in flight" while this task is still going to come back.
    in_flight.fetch_add(1, Ordering::SeqCst);
    Popped::Ready(task)
}

/// Per-connection membership state the coordinator's split logic reads:
/// what the worker is chewing on (so an idle peer can pick the biggest
/// victim) and the one-shot split request flag the dispatch loop polls.
#[derive(Default)]
struct WorkerSlot {
    /// Points in the worker's in-flight task; 0 when idle.
    in_flight_points: AtomicUsize,
    /// Split depth of the in-flight task.
    in_flight_depth: AtomicUsize,
    /// Set by an idle worker to ask this one to give up half its shard.
    split_requested: AtomicBool,
    /// The connection is gone; never pick this slot again.
    gone: AtomicBool,
}

/// A completed split part, keyed in the assembly map by its start offset:
/// `(end, result, findings)`.
type PartEntry = (usize, TaskResult, Vec<Finding>);

/// Everything the coordinator's worker threads share. Pre-listed
/// connections and late joiners run the identical [`Self::worker_loop`];
/// membership only changes who is pulling from the queue, never what the
/// merged report contains.
struct Coordinator<'a> {
    job: &'a CampaignJob<'a>,
    opts: &'a DistOptions<'a>,
    digest: u128,
    point_workers: usize,
    heartbeat_interval: Duration,
    liveness: Duration,
    split_enabled: bool,
    /// Pre-listed worker count (the retry budget's base; joiners extend
    /// it, so a campaign that grew can tolerate more failures per task).
    base_workers: usize,
    /// Original point count of each shard, by task id.
    task_points: Vec<usize>,
    queue: Mutex<VecDeque<QueuedTask>>,
    /// Completed split parts awaiting their siblings: task id → start
    /// offset → part. A shard leaves this map the moment its parts cover
    /// `[0, task_points[id])` contiguously, merged in offset order.
    parts: Mutex<HashMap<usize, BTreeMap<usize, PartEntry>>>,
    results: Mutex<Vec<(TaskResult, Vec<Finding>)>>,
    writer: Mutex<Option<CheckpointWriter>>,
    fatal: Mutex<Option<WireError>>,
    abort: AtomicBool,
    /// The queue drained with nothing in flight: joiner admission stops.
    finished: AtomicBool,
    delayed_join_fired: AtomicBool,
    in_flight: AtomicUsize,
    completed: AtomicUsize,
    tasks_retried: AtomicUsize,
    workers_lost: AtomicUsize,
    workers_joined: AtomicUsize,
    tasks_split: AtomicUsize,
    /// Worker threads alive (connected or still connecting) — the accept
    /// thread's liveness signal.
    active_workers: AtomicUsize,
    membership: Mutex<Vec<Arc<WorkerSlot>>>,
}

impl Coordinator<'_> {
    fn add_slot(&self) -> Arc<WorkerSlot> {
        let slot = Arc::new(WorkerSlot::default());
        lock_recovering(&self.membership).push(Arc::clone(&slot));
        slot
    }

    /// A task that failed on this many workers is declared poisonous and
    /// aborts the campaign instead of cycling forever. Read at failure
    /// time: a fleet that grew mid-campaign has more distinct workers a
    /// task could still succeed on.
    fn max_attempts(&self) -> usize {
        (self.base_workers + self.workers_joined.load(Ordering::Relaxed)).max(1)
    }

    /// Picks the busiest splittable in-flight shard and asks its worker
    /// to give half up. Called by idle workers; at most one outstanding
    /// request per victim.
    fn request_split(&self) {
        let membership = lock_recovering(&self.membership);
        let victim = membership
            .iter()
            .filter(|s| {
                !s.gone.load(Ordering::Relaxed) && !s.split_requested.load(Ordering::Relaxed)
            })
            .filter(|s| {
                s.in_flight_points.load(Ordering::Relaxed) >= 2
                    && s.in_flight_depth.load(Ordering::Relaxed) < MAX_SPLIT_DEPTH
            })
            .max_by_key(|s| s.in_flight_points.load(Ordering::Relaxed));
        if let Some(victim) = victim {
            victim.split_requested.store(true, Ordering::Relaxed);
        }
    }

    /// Accepts `Register` connections for the duration of the campaign,
    /// spawning an ordinary worker loop per admitted joiner on the same
    /// scope as the pre-listed workers.
    fn accept_joiners<'s>(&'s self, scope: &'s std::thread::Scope<'s, '_>, listener: &TcpListener) {
        if let Err(e) = listener.set_nonblocking(true) {
            eprintln!("sympl-wire coordinator: join listener unusable: {e}");
            return;
        }
        let mut no_workers_since: Option<Instant> = None;
        loop {
            if self.finished.load(Ordering::Relaxed) || self.abort.load(Ordering::Relaxed) {
                return;
            }
            // All workers gone and none joining: give a departed fleet one
            // liveness window to be replaced, then stop so the campaign
            // can fail with `NoWorkersLeft` instead of waiting forever.
            if self.active_workers.load(Ordering::SeqCst) == 0 {
                let since = *no_workers_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= self.liveness {
                    return;
                }
            } else {
                no_workers_since = None;
            }
            match listener.accept() {
                Ok((stream, peer)) => match self.admit(stream) {
                    Ok(conn) => {
                        self.workers_joined.fetch_add(1, Ordering::Relaxed);
                        self.active_workers.fetch_add(1, Ordering::SeqCst);
                        let slot = self.add_slot();
                        let label = format!("joined worker {peer}");
                        scope.spawn(move || {
                            self.worker_loop(conn, &slot, &label);
                            self.active_workers.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    // A malformed preamble, version mismatch, or a frame
                    // other than Register: refuse this connection, keep
                    // the listener.
                    Err(e) => {
                        eprintln!("sympl-wire coordinator: join from {peer} refused: {e}");
                    }
                },
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE_POLL);
                }
                Err(e) => {
                    eprintln!("sympl-wire coordinator: join listener failed: {e}");
                    return;
                }
            }
        }
    }

    /// Handshakes a join connection and runs the admission exchange:
    /// expect `Register`, answer `Welcome` with the campaign's program
    /// identity.
    fn admit(&self, stream: TcpStream) -> Result<Conn, WireError> {
        let mut conn = Conn::establish(stream)?;
        conn.set_read_timeout(Some(Duration::from_secs(5)))?;
        match conn.recv()? {
            Message::Register { worker } => {
                eprintln!("sympl-wire coordinator: admitted worker `{worker}`");
            }
            _ => return Err(WireError::UnexpectedMessage("register")),
        }
        conn.send(&Message::Welcome {
            program_id: self.job.program_id.to_owned(),
            program_digest: self.digest,
        })?;
        conn.set_read_timeout(None)?;
        Ok(conn)
    }

    /// One worker connection's dispatch loop — identical for pre-listed
    /// workers and admitted joiners.
    fn worker_loop(&self, mut conn: Conn, slot: &WorkerSlot, label: &str) {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                slot.gone.store(true, Ordering::Relaxed);
                return;
            }
            let task = match pop_task(&self.queue, &self.in_flight) {
                Popped::Ready(task) => task,
                Popped::Delayed => {
                    std::thread::sleep(IDLE_POLL);
                    continue;
                }
                Popped::Empty => {
                    if self.in_flight.load(Ordering::SeqCst) > 0 {
                        // Another worker may yet fail and re-queue its
                        // task — stay available, and if splitting is on,
                        // ask the biggest in-flight shard to share.
                        if self.split_enabled {
                            self.request_split();
                        }
                        std::thread::sleep(IDLE_POLL);
                        continue;
                    }
                    self.finished.store(true, Ordering::Relaxed);
                    slot.gone.store(true, Ordering::Relaxed);
                    if self.opts.shutdown_workers {
                        let _ = conn.send(&Message::Shutdown);
                    }
                    return;
                }
            };
            let splittable =
                self.split_enabled && task.spec.points.len() >= 2 && task.depth < MAX_SPLIT_DEPTH;
            slot.in_flight_points
                .store(task.spec.points.len(), Ordering::Relaxed);
            slot.in_flight_depth.store(task.depth, Ordering::Relaxed);
            // A panicking dispatch degrades this worker (its task is
            // re-queued below) instead of crashing the coordinator with a
            // poisoned lock.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                dispatch_task(
                    &mut conn,
                    self.job,
                    self.digest,
                    self.point_workers,
                    &task.spec,
                    self.heartbeat_interval,
                    self.liveness,
                    &self.abort,
                    slot,
                    splittable,
                )
            }))
            .unwrap_or_else(|_| {
                Err(WireError::Io(io::Error::other(
                    "coordinator dispatch thread panicked",
                )))
            });
            slot.in_flight_points.store(0, Ordering::Relaxed);
            slot.split_requested.store(false, Ordering::Relaxed);
            match outcome {
                Ok(DispatchOutcome::Done(result, findings)) => {
                    self.complete(&task, result, findings);
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                Ok(DispatchOutcome::SplitCancelled) => {
                    self.requeue_halves(task);
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                }
                Err(e) => {
                    if self.abort.load(Ordering::Relaxed) {
                        // The campaign is aborting; nothing to re-queue
                        // for.
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                        slot.gone.store(true, Ordering::Relaxed);
                        return;
                    }
                    if task.attempts + 1 >= self.max_attempts() {
                        *lock_recovering(&self.fatal) = Some(e);
                        self.abort.store(true, Ordering::Relaxed);
                    } else {
                        let attempts = task.attempts + 1;
                        let delay = backoff_delay(attempts);
                        eprintln!(
                            "sympl-wire coordinator: worker {label} failed task {} \
                             (attempt {attempts}): {e}; re-queueing after {delay:?}",
                            task.spec.id,
                        );
                        lock_recovering(&self.queue).push_front(QueuedTask {
                            ready_at: Instant::now() + delay,
                            attempts,
                            ..task
                        });
                        self.tasks_retried.fetch_add(1, Ordering::Relaxed);
                        self.workers_lost.fetch_add(1, Ordering::Relaxed);
                    }
                    // Re-queue before the decrement (see in_flight above),
                    // then abandon this connection; the rest of the queue
                    // is the other workers'.
                    self.in_flight.fetch_sub(1, Ordering::SeqCst);
                    slot.gone.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Splits a cancelled task's spec in two and re-queues both halves at
    /// the front of the queue — the requesting idle worker grabs one, the
    /// cancelled worker's loop comes back for the other.
    fn requeue_halves(&self, task: QueuedTask) {
        match split_spec(&task.spec) {
            Some((left, right)) => {
                let mid = task.range.0 + left.points.len();
                let now = Instant::now();
                {
                    let mut q = lock_recovering(&self.queue);
                    q.push_front(QueuedTask {
                        spec: right,
                        range: (mid, task.range.1),
                        depth: task.depth + 1,
                        attempts: task.attempts,
                        ready_at: now,
                    });
                    q.push_front(QueuedTask {
                        spec: left,
                        range: (task.range.0, mid),
                        depth: task.depth + 1,
                        attempts: task.attempts,
                        ready_at: now,
                    });
                }
                self.tasks_split.fetch_add(1, Ordering::Relaxed);
            }
            // A stale split request on an unsplittable task: just put it
            // back whole.
            None => lock_recovering(&self.queue).push_front(task),
        }
    }

    /// Books a finished dispatch: a whole shard finalizes directly; a
    /// split part waits in the assembly map until its siblings cover the
    /// parent's full point range, then the parts merge (in offset order —
    /// canonical point order) and finalize as one shard.
    fn complete(&self, task: &QueuedTask, result: TaskResult, findings: Vec<Finding>) {
        let id = task.spec.id;
        let total = self.task_points[id];
        if task.range == (0, total) {
            self.finalize(result, findings);
            return;
        }
        let merged = {
            let mut parts = lock_recovering(&self.parts);
            let entry = parts.entry(id).or_default();
            // First writer wins per range start: duplicate delivery (or a
            // cancelled-then-retried part) can never double-count.
            entry
                .entry(task.range.0)
                .or_insert((task.range.1, result, findings));
            let mut cursor = 0usize;
            while let Some(&(end, ..)) = entry.get(&cursor) {
                cursor = end;
            }
            if cursor == total {
                parts.remove(&id)
            } else {
                None
            }
        };
        if let Some(map) = merged {
            let parts: Vec<_> = map.into_values().map(|(_, r, f)| (r, f)).collect();
            if let Some((result, findings)) = merge_part_results(parts) {
                self.finalize(result, findings);
            }
        }
    }

    /// Checkpoints, pools, and counts one completed shard, firing the
    /// chaos hooks that key off campaign progress.
    fn finalize(&self, result: TaskResult, findings: Vec<Finding>) {
        {
            let mut w = lock_recovering(&self.writer);
            if let Some(writer) = w.as_mut() {
                if let Err(e) = writer.append(&result, &findings) {
                    eprintln!(
                        "sympl-wire coordinator: checkpoint append failed ({e}); \
                         checkpointing disabled"
                    );
                    *w = None;
                }
            }
        }
        lock_recovering(&self.results).push((result, findings));
        let n = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(on_result) = self.opts.chaos.on_result {
            on_result(n);
        }
        if let Some((threshold, hook)) = self.opts.chaos.delayed_join {
            if n >= threshold && !self.delayed_join_fired.swap(true, Ordering::Relaxed) {
                hook();
            }
        }
        if self
            .opts
            .chaos
            .abort_after_results
            .is_some_and(|cap| n >= cap)
            && !self.abort.swap(true, Ordering::Relaxed)
        {
            *lock_recovering(&self.fatal) = Some(WireError::CoordinatorAborted { completed: n });
        }
    }
}

/// Runs a campaign across remote workers with default options — the
/// supervision layer (heartbeats, liveness, deterministic backoff,
/// graceful degradation) is always on; checkpointing and chaos are not.
/// See [`run_distributed_with`].
///
/// # Errors
///
/// Those of [`run_distributed_with`].
pub fn run_distributed(
    job: &CampaignJob<'_>,
    workers_at: &[String],
    shutdown_workers: bool,
) -> Result<CampaignReport, WireError> {
    run_distributed_with(
        job,
        workers_at,
        &DistOptions {
            shutdown_workers,
            ..DistOptions::default()
        },
    )
}

/// Runs a campaign across remote workers, returning the same
/// [`CampaignReport`] an in-process [`sympl_cluster::run_cluster`] with
/// the same config produces (wall-clock and scheduling-telemetry fields
/// aside; see the crate docs' determinism contract) — including a run
/// resumed from a checkpoint, whose merged report's
/// [`CampaignReport::outcome_digest`] is identical to an uninterrupted
/// run's.
///
/// # Errors
///
/// [`WireError::NoWorkersLeft`] when tasks remain but every worker
/// connection failed, died, or exhausted its retries; the fatal error of
/// a task that failed on every worker; [`WireError::StaleCheckpoint`] /
/// checkpoint parse errors when resuming; [`WireError::CoordinatorAborted`]
/// from the chaos plan; never a partial report.
pub fn run_distributed_with(
    job: &CampaignJob<'_>,
    workers_at: &[String],
    opts: &DistOptions<'_>,
) -> Result<CampaignReport, WireError> {
    let start = Instant::now();
    let digest = program_digest(job.program);
    let point_workers = job.config.point_share();
    let heartbeat_interval = opts.heartbeat_interval.max(MIN_HEARTBEAT_INTERVAL);
    let liveness = liveness_deadline(heartbeat_interval);

    let specs = shard_specs(job.campaign, job.config.tasks);
    let tasks_total = specs.len();

    // Resume: seed completed tasks from the checkpoint, keyed so a
    // checkpoint from a different program/config/campaign is refused.
    let key = if opts.checkpoint.is_some() || opts.resume.is_some() {
        Some(campaign_key(job)?)
    } else {
        None
    };
    let mut seeded: Vec<(TaskResult, Vec<Finding>)> = Vec::new();
    if let Some(path) = opts.resume {
        let file = load_checkpoint(path)?;
        let key = key.expect("resume implies a campaign key");
        if file.key != key {
            return Err(WireError::StaleCheckpoint(format!(
                "campaign key mismatch (checkpoint {:032x}, this campaign {:032x})",
                file.key, key
            )));
        }
        if file.tasks_total != tasks_total {
            return Err(WireError::StaleCheckpoint(format!(
                "shard count mismatch (checkpoint {}, this campaign {tasks_total})",
                file.tasks_total
            )));
        }
        let mut have = vec![false; tasks_total];
        for (result, findings) in file.entries {
            if result.id < tasks_total && !have[result.id] {
                have[result.id] = true;
                seeded.push((result, findings));
            }
        }
    }
    let resumed_tasks = seeded.len();
    let done = {
        let mut done = vec![false; tasks_total];
        for (result, _) in &seeded {
            done[result.id] = true;
        }
        done
    };

    let writer: Mutex<Option<CheckpointWriter>> = Mutex::new(match opts.checkpoint {
        Some(path) => {
            let mut w =
                CheckpointWriter::create(path, key.expect("checkpoint implies key"), tasks_total)?;
            // Carried-over entries are rewritten so the new file is
            // self-contained.
            for (result, findings) in &seeded {
                w.append(result, findings)?;
            }
            Some(w)
        }
        None => None,
    });

    // The original point count of every shard, by task id — what the
    // part-assembly map checks contiguous coverage against.
    let task_points: Vec<usize> = specs.iter().map(|s| s.points.len()).collect();

    // Splitting is only exactness-preserving when the finding cap can
    // never bind and there is no wall-clock task budget; otherwise the
    // digest could move with the split schedule, so the option is refused
    // wholesale (any sub-range of a shard that passes the gate passes it
    // too, so the guarantee survives recursive splitting).
    let split_enabled = opts.split_idle && {
        let ok = specs
            .iter()
            .all(|spec| split_preserves_outcome(spec, job.config));
        if !ok {
            eprintln!(
                "sympl-wire coordinator: --split-idle ignored (a task budget or a \
                 binding finding cap makes shard splitting outcome-changing)"
            );
        }
        ok
    };

    let co = Coordinator {
        job,
        opts,
        digest,
        point_workers,
        heartbeat_interval,
        liveness,
        split_enabled,
        base_workers: workers_at.len(),
        task_points,
        queue: Mutex::new(
            specs
                .into_iter()
                .filter(|spec| !done[spec.id])
                .map(|spec| QueuedTask {
                    range: (0, spec.points.len()),
                    spec,
                    depth: 0,
                    attempts: 0,
                    ready_at: start,
                })
                .collect(),
        ),
        parts: Mutex::new(HashMap::new()),
        results: Mutex::new(seeded),
        writer,
        fatal: Mutex::new(None),
        abort: AtomicBool::new(false),
        finished: AtomicBool::new(false),
        delayed_join_fired: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        completed: AtomicUsize::new(resumed_tasks),
        tasks_retried: AtomicUsize::new(0),
        workers_lost: AtomicUsize::new(0),
        workers_joined: AtomicUsize::new(0),
        tasks_split: AtomicUsize::new(0),
        active_workers: AtomicUsize::new(0),
        membership: Mutex::new(Vec::new()),
    };

    // The session identity announced to each worker's campaign service.
    // One campaign, one label — every per-worker connection belongs to
    // the same logical client.
    let client_label = opts
        .client_label
        .clone()
        .unwrap_or_else(|| format!("coordinator-pid{}", std::process::id()));
    let client_priority = opts.client_priority.max(1);

    std::thread::scope(|scope| {
        let co = &co;
        let client_label = client_label.as_str();
        for addr in workers_at {
            co.active_workers.fetch_add(1, Ordering::SeqCst);
            scope.spawn(move || {
                match TcpStream::connect(addr.as_str())
                    .map_err(WireError::from)
                    .and_then(Conn::establish)
                    .and_then(|mut conn| {
                        client_handshake(&mut conn, client_label, client_priority, co.liveness)?;
                        Ok(conn)
                    }) {
                    Ok(conn) => {
                        let slot = co.add_slot();
                        co.worker_loop(conn, &slot, addr);
                    }
                    Err(e) => {
                        eprintln!("sympl-wire coordinator: cannot reach worker {addr}: {e}");
                        co.workers_lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                co.active_workers.fetch_sub(1, Ordering::SeqCst);
            });
        }
        if let Some(listener) = opts.join_listener {
            scope.spawn(move || co.accept_joiners(scope, listener));
        }
    });

    if let Some(err) = co
        .fatal
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(err);
    }
    let pending = co
        .queue
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .len();
    if pending > 0 {
        return Err(WireError::NoWorkersLeft { pending });
    }
    let lost = co.workers_lost.load(Ordering::Relaxed);
    let mut report = pool_results(
        co.results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
        start.elapsed(),
    );
    report.degraded = lost > 0;
    report.workers_lost = lost;
    report.tasks_retried = co.tasks_retried.load(Ordering::Relaxed);
    report.resumed_tasks = resumed_tasks;
    report.workers_joined = co.workers_joined.load(Ordering::Relaxed);
    report.tasks_split = co.tasks_split.load(Ordering::Relaxed);
    Ok(report)
}

/// The coordinator's half of the v4 session hello: announce a client
/// label + scheduling priority, wait (boundedly) for the service's
/// `ClientAccept`. A typed `Error` answer — the service's capacity
/// refusal — surfaces as [`WireError::Remote`], so a full fleet fails
/// the connection loudly instead of hanging the campaign.
fn client_handshake(
    conn: &mut Conn,
    label: &str,
    priority: u64,
    liveness: Duration,
) -> Result<(), WireError> {
    conn.send(&Message::ClientHello {
        client: label.to_owned(),
        priority: priority.max(1),
    })?;
    conn.set_read_timeout(Some(liveness.max(Duration::from_secs(5))))?;
    match conn.recv()? {
        Message::ClientAccept { .. } => {
            conn.set_read_timeout(None)?;
            Ok(())
        }
        Message::Error(msg) => Err(WireError::Remote(msg)),
        _ => Err(WireError::UnexpectedMessage("client accept")),
    }
}

/// Why a `Cancel` frame went out mid-dispatch: a campaign abort discards
/// the task; a split request wants the worker's shard back to halve it.
#[derive(Clone, Copy, PartialEq)]
enum CancelReason {
    Abort,
    Split,
}

/// What one supervised dispatch produced.
enum DispatchOutcome {
    /// The worker answered `TaskDone` (possibly racing a split request —
    /// a completed shard beats a split, so the result stands).
    Done(TaskResult, Vec<Finding>),
    /// The worker acknowledged a split-`Cancel`: its partial work is
    /// discarded and the shard's points are free to re-queue as halves.
    SplitCancelled,
}

/// Sends one task to a worker and supervises it to completion: heartbeats
/// re-arm the liveness deadline, silence past it fails the connection,
/// a campaign abort sends `Cancel` and waits (boundedly) for the worker
/// to acknowledge, and — when `splittable` — a split request on `slot`
/// sends the same `Cancel` to reclaim the shard for halving.
#[allow(clippy::too_many_arguments)]
fn dispatch_task(
    conn: &mut Conn,
    job: &CampaignJob<'_>,
    digest: u128,
    point_workers: usize,
    spec: &TaskSpec,
    heartbeat_interval: Duration,
    liveness: Duration,
    abort: &AtomicBool,
    slot: &WorkerSlot,
    splittable: bool,
) -> Result<DispatchOutcome, WireError> {
    conn.send(&Message::Task(TaskFrame {
        program_id: job.program_id.to_owned(),
        program_digest: digest,
        input: job.input.to_vec(),
        spec: spec.clone(),
        predicate: job.predicate.clone(),
        search: job.config.search.clone(),
        task_budget: job.config.task_budget,
        max_findings: job.config.max_findings_per_task,
        point_workers,
        heartbeat_interval,
    }))?;
    let poll = (liveness / 8).clamp(Duration::from_millis(5), Duration::from_millis(100));
    let mut last_signal = Instant::now();
    let mut cancel_sent: Option<(Instant, CancelReason)> = None;
    loop {
        if cancel_sent.is_none() {
            // An abort outranks a split: both send Cancel, but an abort
            // discards the answer while a split re-queues the points.
            if abort.load(Ordering::Relaxed) {
                conn.send(&Message::Cancel)?;
                cancel_sent = Some((Instant::now(), CancelReason::Abort));
            } else if splittable && slot.split_requested.load(Ordering::Relaxed) {
                conn.send(&Message::Cancel)?;
                cancel_sent = Some((Instant::now(), CancelReason::Split));
            }
        }
        if let Some((sent, _)) = cancel_sent {
            // Bounded wait for the worker's acknowledgement, heartbeats
            // notwithstanding — the abort must not block on a wedged peer.
            if sent.elapsed() >= liveness {
                return Err(WireError::TaskCancelled);
            }
        }
        match conn.poll_recv(poll, liveness)? {
            None => {
                if last_signal.elapsed() >= liveness {
                    return Err(WireError::LivenessExpired {
                        silent_for: last_signal.elapsed(),
                    });
                }
            }
            Some(Message::Heartbeat) => last_signal = Instant::now(),
            Some(Message::TaskDone { result, findings }) => {
                // A result that does not describe the dispatched shard —
                // a duplicated or stale frame from an earlier task — must
                // never be booked as this task's answer; fail the
                // connection so the shard re-queues and re-runs cleanly.
                if result.id != spec.id || result.points_total != spec.points.len() {
                    return Err(WireError::UnexpectedMessage("stale result"));
                }
                return match cancel_sent {
                    // The completion raced our abort-Cancel; the campaign
                    // is aborting, so the result is discarded either way.
                    Some((_, CancelReason::Abort)) => Err(WireError::TaskCancelled),
                    // A completion racing a split-Cancel wins: the shard
                    // is done, there is nothing left to split.
                    _ => Ok(DispatchOutcome::Done(result, findings)),
                };
            }
            Some(Message::Error(msg)) => {
                return match cancel_sent {
                    Some((_, CancelReason::Abort)) => Err(WireError::TaskCancelled),
                    Some((_, CancelReason::Split)) => Ok(DispatchOutcome::SplitCancelled),
                    None => Err(WireError::Remote(msg)),
                };
            }
            Some(
                Message::Task(_)
                | Message::Shutdown
                | Message::Cancel
                | Message::Register { .. }
                | Message::Welcome { .. }
                | Message::ClientHello { .. }
                | Message::ClientAccept { .. },
            ) => {
                return Err(WireError::UnexpectedMessage("task"));
            }
        }
    }
}

/// Worker processes spawned on loopback for tests, demos, and CI; killed
/// on drop if still running.
pub struct SpawnedWorkers {
    /// The workers' bound addresses, ready for [`run_distributed`].
    pub addrs: Vec<String>,
    children: Vec<Child>,
}

impl SpawnedWorkers {
    /// SIGKILLs worker `idx` (by position in [`SpawnedWorkers::addrs`])
    /// and removes it from the set, returning its address. The chaos
    /// suite calls this mid-campaign; a later [`SpawnedWorkers::join`]
    /// only waits on the survivors.
    ///
    /// # Errors
    ///
    /// Any kill/wait error.
    ///
    /// # Panics
    ///
    /// When `idx` is out of bounds.
    pub fn kill_one(&mut self, idx: usize) -> io::Result<String> {
        let mut child = self.children.remove(idx);
        let addr = self.addrs.remove(idx);
        // Always reap, even when the kill itself errors, so a half-dead
        // child can't linger as a zombie.
        let killed = child.kill();
        let waited = child.wait();
        killed.and(waited)?;
        Ok(addr)
    }

    /// Waits for every worker process to exit (after a campaign run with
    /// `shutdown_workers = true`), for up to ~10 seconds per worker.
    ///
    /// A worker whose coordinator connection was abandoned mid-campaign
    /// (failure → re-queue) never receives a `Shutdown` frame and sits in
    /// its accept loop; rather than hang forever, such a worker is killed
    /// and reported as an error — the campaign's results are unaffected,
    /// but a clean-shutdown assertion (the integration tests') should see
    /// it.
    ///
    /// # Errors
    ///
    /// Any wait error, a worker exiting unsuccessfully, or a worker that
    /// had to be killed after the grace period.
    pub fn join(mut self) -> io::Result<()> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        // Pop children one at a time so an early error return leaves the
        // rest inside `self` for `Drop` to kill — a lazy `drain` would
        // leak them as orphan processes instead.
        while let Some(mut child) = self.children.pop() {
            let status = loop {
                if let Some(status) = child.try_wait()? {
                    break status;
                }
                if std::time::Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(
                        "worker did not exit after shutdown; killed",
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            if !status.success() {
                return Err(io::Error::other(format!("worker exited with {status}")));
            }
        }
        Ok(())
    }
}

impl Drop for SpawnedWorkers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns `n` worker processes of `exe` on 127.0.0.1, waiting for each to
/// print its [`LISTENING_PREFIX`] readiness line. `args` is the argument
/// prefix that puts the executable into worker mode listening on
/// `127.0.0.1:0` (e.g. `["serve", "--listen", "127.0.0.1:0"]` for the
/// `symplfied` CLI, or a campaign binary's self-spawn flag).
///
/// # Errors
///
/// Any spawn error, or a worker exiting / closing stdout before
/// announcing readiness.
pub fn spawn_loopback_workers(exe: &Path, args: &[String], n: usize) -> io::Result<SpawnedWorkers> {
    let mut workers = SpawnedWorkers {
        addrs: Vec::with_capacity(n),
        children: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let Some(line) = lines.next() else {
                let _ = child.kill();
                return Err(io::Error::other(
                    "worker exited before announcing its address",
                ));
            };
            let line = line?;
            if let Some(addr) = line.strip_prefix(LISTENING_PREFIX) {
                break addr.trim().to_owned();
            }
        };
        workers.addrs.push(addr);
        workers.children.push(child);
    }
    Ok(workers)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::{ChaosMode, ChaosProxy};
    use sympl_asm::parse_program;
    use sympl_check::SearchLimits;
    use sympl_cluster::run_cluster;
    use sympl_inject::{Campaign, ErrorClass};
    use sympl_machine::ExecLimits;

    pub(crate) fn factorial() -> Program {
        parse_program(
            "ori $2 $0 #1\nread $1\nmov $3, $1\nori $4 $0 #1\n\
             loop: setgt $5 $3 $4\nbeq $5 0 exit\nmult $2 $2 $3\nsubi $3 $3 #1\nbeq $0 #0 loop\n\
             exit: prints \"Factorial = \"\nprint $2\nhalt",
        )
        .unwrap()
    }

    /// A program whose per-point searches run long enough (tens of
    /// milliseconds under a generous step budget) that membership events
    /// — a late join, an idle worker's split request — land while a
    /// shard is still in flight, and that scheduling order, not
    /// thread-wakeup noise, decides which service client's replies land
    /// first.
    pub(crate) fn slow_program() -> Program {
        parse_program(
            "read $1\nmov $4 $1\nouter: ori $2 $0 #0\n\
             inner: addi $2 $2 #1\nsetgt $3 $2 $1\nbeq $3 0 inner\n\
             subi $4 $4 #1\nsetgt $5 $4 #0\nbeq $5 1 outer\n\
             prints \"done\"\nhalt",
        )
        .unwrap()
    }

    pub(crate) fn resolver(id: &str) -> Option<(Program, DetectorSet)> {
        match id {
            "factorial" => Some((factorial(), DetectorSet::new())),
            "slowprog" => Some((slow_program(), DetectorSet::new())),
            _ => None,
        }
    }

    fn deterministic_config(tasks: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(300),
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        }
    }

    /// Starts an in-process worker serving the factorial resolver on a
    /// loopback port; returns its address and join handle.
    fn start_worker() -> (String, std::thread::JoinHandle<Result<(), WireError>>) {
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve(&resolver));
        (addr, handle)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sympl-transport-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        assert_eq!(backoff_delay(0), Duration::ZERO);
        assert_eq!(backoff_delay(1), Duration::from_millis(50));
        assert_eq!(backoff_delay(2), Duration::from_millis(100));
        assert_eq!(backoff_delay(3), Duration::from_millis(200));
        assert_eq!(backoff_delay(6), Duration::from_millis(1600));
        assert_eq!(backoff_delay(7), Duration::from_secs(2));
        assert_eq!(backoff_delay(100), Duration::from_secs(2));
        // Determinism: same input, same schedule — twice.
        for attempt in 0..10 {
            assert_eq!(backoff_delay(attempt), backoff_delay(attempt));
        }
    }

    #[test]
    fn liveness_deadline_scales_with_the_cadence_and_never_vanishes() {
        assert_eq!(
            liveness_deadline(Duration::from_millis(500)),
            Duration::from_secs(3)
        );
        assert!(liveness_deadline(Duration::ZERO) >= Duration::from_secs(1));
        assert!(
            liveness_deadline(Duration::from_millis(25)) < Duration::from_secs(2),
            "a fast cadence should give a tight deadline"
        );
    }

    #[test]
    fn distributed_campaign_reproduces_in_process_report() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(5);

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );

        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let distributed = run_distributed(&job, &[addr_a, addr_b], true).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();

        assert_eq!(distributed.findings, local.findings, "findings verbatim");
        assert_eq!(distributed.tasks.len(), local.tasks.len());
        for (d, l) in distributed.tasks.iter().zip(&local.tasks) {
            assert_eq!(
                (d.id, d.points_examined, d.points_total),
                (l.id, l.points_examined, l.points_total)
            );
            assert_eq!(
                (d.activated, d.findings, d.completed),
                (l.activated, l.findings, l.completed)
            );
            assert_eq!(d.states_explored, l.states_explored);
        }
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(!distributed.degraded, "no worker was lost");
        assert_eq!(distributed.resumed_tasks, 0);
    }

    #[test]
    fn dropped_worker_has_its_task_requeued() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);

        // A flaky "worker" that handshakes, admits the session, accepts
        // one task, then drops the connection without answering.
        let flaky_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let flaky_addr = flaky_listener.local_addr().unwrap().to_string();
        let flaky = std::thread::spawn(move || {
            let (mut stream, _) = flaky_listener.accept().unwrap();
            handshake(&mut stream).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // ClientHello
            let accept = encode_message(&Message::ClientAccept { client_id: 1 }).unwrap();
            write_frame(&mut stream, &accept).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // the task
                                                      // Drop the stream with the task unanswered.
        });

        let (real_addr, real_join) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let distributed = run_distributed(&job, &[flaky_addr, real_addr], true).unwrap();
        flaky.join().unwrap();
        real_join.join().unwrap().unwrap();

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        assert_eq!(
            distributed.outcome_digest(),
            local.outcome_digest(),
            "the dropped task must be re-run on the surviving worker"
        );
        assert_eq!(distributed.tasks.len(), 4);
        assert!(distributed.degraded, "a worker was lost");
        assert!(distributed.workers_lost >= 1);
        assert!(distributed.tasks_retried >= 1);
    }

    #[test]
    fn stalled_worker_trips_the_liveness_deadline_without_a_task_budget() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        // task_budget is None (see deterministic_config): before the
        // heartbeat layer this was the read-deadline hole — a wedged
        // worker could hang the campaign forever.
        let config = deterministic_config(3);

        // A "worker" that handshakes, admits the session, reads the task,
        // then goes silent holding the connection open — no heartbeats,
        // no reply, no EOF.
        let wedged_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let wedged_addr = wedged_listener.local_addr().unwrap().to_string();
        let unwedge = std::sync::Arc::new(AtomicBool::new(false));
        let unwedge_thread = std::sync::Arc::clone(&unwedge);
        let wedged = std::thread::spawn(move || {
            let (mut stream, _) = wedged_listener.accept().unwrap();
            handshake(&mut stream).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // ClientHello
            let accept = encode_message(&Message::ClientAccept { client_id: 1 }).unwrap();
            write_frame(&mut stream, &accept).unwrap();
            let _ = read_frame(&mut stream).unwrap(); // the task
            while !unwedge_thread.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        let (real_addr, real_join) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        // A fast cadence keeps the test quick: liveness ≈ 1.12 s.
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            ..DistOptions::default()
        };
        let started = Instant::now();
        let distributed = run_distributed_with(&job, &[wedged_addr, real_addr], &opts).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the wedged worker must be declared dead by the liveness \
             deadline, not waited out"
        );
        unwedge.store(true, Ordering::Relaxed);
        wedged.join().unwrap();
        real_join.join().unwrap().unwrap();

        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[4],
            &campaign,
            &predicate,
            &config,
        );
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(distributed.degraded);
    }

    #[test]
    fn chaos_proxy_drop_and_stall_both_requeue_to_the_survivor() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);
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

        for mode in [
            // Drop after the preamble: the first worker→coordinator frame
            // (the session's ClientAccept) is never delivered, so the
            // connection dies in the hello exchange.
            ChaosMode::DropAfterFrames(0),
            // Stall half-way through the first frame and hold the socket:
            // the coordinator's bounded hello read must fail this
            // connection rather than wait out the hold.
            ChaosMode::StallMidFrame {
                after_frames: 0,
                hold: Duration::from_secs(5),
            },
        ] {
            let (victim_addr, victim_join) = start_worker();
            let (real_addr, real_join) = start_worker();
            let proxy = ChaosProxy::start(victim_addr.clone(), mode).unwrap();
            let opts = DistOptions {
                shutdown_workers: true,
                heartbeat_interval: Duration::from_millis(30),
                ..DistOptions::default()
            };
            let started = Instant::now();
            let distributed =
                run_distributed_with(&job, &[proxy.addr.clone(), real_addr], &opts).unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "{mode:?}: the chaos leg must fail fast via supervision"
            );
            assert_eq!(
                distributed.outcome_digest(),
                local.outcome_digest(),
                "{mode:?}: the merged report must hit the in-process digest"
            );
            assert!(distributed.degraded, "{mode:?}");
            real_join.join().unwrap().unwrap();
            // The victim worker behind the proxy never got a Shutdown;
            // send one directly so its serve loop exits.
            let stream = TcpStream::connect(victim_addr.as_str()).unwrap();
            let mut conn = Conn::establish(stream).unwrap();
            conn.send(&Message::Shutdown).unwrap();
            victim_join.join().unwrap().unwrap();
            proxy.join();
        }
    }

    #[test]
    fn aborted_coordinator_resumes_from_its_checkpoint_to_the_same_digest() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(6);
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
        let ck = temp_path("abort-resume");

        // Leg 1: checkpointing coordinator "crashes" after 2 results.
        // Workers survive (no Shutdown is sent on abort).
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let workers = [addr_a, addr_b];
        let leg1 = DistOptions {
            checkpoint: Some(&ck),
            chaos: ChaosPlan {
                abort_after_results: Some(2),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let err = run_distributed_with(&job, &workers, &leg1).unwrap_err();
        assert!(
            matches!(err, WireError::CoordinatorAborted { completed } if completed >= 2),
            "{err}"
        );

        // Leg 2: a fresh coordinator resumes the same workers from the
        // checkpoint and must reproduce the uninterrupted digest.
        let leg2 = DistOptions {
            shutdown_workers: true,
            resume: Some(&ck),
            ..DistOptions::default()
        };
        let resumed = run_distributed_with(&job, &workers, &leg2).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        let _ = std::fs::remove_file(&ck);

        assert!(
            resumed.resumed_tasks >= 2,
            "at least the checkpointed tasks must be seeded"
        );
        assert!(
            resumed.resumed_tasks < local.tasks.len(),
            "some shards must be re-run"
        );
        assert_eq!(
            resumed.outcome_digest(),
            local.outcome_digest(),
            "resumed + re-run shards must merge to the uninterrupted digest"
        );
        assert_eq!(resumed.tasks.len(), local.tasks.len());
    }

    #[test]
    fn stale_checkpoints_are_refused() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let ck = temp_path("stale");
        // A checkpoint written under a *different* campaign key (other
        // input stream → other key).
        let other_job = CampaignJob { input: &[5], ..job };
        let key = campaign_key(&other_job).unwrap();
        drop(CheckpointWriter::create(&ck, key, 3).unwrap());

        let opts = DistOptions {
            resume: Some(&ck),
            ..DistOptions::default()
        };
        let err = run_distributed_with(&job, &["127.0.0.1:1".into()], &opts).unwrap_err();
        let _ = std::fs::remove_file(&ck);
        assert!(matches!(err, WireError::StaleCheckpoint(_)), "{err}");
    }

    #[test]
    fn unknown_program_and_digest_mismatch_are_remote_errors() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(2);

        // Unknown id: the single worker refuses every attempt, so the
        // campaign aborts with the remote error.
        let (addr, join) = start_worker();
        let job = CampaignJob {
            program: &program,
            program_id: "no-such-workload",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, std::slice::from_ref(&addr), false).unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref m) if m.contains("unknown program")),
            "{err}"
        );

        // Digest mismatch: same id, different program body.
        let other = parse_program("read $1\nprint $1\nhalt").unwrap();
        let other_campaign = Campaign::new(&other, ErrorClass::RegisterFile);
        let job = CampaignJob {
            program: &other,
            program_id: "factorial",
            input: &[4],
            campaign: &other_campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, std::slice::from_ref(&addr), false).unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref m) if m.contains("digest mismatch")),
            "{err}"
        );

        // Shut the worker down via a bare connection.
        let stream = TcpStream::connect(addr.as_str()).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn no_reachable_workers_is_an_error() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
        // A bound-then-dropped listener leaves a refused port behind.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let job = CampaignJob {
            program: &program,
            program_id: "factorial",
            input: &[4],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let err = run_distributed(&job, &[dead_addr], false).unwrap_err();
        assert!(
            matches!(err, WireError::NoWorkersLeft { pending: 3 }),
            "{err}"
        );
    }

    /// A slow-campaign config: one long-searching shard set under a step
    /// budget big enough that splits and joins can land mid-flight.
    fn slow_config(tasks: usize, max_states: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(20_000),
                max_states,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 10,
            point_workers_hint: Some(1),
        }
    }

    #[test]
    fn garbage_connections_do_not_kill_the_worker_listener() {
        use std::io::Write as _;
        let (addr, join) = start_worker();

        // 1: raw garbage — not even our magic.
        let mut s = TcpStream::connect(addr.as_str()).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        drop(s);

        // 2: correct magic, unsupported protocol version.
        let mut s = TcpStream::connect(addr.as_str()).unwrap();
        s.write_all(&crate::frame::MAGIC).unwrap();
        s.write_all(&[99]).unwrap();
        drop(s);

        // 3: a real coordinator still completes a full campaign.
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(3);
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
        let distributed = run_distributed(&job, std::slice::from_ref(&addr), true).unwrap();
        join.join().unwrap().unwrap();
        assert_eq!(distributed.outcome_digest(), local.outcome_digest());
        assert!(!distributed.degraded, "garbage peers are not lost workers");
    }

    #[test]
    fn late_joiner_is_admitted_and_the_digest_holds() {
        let program = slow_program();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = slow_config(6, 2_000);
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[12],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "slowprog",
            input: &[12],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let join_addr = listener.local_addr().unwrap().to_string();
        let joiner: Mutex<Option<std::thread::JoinHandle<Result<(), WireError>>>> =
            Mutex::new(None);
        let spawn_joiner = || {
            let addr = join_addr.clone();
            *joiner.lock().unwrap() = Some(std::thread::spawn(move || {
                join_coordinator(&addr, "late-joiner", &resolver)
            }));
        };

        let (addr, worker_join) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            join_listener: Some(&listener),
            chaos: ChaosPlan {
                delayed_join: Some((1, &spawn_joiner)),
                ..ChaosPlan::default()
            },
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, std::slice::from_ref(&addr), &opts).unwrap();
        worker_join.join().unwrap().unwrap();
        assert_eq!(
            report.workers_joined, 1,
            "the delayed joiner must have been admitted"
        );
        assert!(!report.degraded, "a join is growth, not degradation");
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "an elastic fleet must reproduce the in-process digest"
        );
        let handle = joiner
            .into_inner()
            .unwrap()
            .expect("the delayed-join hook must have fired");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_worker_forces_a_split_and_the_digest_holds() {
        let program = slow_program();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        assert!(campaign.len() >= 2, "need a splittable campaign");
        let predicate = Predicate::OutputContainsErr;
        // One shard holding every point: without splitting, the second
        // worker would sit idle for the whole campaign. The deep state
        // cap keeps the shard in flight for seconds even on a loaded
        // machine (the full test suite runs in parallel), so the split
        // round-trip — idle worker requests, victim acks after its
        // current point, halves re-queue — always lands before the
        // shard completes.
        let mut config = slow_config(1, 20_000);
        // Lift the finding cap past every point's worst case so splitting
        // is exactness-preserving (the split gate's requirement).
        config.max_findings_per_task = campaign.len() * config.search.max_solutions;
        let local = run_cluster(
            &program,
            &DetectorSet::new(),
            &[60],
            &campaign,
            &predicate,
            &config,
        );
        let job = CampaignJob {
            program: &program,
            program_id: "slowprog",
            input: &[60],
            campaign: &campaign,
            predicate: &predicate,
            config: &config,
        };
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            heartbeat_interval: Duration::from_millis(30),
            split_idle: true,
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, &[addr_a, addr_b], &opts).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        assert!(
            report.tasks_split >= 1,
            "the idle worker must have claimed half the only shard"
        );
        assert!(!report.degraded, "splitting is not degradation");
        assert_eq!(report.tasks.len(), 1, "halves re-merge into one shard");
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "shard splitting must not move the digest"
        );
    }

    #[test]
    fn split_idle_is_refused_when_the_finding_cap_binds() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        // The default cap (10) can bind on a whole-campaign shard, so the
        // coordinator must ignore --split-idle and still finish clean.
        let config = deterministic_config(2);
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
        let (addr_a, join_a) = start_worker();
        let (addr_b, join_b) = start_worker();
        let opts = DistOptions {
            shutdown_workers: true,
            split_idle: true,
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, &[addr_a, addr_b], &opts).unwrap();
        join_a.join().unwrap().unwrap();
        join_b.join().unwrap().unwrap();
        assert_eq!(report.tasks_split, 0, "the gate must refuse to split");
        assert_eq!(report.outcome_digest(), local.outcome_digest());
    }

    #[test]
    fn duplicated_result_frame_does_not_corrupt_the_report() {
        let program = factorial();
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let config = deterministic_config(4);
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

        // Frame 0 in the worker→coordinator direction is the session's
        // ClientAccept — its duplicate arrives while the coordinator is
        // awaiting the task's heartbeats, fails the connection as an
        // unexpected message, and must never corrupt the report (the
        // shard re-runs cleanly on the survivor).
        let (victim_addr, victim_join) = start_worker();
        let (real_addr, real_join) = start_worker();
        let proxy =
            ChaosProxy::start(victim_addr.clone(), ChaosMode::DuplicateFrame { frame: 0 }).unwrap();
        let opts = DistOptions {
            shutdown_workers: true,
            ..DistOptions::default()
        };
        let report = run_distributed_with(&job, &[proxy.addr.clone(), real_addr], &opts).unwrap();
        assert_eq!(
            report.outcome_digest(),
            local.outcome_digest(),
            "duplicate delivery must never double-count a task"
        );
        assert_eq!(report.tasks.len(), local.tasks.len());
        real_join.join().unwrap().unwrap();
        // The victim behind the proxy never got a Shutdown; send one
        // directly so its serve loop exits.
        let stream = TcpStream::connect(victim_addr.as_str()).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        victim_join.join().unwrap().unwrap();
        proxy.join();
    }
}

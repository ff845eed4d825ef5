//! The multi-tenant campaign service: many coordinators, one worker.
//!
//! [`WorkerServer::serve_with`] turns the worker agent into a shared
//! daemon: every accepted connection becomes a *client session*, admitted
//! by a [`Message::ClientHello`] / [`Message::ClientAccept`] exchange and
//! bounded by [`ServeOptions::max_clients`] — a full service refuses the
//! connection with a typed `Error` frame instead of hanging it. A worker
//! that joins a running campaign ([`crate::join_coordinator`]) runs its
//! one connection as a session of the same kind, opened by
//! `Register`/`Welcome` instead.
//!
//! A session thread waits on one channel, fed by its reader thread (each
//! decoded frame) and the executor (each finished job), so a reply leaves
//! the moment its task finishes. Sessions only move frames;
//! the searches themselves run on a single executor
//! that drains the per-client task queues through a [`FairScheduler`] —
//! weighted round-robin by client-declared priority — so one huge
//! campaign cannot starve a small one. Per-client accounting is surfaced
//! as [`ServiceStats`] (and, with [`ServeOptions::status_interval`], as
//! a periodic stderr status line).
//!
//! Tenancy is invisible to results: each task still runs through
//! [`sympl_cluster::run_task_spec_with_cancel`] with the coordinator's
//! shipped budgets, and each session's replies come back in task order,
//! so a campaign's [`sympl_cluster::CampaignReport::outcome_digest`] is
//! identical to its in-process run no matter how tenants interleave.
//! See `docs/PROTOCOL.md` for the session conversation and
//! `docs/OPERATIONS.md` for running the service.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use sympl_asm::Program;
use sympl_cluster::{run_task_spec_with_cancel, ClusterConfig};
use sympl_detect::DetectorSet;

use crate::frame::read_frame;
use crate::proto::{decode_message, Message, TaskFrame};
use crate::transport::{
    lock_recovering, send_message, Conn, ProgramResolver, WorkerServer, IDLE_POLL,
    MIN_HEARTBEAT_INTERVAL,
};
use crate::{program_digest, WireError};

/// The default [`ServeOptions::max_clients`] accept gate.
pub const DEFAULT_MAX_CLIENTS: usize = 16;

/// Options for the multi-tenant service loop
/// ([`WorkerServer::serve_with`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The accept gate: at most this many client sessions at once. The
    /// `max_clients + 1`-th concurrent client is refused with a typed
    /// `Error` frame (never silently dropped, never hung).
    pub max_clients: usize,
    /// Print a per-client accounting line to stderr at this cadence
    /// (`serve --status-interval`); `None` disables the status loop.
    pub status_interval: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_clients: DEFAULT_MAX_CLIENTS,
            status_interval: None,
        }
    }
}

/// One client's accounting row in [`ServiceStats`].
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// The service-assigned session id (echoed in the `ClientAccept`).
    pub client_id: u64,
    /// The client's self-declared label, from its `ClientHello`.
    pub label: String,
    /// The client's scheduling weight (clamped to ≥ 1 at admission).
    pub priority: u64,
    /// The session is still connected.
    pub active: bool,
    /// Tasks accepted but not yet picked by the executor.
    pub queued: usize,
    /// Tasks completed (answered with `TaskDone`) so far.
    pub completed: usize,
}

/// A point-in-time snapshot of the service's per-client accounting.
/// Returned by [`WorkerServer::serve_with`] when the service drains, and
/// rendered by the `--status-interval` log line while it runs.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Sessions currently connected.
    pub active_clients: usize,
    /// Connections refused by the [`ServeOptions::max_clients`] gate.
    pub refused_clients: usize,
    /// One row per client session the service has ever admitted
    /// (disconnected sessions stay, marked inactive).
    pub clients: Vec<ClientStats>,
}

impl ServiceStats {
    /// The fairness ratio: max over min of `completed / priority` across
    /// clients that have completed work — 1.0 is perfectly fair service,
    /// and two equal-priority backlogged clients stay within one
    /// scheduler round of each other (the documented fairness bound).
    /// Returns 1.0 when fewer than two clients have completed tasks.
    #[must_use]
    pub fn fairness_ratio(&self) -> f64 {
        let mut served: Vec<f64> = self
            .clients
            .iter()
            .filter(|c| c.completed > 0)
            .map(|c| {
                #[allow(clippy::cast_precision_loss)]
                let per_unit = c.completed as f64 / c.priority.max(1) as f64;
                per_unit
            })
            .collect();
        if served.len() < 2 {
            return 1.0;
        }
        served.sort_by(f64::total_cmp);
        served[served.len() - 1] / served[0]
    }
}

/// The weighted round-robin scheduler the service's executor drains the
/// per-client queues through.
///
/// Each client holds a credit balance; a scheduler *round* grants every
/// client `priority` credits, and [`FairScheduler::pick`] serves the next
/// backlogged client (cursor order) that still has credit, starting a new
/// round only when every backlogged client's balance hits zero. The
/// fairness bound follows: between refills a backlogged client is served
/// exactly `priority` times, so two clients backlogged over the same
/// window have served-counts per unit priority within one round of each
/// other — a small campaign always makes progress while a huge one is in
/// flight.
///
/// Deterministic and allocation-light by design so it can be unit- and
/// property-tested exhaustively; the service drives it under a lock.
#[derive(Debug, Default)]
pub struct FairScheduler {
    /// Round-robin position: the index after the last client served.
    cursor: usize,
    /// Remaining credits this round, indexed like the caller's client
    /// list (new clients join mid-round with zero and wait for the next
    /// refill, so joining cannot jump the queue).
    credits: Vec<u64>,
}

impl FairScheduler {
    /// A fresh scheduler with no clients and no round in progress.
    #[must_use]
    pub fn new() -> Self {
        FairScheduler::default()
    }

    /// Picks the next client to serve. `clients[i]` is `(priority,
    /// backlogged)` for client `i`; the list may grow between calls
    /// (indices must be stable — the service never removes slots).
    /// Returns `None` when no client is backlogged.
    pub fn pick(&mut self, clients: &[(u64, bool)]) -> Option<usize> {
        let n = clients.len();
        if n == 0 {
            return None;
        }
        if self.credits.len() < n {
            self.credits.resize(n, 0);
        }
        // First pass: anyone backlogged with credit left this round?
        for step in 0..n {
            let j = (self.cursor + step) % n;
            if clients[j].1 && self.credits[j] > 0 {
                self.credits[j] -= 1;
                self.cursor = (j + 1) % n;
                return Some(j);
            }
        }
        if !clients.iter().any(|&(_, backlogged)| backlogged) {
            return None;
        }
        // New round: refill every client's credits from its priority.
        for (credit, &(priority, _)) in self.credits.iter_mut().zip(clients) {
            *credit = priority.max(1);
        }
        for step in 0..n {
            let j = (self.cursor + step) % n;
            if clients[j].1 {
                self.credits[j] -= 1;
                self.cursor = (j + 1) % n;
                return Some(j);
            }
        }
        None
    }
}

/// A submitted task's lifecycle. `Queued → Running → Done → Sent` for the
/// happy path; a cancel can jump `Queued → Done` directly (the executor
/// skips jobs it pops in a non-`Queued` state).
enum JobState {
    Queued(Box<TaskFrame>),
    Running,
    Done(Box<Message>),
    Sent,
}

/// One submitted task, shared between its session thread (which owns the
/// reply ordering) and the executor (which runs it).
struct SessionJob {
    /// The heartbeat cadence the task frame asked for.
    interval: Duration,
    /// Cooperative cancel flag threaded into the search engine.
    cancel: AtomicBool,
    /// The client sent a `Cancel` frame for this job (an incomplete
    /// result is then answered with the cancel acknowledgement `Error`).
    cancelled_by_client: AtomicBool,
    state: Mutex<JobState>,
}

impl SessionJob {
    fn is_incomplete(&self) -> bool {
        matches!(
            *lock_recovering(&self.state),
            JobState::Queued(_) | JobState::Running
        )
    }

    /// Takes the finished reply, leaving the job `Sent`; `None` while the
    /// job is still queued or running.
    fn take_reply(&self) -> Option<Message> {
        let mut state = lock_recovering(&self.state);
        match std::mem::replace(&mut *state, JobState::Sent) {
            JobState::Done(reply) => Some(*reply),
            other => {
                *state = other;
                None
            }
        }
    }
}

/// What wakes a session thread. Every source posts into the session's one
/// channel, so the thread blocks on nothing else.
#[allow(clippy::large_enum_variant)] // nearly every event is a `Read`
enum Event {
    /// The reader thread's next frame, or the error that ended the stream
    /// ([`WireError::Disconnected`] on a clean hang-up).
    Read(Result<Message, WireError>),
    /// A job of this session finished.
    Wake,
}

/// One admitted client's scheduling slot. Slots are appended to the
/// registry and never removed (the [`FairScheduler`] needs stable
/// indices); a closed session just leaves its slot empty and inactive.
struct ClientSlot {
    id: u64,
    label: String,
    priority: u64,
    /// Tasks awaiting the executor, oldest first. Holds only jobs still
    /// in `Queued` state — or jobs a racing cancel just completed, which
    /// the executor pops and skips.
    queue: Mutex<VecDeque<Arc<SessionJob>>>,
    completed: AtomicUsize,
    active: AtomicBool,
    /// The session's event channel; sends fail harmlessly once the
    /// session is gone.
    wake: Sender<Event>,
}

/// The shared state behind [`WorkerServer::serve_with`] and
/// [`crate::join_coordinator`].
pub(crate) struct Service<'a> {
    resolve: &'a ProgramResolver<'a>,
    opts: ServeOptions,
    clients: Mutex<Vec<Arc<ClientSlot>>>,
    /// Paired with `sched_cv`: sessions notify after enqueueing, the
    /// executor waits here when every queue is empty.
    sched: Mutex<FairScheduler>,
    sched_cv: Condvar,
    sessions: AtomicUsize,
    /// A client sent `Shutdown`: stop accepting, exit once the last
    /// session has ended.
    draining: AtomicBool,
    /// No session is left to serve; the executor and status threads exit.
    /// Paired with `stopped_cv`.
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
    refused: AtomicUsize,
    next_client_id: AtomicU64,
}

impl<'a> Service<'a> {
    pub(crate) fn new(resolve: &'a ProgramResolver<'a>, opts: ServeOptions) -> Self {
        Service {
            resolve,
            opts,
            clients: Mutex::new(Vec::new()),
            sched: Mutex::new(FairScheduler::new()),
            sched_cv: Condvar::new(),
            sessions: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
            refused: AtomicUsize::new(0),
            next_client_id: AtomicU64::new(1),
        }
    }

    fn stats(&self) -> ServiceStats {
        let clients = lock_recovering(&self.clients)
            .iter()
            .map(|slot| ClientStats {
                client_id: slot.id,
                label: slot.label.clone(),
                priority: slot.priority,
                active: slot.active.load(Ordering::SeqCst),
                queued: lock_recovering(&slot.queue).len(),
                completed: slot.completed.load(Ordering::SeqCst),
            })
            .collect();
        ServiceStats {
            active_clients: self.sessions.load(Ordering::SeqCst),
            refused_clients: self.refused.load(Ordering::SeqCst),
            clients,
        }
    }

    fn status_line(&self) -> String {
        let stats = self.stats();
        let mut line = format!(
            "sympl-wire service: {} client(s) active, {} refused",
            stats.active_clients, stats.refused_clients
        );
        for c in &stats.clients {
            let state = if c.active { "" } else { " gone" };
            line.push_str(&format!(
                " | {}[prio {}]{state}: {} queued, {} done",
                c.label, c.priority, c.queued, c.completed
            ));
        }
        line.push_str(&format!(" | fairness {:.2}", stats.fairness_ratio()));
        line
    }

    /// Reserves a session slot, refusing at the `max_clients` gate (or
    /// while draining). The reservation is what `sessions` counts, so the
    /// gate can never over-admit in a connect race.
    fn try_admit(&self) -> bool {
        if self.draining.load(Ordering::SeqCst) {
            return false;
        }
        let max = self.opts.max_clients.max(1);
        self.sessions
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok()
    }

    /// Spawns the executor and, when configured, the status thread.
    fn start<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        scope.spawn(|| self.executor());
        if let Some(interval) = self.opts.status_interval {
            scope.spawn(move || self.status_loop(interval));
        }
    }

    /// Stops the executor and the status thread. Each re-checks the flag
    /// under the lock it waits with, so neither can miss the stop.
    fn stop(&self) {
        *lock_recovering(&self.stopped) = true;
        self.stopped_cv.notify_all();
        drop(lock_recovering(&self.sched));
        self.sched_cv.notify_all();
    }

    /// The executor thread: drains the per-client queues through the
    /// [`FairScheduler`], one task at a time, until stopped.
    fn executor(&self) {
        loop {
            if let Some((slot, job, task)) = self.claim_next() {
                self.run_job(&slot, &job, &task);
                continue;
            }
            // `enqueue` and `stop` take the scheduler lock before they
            // notify, so checking under it cannot miss a wake-up.
            let sched = lock_recovering(&self.sched);
            if *lock_recovering(&self.stopped) {
                return;
            }
            let backlogged = lock_recovering(&self.clients)
                .iter()
                .any(|slot| !lock_recovering(&slot.queue).is_empty());
            if !backlogged {
                drop(
                    self.sched_cv
                        .wait(sched)
                        .unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
    }

    /// Picks and claims the next runnable job, skipping jobs a cancel
    /// completed while they sat in queue.
    fn claim_next(&self) -> Option<(Arc<ClientSlot>, Arc<SessionJob>, Box<TaskFrame>)> {
        loop {
            let slots: Vec<Arc<ClientSlot>> = lock_recovering(&self.clients).clone();
            let picked = {
                let mut sched = lock_recovering(&self.sched);
                let views: Vec<(u64, bool)> = slots
                    .iter()
                    .map(|s| (s.priority, !lock_recovering(&s.queue).is_empty()))
                    .collect();
                sched.pick(&views)?
            };
            // The pick and the pop race session-side cancels; an emptied
            // queue just sends us around again.
            let Some(job) = lock_recovering(&slots[picked].queue).pop_front() else {
                continue;
            };
            let mut state = lock_recovering(&job.state);
            match std::mem::replace(&mut *state, JobState::Running) {
                JobState::Queued(task) => {
                    drop(state);
                    return Some((Arc::clone(&slots[picked]), Arc::clone(&job), task));
                }
                other => *state = other,
            }
        }
    }

    /// Resolves one claimed task's program and runs the task through
    /// [`run_task_spec_with_cancel`], the engine path the in-process pool
    /// uses, then parks the reply and wakes the session thread to send it.
    /// Resolving here, not on the session thread, keeps every sizeable
    /// allocation on this one thread.
    fn run_job(&self, slot: &ClientSlot, job: &SessionJob, task: &TaskFrame) {
        let config = ClusterConfig {
            workers: 1,
            tasks: 1,
            search: task.search.clone(),
            task_budget: task.task_budget,
            max_findings_per_task: task.max_findings,
            point_workers_hint: Some(task.point_workers.max(1)),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (program, detectors) = self.resolve_task(task)?;
            Ok(run_task_spec_with_cancel(
                &program,
                &detectors,
                &task.input,
                &task.spec,
                &task.predicate,
                &config,
                &job.cancel,
                None,
            ))
        }));
        let reply = match outcome {
            Err(_) => Message::Error(
                "task panicked on the worker; the campaign can re-queue it elsewhere".into(),
            ),
            Ok(Err(refusal)) => Message::Error(refusal),
            Ok(Ok((result, findings))) => {
                if job.cancelled_by_client.load(Ordering::SeqCst) && !result.completed {
                    Message::Error("task cancelled by the coordinator".into())
                } else {
                    Message::TaskDone { result, findings }
                }
            }
        };
        if matches!(reply, Message::TaskDone { .. }) {
            slot.completed.fetch_add(1, Ordering::SeqCst);
        }
        *lock_recovering(&job.state) = JobState::Done(Box::new(reply));
        let _ = slot.wake.send(Event::Wake);
    }

    /// The status thread: prints [`Self::status_line`] every `interval`
    /// until the service stops.
    fn status_loop(&self, interval: Duration) {
        let interval = interval.max(Duration::from_millis(50));
        loop {
            let stopped = lock_recovering(&self.stopped);
            let (stopped, _) = self
                .stopped_cv
                .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                .unwrap_or_else(PoisonError::into_inner);
            if *stopped {
                return;
            }
            drop(stopped);
            eprintln!("{}", self.status_line());
        }
    }

    /// One accepted connection, end to end. The session reservation is
    /// already held (see [`Self::try_admit`]) and is released here.
    fn session(&self, stream: TcpStream) -> Result<(), WireError> {
        let result = self.connection(stream, None);
        self.sessions.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Serves one outbound join connection as this service's only
    /// session, then stops the service.
    pub(crate) fn join(&self, stream: TcpStream, worker: &str) -> Result<(), WireError> {
        std::thread::scope(|scope| {
            self.start(scope);
            let result = self.connection(stream, Some(worker));
            self.stop();
            result
        })
    }

    /// Runs one connection: a reader thread decodes frames into the
    /// session's channel while this thread admits the client and serves
    /// it. `join` is the worker label of an outbound join connection,
    /// which opens with `Register`/`Welcome` in place of the
    /// `ClientHello` exchange.
    fn connection(&self, stream: TcpStream, join: Option<&str>) -> Result<(), WireError> {
        let Conn { reader, mut writer } = Conn::establish(stream)?;
        let (wake, events) = mpsc::channel();
        std::thread::scope(|scope| {
            let frames = wake.clone();
            scope.spawn(move || read_frames(reader, &frames));
            let result = self.converse(&mut writer, &events, wake, join);
            // Unblocks the reader thread.
            let _ = writer.shutdown(Shutdown::Both);
            result
        })
    }

    fn converse(
        &self,
        writer: &mut TcpStream,
        events: &Receiver<Event>,
        wake: Sender<Event>,
        join: Option<&str>,
    ) -> Result<(), WireError> {
        let (label, priority) = match join {
            None => match opening_frame(events, Duration::from_secs(10))? {
                Message::ClientHello { client, priority } => (client, priority.max(1)),
                // A bare Shutdown is a drain request — the one-frame
                // conversation fleet teardown scripts use.
                Message::Shutdown => {
                    self.draining.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                _ => {
                    let _ = send_message(
                        writer,
                        &Message::Error("expected a ClientHello as the first frame".into()),
                    );
                    return Err(WireError::UnexpectedMessage("client hello"));
                }
            },
            Some(worker) => {
                send_message(
                    writer,
                    &Message::Register {
                        worker: worker.to_owned(),
                    },
                )?;
                match opening_frame(events, Duration::from_secs(30))? {
                    // The dialled coordinator is the session's client,
                    // labelled by the campaign's program.
                    Message::Welcome { program_id, .. } => (program_id, 1),
                    _ => return Err(WireError::UnexpectedMessage("welcome")),
                }
            }
        };
        let slot = Arc::new(ClientSlot {
            id: self.next_client_id.fetch_add(1, Ordering::SeqCst),
            label,
            priority,
            queue: Mutex::new(VecDeque::new()),
            completed: AtomicUsize::new(0),
            active: AtomicBool::new(true),
            wake,
        });
        lock_recovering(&self.clients).push(Arc::clone(&slot));
        if join.is_none() {
            send_message(writer, &Message::ClientAccept { client_id: slot.id })?;
        }
        let peer = writer
            .peer_addr()
            .map_or_else(|_| "an unknown peer".to_owned(), |addr| addr.to_string());
        eprintln!(
            "sympl-wire service: client #{} `{}` (priority {}) connected from {peer}",
            slot.id, slot.label, slot.priority
        );
        let mut pending = VecDeque::new();
        let served = self.serve_session(writer, events, &slot, &mut pending);
        // Teardown: whatever the client left behind is cancelled and
        // unqueued so the executor never burns time for a gone session.
        for job in pending {
            job.cancel.store(true, Ordering::SeqCst);
            let mut state = lock_recovering(&job.state);
            if matches!(*state, JobState::Queued(_)) {
                *state = JobState::Sent;
            }
        }
        lock_recovering(&slot.queue).clear();
        slot.active.store(false, Ordering::SeqCst);
        eprintln!(
            "sympl-wire service: client #{} `{}` disconnected ({} task(s) completed)",
            slot.id,
            slot.label,
            slot.completed.load(Ordering::SeqCst)
        );
        served
    }

    /// The admitted session's loop: accept tasks (pipelining is allowed),
    /// send each reply as soon as it and every reply before it are done,
    /// heartbeat while work is pending, honour `Cancel`, and end on
    /// `Shutdown` or a hang-up. A drain leaves the session open: a
    /// connected campaign keeps submitting until it hangs up.
    fn serve_session(
        &self,
        writer: &mut TcpStream,
        events: &Receiver<Event>,
        slot: &ClientSlot,
        pending: &mut VecDeque<Arc<SessionJob>>,
    ) -> Result<(), WireError> {
        let mut last_beat = Instant::now();
        loop {
            // Replies go out strictly in submission order, so a
            // coordinator driving one task at a time sees a plain
            // request/response conversation.
            while let Some(reply) = pending.front().and_then(|job| job.take_reply()) {
                send_message(writer, &reply)?;
                pending.pop_front();
                last_beat = Instant::now();
            }
            // The heartbeat deadline is armed only while work is pending,
            // at the tightest cadence the client asked for, whether its
            // task is running or waiting its scheduling turn.
            let event = match pending.iter().map(|job| job.interval).min() {
                None => events.recv().map_err(|_| WireError::Disconnected)?,
                Some(interval) => {
                    let beat_in = (last_beat + interval).saturating_duration_since(Instant::now());
                    match events.recv_timeout(beat_in) {
                        Ok(event) => event,
                        Err(RecvTimeoutError::Timeout) => {
                            send_message(writer, &Message::Heartbeat)?;
                            last_beat = Instant::now();
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => return Err(WireError::Disconnected),
                    }
                }
            };
            let message = match event {
                Event::Wake => continue,
                Event::Read(Err(WireError::Disconnected)) => return Ok(()),
                Event::Read(read) => read?,
            };
            match message {
                Message::Task(task) => {
                    if pending.is_empty() {
                        last_beat = Instant::now();
                    }
                    pending.push_back(self.enqueue(slot, task));
                }
                Message::Cancel => {
                    // Cancel the oldest incomplete job: queued jobs are
                    // answered (and unscheduled) immediately, a running
                    // one is asked to stop at the next point boundary.
                    if let Some(job) = pending.iter().find(|j| j.is_incomplete()) {
                        job.cancelled_by_client.store(true, Ordering::SeqCst);
                        job.cancel.store(true, Ordering::SeqCst);
                        let mut state = lock_recovering(&job.state);
                        if matches!(*state, JobState::Queued(_)) {
                            *state = JobState::Done(Box::new(Message::Error(
                                "task cancelled by the coordinator".into(),
                            )));
                        }
                    }
                }
                Message::Shutdown => {
                    self.draining.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                Message::Heartbeat
                | Message::TaskDone { .. }
                | Message::Error(_)
                | Message::Register { .. }
                | Message::Welcome { .. }
                | Message::ClientHello { .. }
                | Message::ClientAccept { .. } => {
                    return Err(WireError::UnexpectedMessage("task or control frame"))
                }
            }
        }
    }

    /// Resolves a task's program id and checks the program digest; a
    /// refusal is the reason for the typed `Error` reply.
    fn resolve_task(&self, task: &TaskFrame) -> Result<(Program, DetectorSet), String> {
        let Some((program, detectors)) = (self.resolve)(&task.program_id) else {
            return Err(format!("unknown program id `{}`", task.program_id));
        };
        // Decode once per task frame: the whole task runs against this one
        // cached IR.
        let _ = program.decoded();
        if program_digest(&program) != task.program_digest {
            return Err(format!(
                "program digest mismatch for `{}`: this worker has a different revision",
                task.program_id
            ));
        }
        Ok((program, detectors))
    }

    /// Queues one task for the executor.
    fn enqueue(&self, slot: &ClientSlot, task: TaskFrame) -> Arc<SessionJob> {
        let job = Arc::new(SessionJob {
            interval: task.heartbeat_interval.max(MIN_HEARTBEAT_INTERVAL),
            cancel: AtomicBool::new(false),
            cancelled_by_client: AtomicBool::new(false),
            state: Mutex::new(JobState::Queued(Box::new(task))),
        });
        lock_recovering(&slot.queue).push_back(Arc::clone(&job));
        drop(lock_recovering(&self.sched));
        self.sched_cv.notify_all();
        job
    }
}

/// A session's reader thread: blocks on the socket and posts each decoded
/// frame, then the error that ended the stream, into the session channel.
fn read_frames(mut reader: BufReader<TcpStream>, events: &Sender<Event>) {
    loop {
        let read = read_frame(&mut reader).and_then(|payload| Ok(decode_message(&payload)?));
        let ended = read.is_err();
        if events.send(Event::Read(read)).is_err() || ended {
            return;
        }
    }
}

/// Waits up to `within` for a connection's opening frame.
fn opening_frame(events: &Receiver<Event>, within: Duration) -> Result<Message, WireError> {
    match events.recv_timeout(within) {
        Ok(Event::Read(read)) => read,
        Err(RecvTimeoutError::Timeout) => Err(io::Error::from(io::ErrorKind::TimedOut).into()),
        // Until the session is admitted only its reader thread posts.
        Ok(Event::Wake) | Err(RecvTimeoutError::Disconnected) => Err(WireError::Disconnected),
    }
}

impl WorkerServer {
    /// Serves many concurrent coordinators — the multi-tenant campaign
    /// service. Each accepted connection runs as its own session;
    /// tasks from all sessions drain through one [`FairScheduler`]-driven
    /// executor. Returns the final [`ServiceStats`] once a client sends
    /// `Shutdown` and the last session closes.
    ///
    /// # Errors
    ///
    /// Only listener-level failures; per-connection errors are reported
    /// to stderr and the service keeps accepting.
    pub fn serve_with(
        &self,
        resolve: &ProgramResolver<'_>,
        opts: &ServeOptions,
    ) -> Result<ServiceStats, WireError> {
        let service = Service::new(resolve, opts.clone());
        self.listener.set_nonblocking(true).map_err(WireError::Io)?;
        let result = std::thread::scope(|scope| {
            let service = &service;
            service.start(scope);
            let accepted = loop {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        // The listener is non-blocking; the accepted
                        // socket must not inherit that.
                        if let Err(e) = stream.set_nonblocking(false) {
                            eprintln!("sympl-wire service: cannot configure {peer}: {e}");
                            continue;
                        }
                        if service.try_admit() {
                            scope.spawn(move || {
                                if let Err(e) = service.session(stream) {
                                    eprintln!(
                                        "sympl-wire service: connection from {peer} failed: {e}"
                                    );
                                }
                            });
                        } else {
                            // The accept gate: refuse loudly with a typed
                            // Error frame instead of hanging the client.
                            let max = service.opts.max_clients.max(1);
                            service.refused.fetch_add(1, Ordering::SeqCst);
                            eprintln!(
                                "sympl-wire service: refusing client from {peer}: \
                                 at capacity ({max}/{max} clients)"
                            );
                            scope.spawn(move || {
                                if let Ok(mut conn) = Conn::establish(stream) {
                                    let _ = conn.send(&Message::Error(format!(
                                        "service at capacity ({max}/{max} clients); \
                                         try again later"
                                    )));
                                }
                            });
                        }
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if service.draining.load(Ordering::SeqCst)
                            && service.sessions.load(Ordering::SeqCst) == 0
                        {
                            break Ok(());
                        }
                        std::thread::sleep(IDLE_POLL);
                    }
                    Err(e) => break Err(WireError::Io(e)),
                }
            };
            service.stop();
            accepted
        });
        let _ = self.listener.set_nonblocking(false);
        result.map(|()| service.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{factorial, resolver, slow_program};
    use crate::transport::{
        run_distributed, run_distributed_with, CampaignJob, DistOptions, LISTENING_PREFIX,
    };
    use sympl_check::{Predicate, SearchLimits};
    use sympl_cluster::run_cluster;
    use sympl_inject::{Campaign, ErrorClass};
    use sympl_machine::ExecLimits;

    fn deterministic_config(tasks: usize) -> ClusterConfig {
        ClusterConfig {
            workers: 1,
            tasks,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(300),
                max_solutions: 4,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings_per_task: 4,
            point_workers_hint: Some(1),
        }
    }

    fn start_service(
        opts: ServeOptions,
    ) -> (
        String,
        std::thread::JoinHandle<Result<ServiceStats, WireError>>,
    ) {
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve_with(&resolver, &opts));
        (addr, handle)
    }

    fn campaign_job<'a>(
        program: &'a Program,
        input: &'a [i64],
        campaign: &'a Campaign,
        predicate: &'a Predicate,
        config: &'a ClusterConfig,
    ) -> CampaignJob<'a> {
        CampaignJob {
            program,
            program_id: "factorial",
            input,
            campaign,
            predicate,
            config,
        }
    }

    #[test]
    fn scheduler_alternates_equal_priority_backlogged_clients() {
        let mut sched = FairScheduler::new();
        let clients = [(1, true), (1, true)];
        let picks: Vec<usize> = (0..10).map(|_| sched.pick(&clients).unwrap()).collect();
        // Strict alternation: neither client is ever served twice in a row.
        for pair in picks.windows(2) {
            assert_ne!(pair[0], pair[1], "picks {picks:?}");
        }
        assert_eq!(picks.iter().filter(|&&j| j == 0).count(), 5);
    }

    #[test]
    fn scheduler_weights_by_priority() {
        let mut sched = FairScheduler::new();
        // Client 0 at priority 3, client 1 at priority 1, both backlogged.
        let clients = [(3, true), (1, true)];
        let picks: Vec<usize> = (0..40).map(|_| sched.pick(&clients).unwrap()).collect();
        let zeros = picks.iter().filter(|&&j| j == 0).count();
        assert_eq!(
            zeros, 30,
            "3:1 weighting over whole rounds; picks {picks:?}"
        );
    }

    #[test]
    fn scheduler_skips_idle_clients_and_serves_late_backlog_next_round() {
        let mut sched = FairScheduler::new();
        // Only client 0 is backlogged: it is served without rationing.
        for _ in 0..5 {
            assert_eq!(sched.pick(&[(1, true), (1, false)]), Some(0));
        }
        // Nobody backlogged: no pick.
        assert_eq!(sched.pick(&[(1, false), (1, false)]), None);
        // Client 1 arrives (a list that also just grew by one): it is
        // served promptly even though client 0 kept its backlog.
        let picks: Vec<usize> = (0..4)
            .map(|_| sched.pick(&[(1, true), (1, true), (1, false)]).unwrap())
            .collect();
        assert!(picks.contains(&1), "late client starves: {picks:?}");
        for pair in picks.windows(2) {
            assert_ne!(pair[0], pair[1], "picks {picks:?}");
        }
    }

    #[test]
    fn fairness_ratio_is_per_unit_priority() {
        let stats = ServiceStats {
            active_clients: 2,
            refused_clients: 0,
            clients: vec![
                ClientStats {
                    client_id: 1,
                    label: "a".into(),
                    priority: 2,
                    active: true,
                    queued: 0,
                    completed: 20,
                },
                ClientStats {
                    client_id: 2,
                    label: "b".into(),
                    priority: 1,
                    active: true,
                    queued: 0,
                    completed: 11,
                },
            ],
        };
        let ratio = stats.fairness_ratio();
        assert!((ratio - 1.1).abs() < 1e-9, "ratio {ratio}");
        assert!(
            (ServiceStats::default().fairness_ratio() - 1.0).abs() < f64::EPSILON,
            "no clients means nothing to be unfair about"
        );
    }

    #[test]
    fn full_service_refuses_clients_with_a_typed_error() {
        let (addr, handle) = start_service(ServeOptions {
            max_clients: 1,
            status_interval: None,
        });
        // First client occupies the only slot.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut first = Conn::establish(stream).unwrap();
        first
            .send(&Message::ClientHello {
                client: "occupant".into(),
                priority: 1,
            })
            .unwrap();
        first
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(
            first.recv().unwrap(),
            Message::ClientAccept { .. }
        ));
        // Second client is refused with a typed Error frame — not
        // silently dropped, not hung.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut second = Conn::establish(stream).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match second.recv().unwrap() {
            Message::Error(msg) => assert!(msg.contains("capacity"), "got `{msg}`"),
            other => panic!("expected a typed Error refusal, got {other:?}"),
        }
        drop(second);
        // The occupant shuts the service down cleanly.
        first.send(&Message::Shutdown).unwrap();
        drop(first);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.refused_clients, 1);
    }

    #[test]
    fn two_concurrent_campaigns_reproduce_their_in_process_digests() {
        let program = factorial();
        let input = vec![5];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput {
            expected: vec![120],
        };
        let config_a = deterministic_config(4);
        let config_b = deterministic_config(2);
        let expected_a = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config_a,
        )
        .outcome_digest();
        let expected_b = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config_b,
        )
        .outcome_digest();

        let (addr, handle) = start_service(ServeOptions::default());
        let digests = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let job = campaign_job(&program, &input, &campaign, &predicate, &config_a);
                run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("campaign-a".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap()
                .outcome_digest()
            });
            let b = scope.spawn(|| {
                let job = campaign_job(&program, &input, &campaign, &predicate, &config_b);
                run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("campaign-b".into()),
                        client_priority: 2,
                        ..DistOptions::default()
                    },
                )
                .unwrap()
                .outcome_digest()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(digests.0, expected_a, "tenant A's digest moved");
        assert_eq!(digests.1, expected_b, "tenant B's digest moved");

        // Tear the service down and check its books.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        drop(conn);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.refused_clients, 0);
        let by_label = |label: &str| {
            stats
                .clients
                .iter()
                .find(|c| c.label == label)
                .unwrap_or_else(|| panic!("no stats row for {label}"))
                .clone()
        };
        assert_eq!(by_label("campaign-a").completed, 4);
        assert_eq!(by_label("campaign-a").priority, 1);
        assert_eq!(by_label("campaign-b").completed, 2);
        assert_eq!(by_label("campaign-b").priority, 2);
    }

    #[test]
    fn small_campaign_completes_while_a_large_one_is_in_flight() {
        // Starvation regression: a 16-task campaign and a 2-task campaign
        // share one single-executor service; round-robin means the small
        // one must finish long before the big one's tail. The slow
        // program keeps the big campaign in flight for far longer than
        // a reply takes, so the finish order reflects the schedule
        // rather than which coordinator thread started first.
        let program = slow_program();
        let input = vec![5];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::OutputContainsErr;
        let mut big_config = deterministic_config(16);
        big_config.search.exec = ExecLimits::with_max_steps(600);
        let small_config = ClusterConfig {
            tasks: 2,
            ..big_config.clone()
        };

        let (addr, handle) = start_service(ServeOptions::default());
        let (big_done, small_done) = std::thread::scope(|scope| {
            let big = scope.spawn(|| {
                let job = CampaignJob {
                    program_id: "slowprog",
                    ..campaign_job(&program, &input, &campaign, &predicate, &big_config)
                };
                let report = run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("big".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap();
                (Instant::now(), report.outcome_digest())
            });
            let small = scope.spawn(|| {
                let job = CampaignJob {
                    program_id: "slowprog",
                    ..campaign_job(&program, &input, &campaign, &predicate, &small_config)
                };
                let report = run_distributed_with(
                    &job,
                    std::slice::from_ref(&addr),
                    &DistOptions {
                        client_label: Some("small".into()),
                        ..DistOptions::default()
                    },
                )
                .unwrap();
                (Instant::now(), report.outcome_digest())
            });
            (big.join().unwrap(), small.join().unwrap())
        });
        assert_eq!(
            big_done.1,
            run_cluster(
                &program,
                &DetectorSet::new(),
                &input,
                &campaign,
                &predicate,
                &big_config,
            )
            .outcome_digest()
        );
        assert_eq!(
            small_done.1,
            run_cluster(
                &program,
                &DetectorSet::new(),
                &input,
                &campaign,
                &predicate,
                &small_config,
            )
            .outcome_digest()
        );
        // The starvation assertion proper: the small campaign must not
        // have waited for the big one's completion.
        assert!(
            small_done.0 <= big_done.0,
            "the small campaign finished after the big one — it starved"
        );

        let stream = TcpStream::connect(&addr).unwrap();
        let mut conn = Conn::establish(stream).unwrap();
        conn.send(&Message::Shutdown).unwrap();
        drop(conn);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn pipelined_clients_interleave_within_the_fairness_bound() {
        // Drive two sessions by hand, pipelining unequal task counts at
        // equal priority. While both are backlogged the scheduler
        // alternates (the sharp per-round bound is pinned by the
        // FairScheduler unit and property tests), so the short client's
        // last reply must land no later than the long client's — and
        // every pipelined task must be answered. The slow program keeps
        // each task in flight for tens of milliseconds, so the finish
        // order reflects the schedule rather than thread-wakeup noise.
        let program = slow_program();
        let digest = program_digest(&program);
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let shards = sympl_cluster::shard_specs(&campaign, 8);
        let task_for = |spec: &sympl_cluster::TaskSpec| TaskFrame {
            program_id: "slowprog".into(),
            program_digest: digest,
            input: vec![12],
            spec: spec.clone(),
            predicate: Predicate::OutputContainsErr,
            search: SearchLimits {
                exec: ExecLimits::with_max_steps(2_000),
                max_solutions: 4,
                ..SearchLimits::default()
            },
            task_budget: None,
            max_findings: 4,
            point_workers: 1,
            heartbeat_interval: Duration::from_millis(100),
        };

        let (addr, handle) = start_service(ServeOptions::default());
        let connect = |label: &str| {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut conn = Conn::establish(stream).unwrap();
            conn.send(&Message::ClientHello {
                client: label.into(),
                priority: 1,
            })
            .unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            assert!(matches!(conn.recv().unwrap(), Message::ClientAccept { .. }));
            conn
        };
        let mut long = connect("long");
        let mut short = connect("short");
        // Pipeline 6 tasks on the long client, then 2 on the short one.
        for spec in &shards[..6] {
            long.send(&Message::Task(task_for(spec))).unwrap();
        }
        for spec in &shards[6..8] {
            short.send(&Message::Task(task_for(spec))).unwrap();
        }
        let drain = |conn: &mut Conn, n: usize| {
            let mut done = 0usize;
            while done < n {
                match conn.recv().unwrap() {
                    Message::TaskDone { .. } => done += 1,
                    Message::Heartbeat => {}
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            Instant::now()
        };
        // Drain both sessions concurrently and compare finish instants:
        // under round-robin the short client's 2 tasks complete inside
        // the long client's first rounds, so it must finish first. (A
        // client-FIFO scheduler would hold the short client's replies
        // behind all 6 long tasks — exactly the starvation this pins.)
        let (short_done, long_done) = std::thread::scope(|scope| {
            let l = scope.spawn(|| drain(&mut long, 6));
            let s = scope.spawn(|| drain(&mut short, 2));
            (s.join().unwrap(), l.join().unwrap())
        });
        assert!(
            short_done <= long_done,
            "the short client observed no interleaving — it starved behind the long one"
        );
        long.send(&Message::Shutdown).unwrap();
        drop(long);
        drop(short);
        let stats = handle.join().unwrap().unwrap();
        let completed: usize = stats.clients.iter().map(|c| c.completed).sum();
        assert_eq!(completed, 8, "every pipelined task was answered");
        assert!(
            stats.fairness_ratio() <= 3.0 + f64::EPSILON,
            "fairness ratio {:.2} way out of bounds: {stats:?}",
            stats.fairness_ratio()
        );
    }

    #[test]
    fn serve_loopback_workers_are_multiplexed() {
        // The classic single-campaign path through the new serve loop:
        // run_distributed with shutdown still completes and tears the
        // daemon down — the compatibility contract for every existing
        // demo and test that spawns `symplfied serve`.
        let program = factorial();
        let input = vec![4];
        let campaign = Campaign::new(&program, ErrorClass::RegisterFile);
        let predicate = Predicate::WrongOutput { expected: vec![24] };
        let config = deterministic_config(3);
        let expected = run_cluster(
            &program,
            &DetectorSet::new(),
            &input,
            &campaign,
            &predicate,
            &config,
        )
        .outcome_digest();
        let server = WorkerServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.serve(&resolver));
        let job = campaign_job(&program, &input, &campaign, &predicate, &config);
        let report = run_distributed(&job, &[addr], true).unwrap();
        assert_eq!(report.outcome_digest(), expected);
        handle.join().unwrap().unwrap();
        // LISTENING_PREFIX is untouched by the service rework — the
        // spawn helpers' readiness contract.
        assert!(LISTENING_PREFIX.contains("listening"));
    }
}

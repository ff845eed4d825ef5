//! The shared fleet: one `serve` worker process on loopback, and a raw
//! wire client that speaks the protocol frame by frame.

use std::io::{BufRead as _, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sympl_wire::{
    decode_message, encode_message, read_frame, read_preamble, shutdown_worker, write_frame,
    write_preamble, Message, WireError, WorkerServer, LISTENING_PREFIX,
};

/// The hidden argument that runs this executable as the fleet's worker.
pub const SERVE_ARG: &str = "--serve-worker";

/// Serves campaign tasks on an OS-assigned loopback port until a
/// `Shutdown` frame drains the service. Bundled workload names resolve to
/// their programs; every task frame carries its own input.
pub fn serve_worker() -> Result<(), WireError> {
    let resolve = |id: &str| sympl_apps::resolve_workload(id).map(|w| (w.program, w.detectors));
    let server = WorkerServer::bind("127.0.0.1:0")?;
    server.announce()?;
    server.serve(&resolve)
}

/// A running worker process.
pub struct Worker {
    child: Child,
    /// The worker's loopback address.
    pub addr: String,
}

impl Worker {
    /// Starts `exe` in worker mode and waits until it listens.
    pub fn spawn(exe: &Path) -> Result<Worker, String> {
        let mut child = Command::new(exe)
            .arg(SERVE_ARG)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the worker: {e}"))?;
        let stdout = child.stdout.take().expect("worker stdout is piped");
        let mut worker = Worker {
            child,
            addr: String::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading the worker's stdout: {e}"))?;
            if let Some(addr) = line.strip_prefix(LISTENING_PREFIX) {
                worker.addr = addr.trim().to_owned();
                return Ok(worker);
            }
        }
        Err("the worker exited before it listened".to_owned())
    }

    /// The worker's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the worker and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        shutdown_worker(&self.addr).map_err(|e| format!("worker shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("worker exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("worker did not exit after shutdown".to_owned()),
                Err(e) => return Err(format!("waiting for the worker: {e}")),
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Reaps a worker left behind by an early error; after a clean
        // shutdown both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A coordinator session opened by hand: preamble, `ClientHello`,
/// `ClientAccept`, then frames one at a time.
pub struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    /// Connects and completes the session handshake.
    pub fn connect(addr: &str, label: &str) -> Result<RawClient, WireError> {
        let mut writer = TcpStream::connect(addr)?;
        write_preamble(&mut writer)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        read_preamble(&mut reader)?;
        let mut client = RawClient { reader, writer };
        client.send(&encode_message(&Message::ClientHello {
            client: label.to_owned(),
            priority: 1,
        })?)?;
        match decode_message(&client.recv()?)? {
            Message::ClientAccept { .. } => Ok(client),
            Message::Error(e) => Err(WireError::Remote(e)),
            _ => Err(WireError::UnexpectedMessage("handshake reply")),
        }
    }

    /// Writes one encoded frame.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), WireError> {
        write_frame(&mut self.writer, payload)
    }

    /// Reads one frame's payload.
    pub fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        read_frame(&mut self.reader)
    }
}

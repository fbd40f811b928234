//! The daemon: listeners, connection threads, and the worker pool,
//! all std-only (no async runtime — threads, mutexes, and socket
//! timeouts).
//!
//! Thread model per daemon:
//!
//! ```text
//!   N worker threads      run shards, hand each finished one to the
//!                         log writer and take the next
//!   1 log writer          every checkpoint append after the header:
//!                         write what is queued, sync each log once,
//!                         then announce the shards and pump emission
//!   1 telemetry ticker    subscriber deltas, stall checks
//!   1 acceptor / listener nonblocking accept + shutdown poll
//!   2 threads / client    reader (decode + dispatch; a Submit writes
//!                         and syncs its header here) and writer
//!                         (drain the bounded outbox to the socket)
//! ```
//!
//! What is durable before what: a header before `Accepted`; a shard's
//! record before any of its `Outcome` lines; the completion marker after
//! `Done` (without it a restart finalizes the campaign again).
//!
//! Every daemon→client byte goes through the connection's bounded
//! [`Outbox`] — replies and streamed outcomes share one ordered queue,
//! which is what makes "Accepted before first Outcome" and "Outcome
//! order = instance order" hold without any per-frame bookkeeping.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::frame::{DecodeBuffer, Frame, FrameType};
use crate::payload::{encode_error, ErrorCode, Submission};
use crate::scheduler::{Outbox, Pop, QuotaConfig, Scheduler};
use crate::setup::SetupRegistry;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads in the shared shard pool.
    pub workers: usize,
    /// Default shard size for submissions that pass `0`.
    pub shard_size: usize,
    /// Directory for checkpoint logs (created if missing).
    pub state_dir: PathBuf,
    /// Submission quotas.
    pub quota: QuotaConfig,
    /// Bounded per-connection send queue, in frames.
    pub outbox_frames: usize,
    /// Unsent-instance backlog that pauses a campaign (backpressure).
    pub max_unsent_instances: usize,
    /// Floor for subscriber-requested telemetry intervals (ms); also
    /// paces the daemon's internal telemetry ticker.
    pub telemetry_min_interval_ms: u64,
    /// A shard running longer than this (ms) journals `WorkerStalled`.
    pub stall_warn_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            shard_size: 8,
            state_dir: PathBuf::from("vw-serve-state"),
            quota: QuotaConfig::default(),
            outbox_frames: 64,
            max_unsent_instances: 256,
            telemetry_min_interval_ms: 50,
            stall_warn_ms: 5_000,
        }
    }
}

/// One transport-agnostic connected socket.
pub(crate) enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    pub(crate) fn try_clone(&self) -> io::Result<Sock> {
        Ok(match self {
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
            Sock::Unix(s) => Sock::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_read_timeout(timeout),
            Sock::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    pub(crate) fn shutdown_both(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Sock::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
    }
}

/// The fault-injection service daemon.
///
/// Construct with [`Daemon::start`], bind one or more listeners, and
/// [`stop`](Daemon::stop) for a graceful shutdown (in-flight shards
/// finish and checkpoint; a SIGKILL instead is exactly what the
/// checkpoint log recovers from).
pub struct Daemon {
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    conn_seq: Arc<AtomicU64>,
    outbox_frames: usize,
    unix_paths: Mutex<Vec<PathBuf>>,
}

impl Daemon {
    /// Creates the state directory, resumes any checkpointed campaigns
    /// found there, and starts the worker pool. No listener is bound
    /// yet — call [`bind_unix`](Daemon::bind_unix) /
    /// [`bind_tcp`](Daemon::bind_tcp).
    pub fn start(mut config: DaemonConfig, registry: SetupRegistry) -> io::Result<Daemon> {
        config.workers = config.workers.max(1);
        config.shard_size = config.shard_size.max(1);
        config.telemetry_min_interval_ms = config.telemetry_min_interval_ms.max(1);
        config.stall_warn_ms = config.stall_warn_ms.max(1);
        std::fs::create_dir_all(&config.state_dir)?;
        let scheduler = Arc::new(Scheduler::new(config.clone(), registry));
        // The journal mirrors to disk next to the checkpoint logs; a
        // sink that can't open is reported but non-fatal.
        if let Err(e) = scheduler
            .journal
            .attach_disk_sink(&config.state_dir.join("journal.jsonl"))
        {
            eprintln!("vw-serve: journal disk sink unavailable: {e}");
        }
        scheduler.resume_from_state_dir()?;
        let daemon = Daemon {
            scheduler: Arc::clone(&scheduler),
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
            conn_seq: Arc::new(AtomicU64::new(1)),
            outbox_frames: config.outbox_frames,
            unix_paths: Mutex::new(Vec::new()),
        };
        let mut threads = daemon.threads.lock().unwrap();
        for worker_id in 0..config.workers {
            let scheduler = Arc::clone(&scheduler);
            threads.push(std::thread::spawn(move || {
                scheduler.worker_loop(worker_id as u64)
            }));
        }
        scheduler.set_worker_count(config.workers);
        {
            let scheduler = Arc::clone(&scheduler);
            threads.push(std::thread::spawn(move || scheduler.log_writer_loop()));
        }
        // The telemetry ticker paces subscriber deltas and stall checks;
        // it polls faster than the minimum subscriber interval so due
        // times are honored with little jitter.
        {
            let scheduler = Arc::clone(&scheduler);
            let shutdown = Arc::clone(&daemon.shutdown);
            let pace = Duration::from_millis(config.telemetry_min_interval_ms.min(20));
            threads.push(std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    scheduler.telemetry_tick();
                    std::thread::sleep(pace);
                }
            }));
        }
        drop(threads);
        Ok(daemon)
    }

    /// Binds a unix-socket listener (removing any stale socket file) and
    /// starts accepting.
    pub fn bind_unix(&self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.unix_paths.lock().unwrap().push(path.to_path_buf());
        self.spawn_acceptor(move |listener_poll| match listener.accept() {
            Ok((stream, _)) => Some(Sock::Unix(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(listener_poll);
                None
            }
            Err(_) => {
                std::thread::sleep(listener_poll);
                None
            }
        });
        Ok(())
    }

    /// Binds a TCP listener, returning the bound address (so `:0`
    /// requests report their ephemeral port).
    pub fn bind_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        self.spawn_acceptor(move |listener_poll| match listener.accept() {
            Ok((stream, _)) => Some(Sock::Tcp(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(listener_poll);
                None
            }
            Err(_) => {
                std::thread::sleep(listener_poll);
                None
            }
        });
        Ok(bound)
    }

    fn spawn_acceptor<F>(&self, mut accept: F)
    where
        F: FnMut(Duration) -> Option<Sock> + Send + 'static,
    {
        let shutdown = Arc::clone(&self.shutdown);
        let scheduler = Arc::clone(&self.scheduler);
        let conn_seq = Arc::clone(&self.conn_seq);
        let outbox_frames = self.outbox_frames;
        let handle = std::thread::spawn(move || {
            let poll = Duration::from_millis(20);
            while !shutdown.load(Ordering::Relaxed) {
                if let Some(sock) = accept(poll) {
                    let conn = conn_seq.fetch_add(1, Ordering::Relaxed);
                    let scheduler = Arc::clone(&scheduler);
                    let shutdown = Arc::clone(&shutdown);
                    // Connection threads are detached: they exit on
                    // EOF, socket error, or the shutdown flag.
                    std::thread::spawn(move || {
                        serve_connection(sock, conn, scheduler, shutdown, outbox_frames);
                    });
                }
            }
        });
        self.threads.lock().unwrap().push(handle);
    }

    /// The daemon's metrics in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.scheduler.prometheus()
    }

    /// Graceful stop: no new connections or shards; in-flight shards
    /// finish and the log writer checkpoints them before it exits; all
    /// daemon-owned threads join.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.scheduler.stop();
        let handles: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        for path in self.unix_paths.lock().unwrap().drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn serve_connection(
    sock: Sock,
    conn: u64,
    scheduler: Arc<Scheduler>,
    shutdown: Arc<AtomicBool>,
    outbox_frames: usize,
) {
    scheduler
        .journal
        .record(crate::journal::JournalEvent::ConnAccepted { conn });
    let outbox = Arc::new(Outbox::new(outbox_frames));
    let Ok(mut write_half) = sock.try_clone() else {
        return;
    };
    let writer_outbox = Arc::clone(&outbox);
    let writer_sched = Arc::clone(&scheduler);
    let writer = std::thread::spawn(move || {
        let mut batch = Vec::new();
        loop {
            batch.clear();
            match writer_outbox.pop_timeout(Duration::from_millis(100), &mut batch) {
                Pop::Frames => {
                    if write_half.write_all(&batch).is_err() {
                        writer_outbox.close();
                        break;
                    }
                    writer_sched.note_bytes_out(batch.len() as u64);
                    // Room just opened up: resume emission and wake any
                    // worker whose campaign was paused on this client.
                    writer_sched.on_drain();
                }
                Pop::Empty => {}
                Pop::Closed => break,
            }
        }
        write_half.shutdown_both();
    });

    let mut read_half = sock;
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = DecodeBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: loop {
        if shutdown.load(Ordering::Relaxed) || scheduler.is_shutdown() {
            break;
        }
        match read_half.read(&mut chunk) {
            Ok(0) => break, // EOF: client hung up
            Ok(n) => {
                scheduler.note_bytes_in(n as u64);
                decoder.feed(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    scheduler.note_frames(1);
                    handle_frame(frame, conn, &scheduler, &outbox);
                }
                Ok(None) => break,
                Err(e) => {
                    // A framing slip leaves no way to find the next
                    // boundary: report and close.
                    scheduler
                        .metrics
                        .lock()
                        .unwrap()
                        .add_counter("serve.bad_frames", 1);
                    scheduler
                        .journal
                        .record(crate::journal::JournalEvent::FrameError {
                            conn,
                            detail: e.to_string(),
                        });
                    let reply = Frame::new(
                        FrameType::Error,
                        0,
                        encode_error(ErrorCode::BadFrame, &e.to_string()),
                    );
                    let _ = outbox.try_push(reply.encode());
                    // Give the writer a moment to flush the error.
                    std::thread::sleep(Duration::from_millis(50));
                    break 'conn;
                }
            }
        }
    }
    // Close the outbox: the writer drains what's queued and exits; the
    // scheduler drops this connection's subscribers on its next pump.
    // Campaigns keep running — results stay checkpointed and
    // re-attachable.
    outbox.close();
    read_half.shutdown_both();
    let _ = writer.join();
    scheduler
        .journal
        .record(crate::journal::JournalEvent::ConnClosed { conn });
    scheduler.on_drain();
}

fn handle_frame(frame: Frame, conn: u64, scheduler: &Arc<Scheduler>, outbox: &Arc<Outbox>) {
    let request_id = frame.request_id;
    let reject = |code: ErrorCode, message: &str| {
        let reply = Frame::new(FrameType::Error, request_id, encode_error(code, message));
        let _ = outbox.try_push(reply.encode());
    };
    match frame.frame_type {
        FrameType::Submit => match Submission::decode(&frame.payload) {
            Some(submission) => {
                if let Err((code, message)) = scheduler.submit(conn, submission, outbox, request_id)
                {
                    reject(code, &message);
                }
            }
            None => reject(ErrorCode::BadFrame, "undecodable Submit payload"),
        },
        FrameType::Attach => match crate::payload::decode_text(&frame.payload) {
            Some(name) => {
                if let Err((code, message)) = scheduler.attach(&name, outbox, request_id) {
                    reject(code, &message);
                }
            }
            _ => reject(ErrorCode::BadFrame, "undecodable Attach payload"),
        },
        FrameType::Stats => {
            let payload = crate::payload::encode_text(&scheduler.prometheus());
            let reply = Frame::new(FrameType::StatsReply, request_id, payload);
            let _ = outbox.try_push(reply.encode());
        }
        FrameType::Ping => {
            let reply = Frame::new(FrameType::Pong, request_id, Vec::new());
            let _ = outbox.try_push(reply.encode());
        }
        FrameType::Subscribe => match crate::payload::Subscribe::decode(&frame.payload) {
            Some(sub) => scheduler.subscribe(sub, outbox, request_id),
            None => reject(ErrorCode::BadFrame, "undecodable Subscribe payload"),
        },
        FrameType::JournalQuery => match crate::payload::JournalQuery::decode(&frame.payload) {
            Some(query) => {
                // 0 means "no limit", still bounded to keep the reply
                // inside one frame.
                let limit = match query.limit {
                    0 => 4096,
                    n => (n as usize).min(4096),
                };
                let entries = scheduler
                    .journal
                    .query(query.since_seq, query.min_severity, limit);
                let reply = crate::payload::JournalReply {
                    next_seq: scheduler.journal.next_seq(),
                    first_seq: scheduler.journal.first_seq(),
                    entries,
                };
                let frame = Frame::new(FrameType::JournalReply, request_id, reply.encode());
                let _ = outbox.try_push(frame.encode());
            }
            None => reject(ErrorCode::BadFrame, "undecodable JournalQuery payload"),
        },
        // Reply types arriving at the daemon are protocol misuse.
        FrameType::Accepted
        | FrameType::Outcome
        | FrameType::Done
        | FrameType::Error
        | FrameType::Pong
        | FrameType::StatsReply
        | FrameType::TelemetryDelta
        | FrameType::JournalReply => {
            reject(ErrorCode::BadFrame, "reply frame type sent to daemon");
        }
    }
}

//! The daemon: the owner thread that runs the scheduler, the workers, the
//! log writer, listeners and connection threads, all std-only (no async
//! runtime — threads, channels, and socket timeouts).
//!
//! Thread model per daemon:
//!
//! ```text
//!   1 owner               the scheduler: takes each input, decides, and
//!                         carries out the effects in order; telemetry ticks
//!   N worker threads      run the shard the owner sends, post the outcomes
//!   1 log writer          every disk write: a new log and its header,
//!                         shard records (each log synced once per batch,
//!                         then posted back as durable), completion
//!                         markers, journal lines
//!   1 acceptor / listener nonblocking accept + shutdown poll
//!   2 threads / client    reader (decode, prepare a submission, post the
//!                         request) and writer (what the owner sends it,
//!                         to the socket; frees its credits)
//! ```
//!
//! What is durable before what: a header before `Accepted`; a shard's
//! record before any of its `Outcome` lines; the completion marker after
//! `Done` (without it a restart finishes the campaign again).
//!
//! Every daemon→client frame is an effect of the one owner, so replies and
//! streamed outcomes reach a connection in the order the scheduler decided
//! them: "Accepted before first Outcome" and "Outcome order = instance
//! order" hold without any per-frame bookkeeping.

use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vw_campaign::run_shard_observed;
use vw_obs::MetricsRegistry;

use crate::checkpoint::{log_file_name, read_log, CheckpointWriter};
use crate::frame::DecodeBuffer;
use crate::scheduler::{Effect, Input, Job, Prepared, QuotaConfig, Request, Scheduler};
use crate::setup::SetupRegistry;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads in the shared shard pool.
    pub workers: usize,
    /// Default size of every shard after the one-instance first, for
    /// submissions that pass `0` ([`vw_campaign::SHARD_SIZE`]).
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
            shard_size: vw_campaign::SHARD_SIZE,
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

/// What the acceptors and connection threads share.
#[derive(Clone)]
struct Shared {
    inputs: Sender<Input>,
    shutdown: Arc<AtomicBool>,
    conn_seq: Arc<AtomicU64>,
    registry: Arc<SetupRegistry>,
    shard_size: usize,
    max_instances: usize,
}

/// The fault-injection service daemon.
///
/// Construct with [`Daemon::start`], bind one or more listeners, and
/// [`stop`](Daemon::stop) for a graceful shutdown (in-flight shards
/// finish and checkpoint; a SIGKILL instead is exactly what the
/// checkpoint log recovers from).
pub struct Daemon {
    shared: Shared,
    threads: Mutex<Vec<JoinHandle<()>>>,
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
        config.outbox_frames = config.outbox_frames.max(1);
        config.telemetry_min_interval_ms = config.telemetry_min_interval_ms.max(1);
        config.stall_warn_ms = config.stall_warn_ms.max(1);
        std::fs::create_dir_all(&config.state_dir)?;
        let (inputs, inbox) = mpsc::channel();
        let (log, log_inbox) = mpsc::channel();
        let (workers, jobs): (Vec<_>, Vec<_>) =
            (0..config.workers).map(|_| mpsc::channel()).unzip();
        let mut owner = Owner {
            scheduler: Scheduler::new(config.clone()),
            epoch: Instant::now(),
            workers,
            log,
            writers: HashMap::new(),
            effects: Vec::new(),
        };
        let logs = resume(&config, &registry, &mut owner)?;

        let mut threads = Vec::new();
        for (worker, jobs) in jobs.into_iter().enumerate() {
            let (inputs, epoch) = (inputs.clone(), owner.epoch);
            threads.push(std::thread::spawn(move || {
                worker_loop(worker, jobs, &inputs, epoch)
            }));
        }
        let (state_dir, log_inputs) = (config.state_dir.clone(), inputs.clone());
        threads.push(std::thread::spawn(move || {
            log_writer_loop(&state_dir, logs, log_inbox, &log_inputs)
        }));
        // Ticks pace subscriber deltas and stall checks, faster than the
        // minimum subscriber interval so due times are honored with little
        // jitter.
        let pace = Duration::from_millis(config.telemetry_min_interval_ms.min(20));
        threads.push(std::thread::spawn(move || owner.run(inbox, pace)));
        Ok(Daemon {
            shared: Shared {
                inputs,
                shutdown: Arc::new(AtomicBool::new(false)),
                conn_seq: Arc::new(AtomicU64::new(1)),
                registry: Arc::new(registry),
                shard_size: config.shard_size,
                max_instances: config.quota.max_instances_per_campaign,
            },
            threads: Mutex::new(threads),
            unix_paths: Mutex::new(Vec::new()),
        })
    }

    /// Binds a unix-socket listener (removing any stale socket file) and
    /// starts accepting.
    pub fn bind_unix(&self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let paths = self.unix_paths.lock();
        paths
            .expect("socket paths poisoned")
            .push(path.to_path_buf());
        self.spawn_acceptor(move || listener.accept().ok().map(|(s, _)| Sock::Unix(s)));
        Ok(())
    }

    /// Binds a TCP listener, returning the bound address (so `:0`
    /// requests report their ephemeral port).
    pub fn bind_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        self.spawn_acceptor(move || listener.accept().ok().map(|(s, _)| Sock::Tcp(s)));
        Ok(bound)
    }

    fn spawn_acceptor<F>(&self, mut accept: F)
    where
        F: FnMut() -> Option<Sock> + Send + 'static,
    {
        let shared = self.shared.clone();
        let handle = std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::Relaxed) {
                let Some(sock) = accept() else {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                let shared = shared.clone();
                // Connection threads are detached: they exit on EOF, socket
                // error, or the shutdown flag.
                std::thread::spawn(move || serve_connection(sock, conn, &shared));
            }
        });
        let threads = self.threads.lock();
        threads.expect("thread list poisoned").push(handle);
    }

    /// The daemon's metrics in Prometheus text format (empty once the
    /// daemon has stopped).
    pub fn metrics_text(&self) -> String {
        let (reply, text) = mpsc::channel();
        let _ = self.shared.inputs.send(Input::Metrics(reply));
        text.recv().unwrap_or_default()
    }

    /// Graceful stop: no new connections or shards; in-flight shards
    /// finish and the log writer checkpoints them before it exits; all
    /// daemon-owned threads join.
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = self.shared.inputs.send(Input::Stop);
        let threads = std::mem::take(&mut *self.threads.lock().expect("thread list poisoned"));
        for handle in threads {
            let _ = handle.join();
        }
        let paths = std::mem::take(&mut *self.unix_paths.lock().expect("socket paths poisoned"));
        for path in paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The thread that owns the scheduler: it hands it each input and carries
/// out what it decided, in order.
struct Owner {
    scheduler: Scheduler,
    /// Daemon start — the epoch of every timestamp the scheduler sees.
    epoch: Instant,
    workers: Vec<Sender<Job>>,
    log: Sender<Effect>,
    writers: HashMap<u64, Sender<Vec<u8>>>,
    effects: Vec<Effect>,
}

impl Owner {
    /// Handles `input` and carries out its effects; false once the
    /// scheduler decided to exit.
    fn apply(&mut self, input: Input) -> bool {
        if let Input::ConnOpened { conn, writer } = &input {
            self.writers.insert(*conn, writer.clone());
        }
        self.scheduler
            .handle(nanos_since(self.epoch), input, &mut self.effects);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Run { worker, job } => {
                    let _ = self.workers[worker].send(job);
                }
                Effect::Send { conn, bytes } => {
                    if let Some(writer) = self.writers.get(&conn) {
                        let _ = writer.send(bytes);
                    }
                }
                Effect::Close { conn } => {
                    self.writers.remove(&conn);
                }
                Effect::Exit => return false,
                to_disk => {
                    let _ = self.log.send(to_disk);
                }
            }
        }
        true
    }

    /// The owner thread's life, until the scheduler exits. Dropping the
    /// owner lets the workers, the log writer and the connection writers
    /// finish what they were sent and exit.
    fn run(mut self, inbox: Receiver<Input>, pace: Duration) {
        let mut next_tick = Instant::now() + pace;
        loop {
            let now = Instant::now();
            let input = if now >= next_tick {
                next_tick = now + pace;
                Input::Tick
            } else {
                match inbox.recv_timeout(next_tick - now) {
                    Ok(input) => input,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
            if !self.apply(input) {
                return;
            }
        }
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays every checkpoint log under the state directory into the
/// scheduler, so unfinished sweeps continue and finished ones stay
/// attachable. Returns each log's writer, cut back to its last whole
/// record.
fn resume(
    config: &DaemonConfig,
    registry: &SetupRegistry,
    owner: &mut Owner,
) -> io::Result<HashMap<String, CheckpointWriter>> {
    let mut logs = HashMap::new();
    for entry in std::fs::read_dir(&config.state_dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("vwlog") {
            continue;
        }
        let contents = read_log(&path)?;
        let Some(submission) = contents.submission else {
            continue;
        };
        let name = submission.campaign.clone();
        if logs.contains_key(&name) {
            continue;
        }
        // A logged campaign was admitted once: it resumes whatever the
        // instance quota is now.
        let prepared = Prepared::new(submission, registry, config.shard_size, usize::MAX);
        let campaign = match prepared {
            Ok(campaign) => campaign,
            Err((_, message)) => {
                eprintln!("vw-serve: skipping resume of `{name}`: {message}");
                continue;
            }
        };
        let Ok(writer) = CheckpointWriter::reopen(&path, contents.valid_len) else {
            continue;
        };
        logs.insert(name, writer);
        owner.apply(Input::Resumed {
            campaign: Box::new(campaign),
            shards: contents.shards,
            complete: contents.complete,
        });
    }
    Ok(logs)
}

/// One worker thread's life: run each shard the owner sends and post its
/// outcomes back, until the owner is gone.
///
/// It yields after each instance, so that with more threads runnable than
/// CPUs it does not hold the owner and the connection threads back a slice.
fn worker_loop(worker: usize, jobs: Receiver<Job>, inputs: &Sender<Input>, epoch: Instant) {
    for job in jobs {
        let _span = vw_trace::span("serve.shard", vw_trace::Category::Serve);
        let started = Instant::now();
        // Shard-grain metrics accumulate here and fold into the daemon's
        // once per shard.
        let mut metrics = MetricsRegistry::new();
        let mut samples = Vec::with_capacity(job.range.len());
        let instances = &job.instances[job.range.clone()];
        let outcomes = run_shard_observed(instances, &job.setup, job.deadline, |_, wall_ns| {
            metrics.observe("serve.instance_wall_us", wall_ns / 1_000);
            samples.push((nanos_since(epoch), wall_ns));
            std::thread::yield_now();
        });
        metrics.add_counter("serve.shards_completed", 1);
        metrics.add_counter("serve.instances_completed", outcomes.len() as u64);
        let shard_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        metrics.observe("serve.shard_wall_us", shard_us);
        let ran = Input::ShardRan {
            worker,
            outcomes,
            metrics,
            samples,
        };
        let _ = inputs.send(ran);
    }
}

/// The log writer thread's life, and the only place the daemon writes a
/// checkpoint log or the journal: it takes everything queued, in order —
/// opens each new log and syncs its header, writes shard records, writes
/// completion markers, appends journal lines — then syncs each log that got
/// a shard record once and posts those records back as durable. A write or
/// sync that fails is reported and the record posted all the same (the
/// campaign completes, a restart re-runs what the log lacks). Returns once
/// the owner is gone and everything it sent is written.
fn log_writer_loop(
    state_dir: &Path,
    mut logs: HashMap<String, CheckpointWriter>,
    inbox: Receiver<Effect>,
    inputs: &Sender<Input>,
) {
    // A journal file that can't open is reported but non-fatal.
    let journal = std::fs::File::options()
        .create(true)
        .append(true)
        .open(state_dir.join("journal.jsonl"));
    let mut journal = journal
        .map_err(|e| eprintln!("vw-serve: journal file unavailable: {e}"))
        .ok()
        .map(BufWriter::new);
    while let Ok(first) = inbox.recv() {
        // What is queued now, not what arrives while it is written.
        let batch: Vec<Effect> = std::iter::once(first).chain(inbox.try_iter()).collect();
        let mut records = Vec::new();
        for effect in batch {
            match effect {
                Effect::OpenLog { name, submission } => {
                    let path = state_dir.join(log_file_name(&name));
                    let result = CheckpointWriter::open(&path)
                        .and_then(|mut writer| {
                            writer.append_header(&submission)?;
                            logs.insert(name.clone(), writer);
                            Ok(())
                        })
                        .map_err(|e| e.to_string());
                    let _ = inputs.send(Input::LogOpened { name, result });
                }
                Effect::Append(mut record) => {
                    let written = match logs.get_mut(&record.name) {
                        Some(writer) => writer.write_shard(record.shard as u64, &record.outcomes),
                        None => Err(io::Error::other("no open log")),
                    };
                    if let Err(e) = &written {
                        let name = &record.name;
                        eprintln!("vw-serve: checkpoint append failed for `{name}`: {e}");
                    }
                    record.synced = written.is_ok();
                    records.push(record);
                }
                Effect::Complete { name } => {
                    // The campaign writes nothing more: its log closes here.
                    if let Some(mut writer) = logs.remove(&name) {
                        if let Err(e) = writer.write_complete().and_then(|()| writer.sync()) {
                            eprintln!("vw-serve: completion marker failed for `{name}`: {e}");
                        }
                    }
                }
                Effect::JournalLine(line) => {
                    if let Some(journal) = journal.as_mut() {
                        let _ = journal.write_all(line.as_bytes());
                    }
                }
                Effect::Run { .. } | Effect::Send { .. } | Effect::Close { .. } | Effect::Exit => {
                    unreachable!("the owner carries these out itself")
                }
            }
        }
        if let Some(journal) = journal.as_mut() {
            let _ = journal.flush();
        }
        if records.is_empty() {
            continue;
        }
        // Each log once, whatever number of its records the batch holds.
        let mut synced: HashMap<String, bool> = HashMap::new();
        for record in &mut records {
            let name = &record.name;
            record.synced &= *synced.entry(name.clone()).or_insert_with(|| {
                match logs.get_mut(name).map(CheckpointWriter::sync) {
                    Some(Ok(())) => true,
                    Some(Err(e)) => {
                        eprintln!("vw-serve: checkpoint sync failed for `{name}`: {e}");
                        false
                    }
                    None => false,
                }
            });
        }
        let _ = inputs.send(Input::Durable { records });
    }
}

/// A connection's reader, on its own thread: decodes frames into requests
/// for the owner until EOF, a frame error or the daemon stopping. Its
/// writer thread puts on the socket what the owner sends it, one write per
/// wake-up however many frames it slept through, and exits once the owner
/// has closed the connection and everything queued is out.
fn serve_connection(mut sock: Sock, conn: u64, shared: &Shared) {
    let Ok(mut write_half) = sock.try_clone() else {
        return;
    };
    let (writer, frames) = mpsc::channel::<Vec<u8>>();
    let inputs = shared.inputs.clone();
    std::thread::spawn(move || {
        let mut batch = Vec::new();
        while let Ok(first) = frames.recv() {
            batch.clear();
            let mut count = 0;
            for bytes in std::iter::once(first).chain(frames.try_iter()) {
                batch.extend_from_slice(&bytes);
                count += 1;
            }
            if write_half.write_all(&batch).is_err() {
                break;
            }
            let drained = Input::Drained {
                conn,
                frames: count,
                bytes: batch.len() as u64,
            };
            let _ = inputs.send(drained);
        }
        write_half.shutdown_both();
    });
    let _ = shared.inputs.send(Input::ConnOpened { conn, writer });

    let _ = sock.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = DecodeBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    'conn: while !shared.shutdown.load(Ordering::Relaxed) {
        let n = match sock.read(&mut chunk) {
            Ok(0) => break, // EOF: client hung up
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let _ = shared.inputs.send(Input::Read { bytes: n as u64 });
        decoder.feed(&chunk[..n]);
        loop {
            let input = match decoder.next_frame() {
                Ok(Some(frame)) => Input::Request {
                    conn,
                    id: frame.request_id,
                    request: Request::read(
                        &frame,
                        &shared.registry,
                        shared.shard_size,
                        shared.max_instances,
                    ),
                },
                Ok(None) => break,
                Err(e) => {
                    // A framing slip leaves no way to find the next
                    // boundary: report and close.
                    let detail = e.to_string();
                    let _ = shared.inputs.send(Input::BadFrame { conn, detail });
                    break 'conn;
                }
            };
            let _ = shared.inputs.send(input);
        }
    }
    let _ = shared.inputs.send(Input::ConnClosed { conn });
}

//! The shared worker pool that interleaves shards from many concurrent
//! campaigns, streams outcomes in order, and checkpoints progress.
//!
//! ## Fairness
//!
//! All campaigns share one pool. A worker picks the next *eligible*
//! campaign in round-robin order (a cursor over campaign names) and
//! takes exactly one shard from it, so a million-instance sweep cannot
//! starve a ten-instance one: interleaving granularity is the shard.
//!
//! ## In-order streaming
//!
//! Shards are contiguous ([`ShardPlan`]), so the campaign's *completed
//! prefix* — the leading run of finished shards — is exactly the set of
//! instances whose outcomes are final and emittable. Each subscriber
//! has a `sent` watermark into that prefix; emission pushes rendered
//! JSONL lines into the subscriber's bounded outbox until it is full.
//!
//! ## Backpressure
//!
//! A slow client fills its outbox; its `sent` watermark stalls; once the
//! campaign's unsent backlog exceeds `max_unsent_instances` the campaign
//! becomes ineligible for new shard dispatch — the sweep *pauses*
//! instead of buffering unboundedly. When the client's writer drains a
//! frame it re-pumps emission and wakes the pool.
//!
//! ## Durability
//!
//! Workers never touch the disk: a finished shard goes to the one log
//! writer ([`Scheduler::log_writer_loop`]), which announces it only once
//! its record is synced; the completion marker follows `Done` through the
//! same queue. No scheduler lock is held across a disk operation.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vw_campaign::{
    instance_jsonl_line, run_shard_observed, CampaignResult, CampaignSpec, DigestKey, Instance,
    InstanceOutcome, ShardPlan,
};
use vw_netsim::SimDuration;
use vw_obs::{labeled_key, MetricsRegistry, RollingWindow};

use crate::checkpoint::{log_file_name, read_log, CheckpointWriter, LogContents};
use crate::frame::{Frame, FrameType};
use crate::journal::{Journal, JournalEvent, Severity};
use crate::payload::{
    encode_outcome_line, Accepted, ErrorCode, Submission, Subscribe, TelemetryDelta,
};
use crate::server::DaemonConfig;
use crate::setup::{SetupHandle, SetupRegistry};

/// Per-connection and daemon-wide submission limits.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Live (unfinished) campaigns across the whole daemon.
    pub max_active_campaigns: usize,
    /// Live campaigns submitted by one connection.
    pub max_campaigns_per_conn: usize,
    /// Enumerated instances in a single campaign.
    pub max_instances_per_campaign: usize,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            max_active_campaigns: 32,
            max_campaigns_per_conn: 4,
            max_instances_per_campaign: 100_000,
        }
    }
}

/// Horizon for rate and latency windows: "lately" means the last 5 s.
const WINDOW_HORIZON_NS: u64 = 5_000_000_000;
/// Samples kept per rolling window.
const WINDOW_CAPACITY: usize = 512;
/// In-memory journal ring capacity, in entries.
const JOURNAL_CAPACITY: usize = 1024;
/// Journal entries shipped per telemetry tick / query reply at most.
const JOURNAL_BATCH: usize = 512;

/// Result of a non-blocking outbox push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Push {
    /// Enqueued.
    Ok,
    /// Queue at capacity — caller retries after a drain.
    Full,
    /// Receiver is gone; drop the subscriber.
    Closed,
}

/// Result of a blocking outbox pop.
#[derive(Debug)]
pub(crate) enum Pop {
    /// Every queued frame's encoded bytes were appended to the batch.
    Frames,
    /// Timed out with nothing queued.
    Empty,
    /// Closed and drained.
    Closed,
}

struct OutboxState {
    queue: VecDeque<Vec<u8>>,
    closed: bool,
}

/// A bounded frame queue between the scheduler and one connection's
/// writer thread — the backpressure boundary. The scheduler only ever
/// `try_push`es; blocking lives on the writer side.
pub(crate) struct Outbox {
    cap: usize,
    state: Mutex<OutboxState>,
    cv: Condvar,
}

impl Outbox {
    pub(crate) fn new(cap: usize) -> Self {
        Outbox {
            cap: cap.max(1),
            state: Mutex::new(OutboxState {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn try_push(&self, bytes: Vec<u8>) -> Push {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Push::Closed;
        }
        if state.queue.len() >= self.cap {
            return Push::Full;
        }
        state.queue.push_back(bytes);
        self.cv.notify_one();
        Push::Ok
    }

    /// Waits for a frame, then moves everything queued onto the end of
    /// `batch` in queue order: one write, and one drain notification, per
    /// wake-up of the writer however many frames it slept through.
    pub(crate) fn pop_timeout(&self, timeout: Duration, batch: &mut Vec<u8>) -> Pop {
        let mut state = self.state.lock().unwrap();
        loop {
            if !state.queue.is_empty() {
                for bytes in state.queue.drain(..) {
                    batch.extend_from_slice(&bytes);
                }
                return Pop::Frames;
            }
            if state.closed {
                return Pop::Closed;
            }
            let (next, result) = self.cv.wait_timeout(state, timeout).unwrap();
            state = next;
            if result.timed_out() && state.queue.is_empty() {
                return if state.closed {
                    Pop::Closed
                } else {
                    Pop::Empty
                };
            }
        }
    }

    pub(crate) fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        self.cv.notify_all();
    }
}

struct Subscriber {
    outbox: Arc<Outbox>,
    request_id: u64,
    /// Instances already enqueued to this subscriber.
    sent: usize,
    done_sent: bool,
}

enum ShardSlot {
    Pending,
    Running,
    Done(Vec<(InstanceOutcome, u64)>),
}

struct Campaign {
    name: String,
    conn: u64,
    instances: Arc<Vec<Instance>>,
    plan: ShardPlan,
    setup: SetupHandle,
    deadline: SimDuration,
    key: DigestKey,
    shards: Vec<ShardSlot>,
    /// Leading run of completed shards.
    prefix_shards: usize,
    /// Instances covered by the completed prefix (final + emittable).
    prefix_instances: usize,
    completed_shards: usize,
    finished: bool,
    /// Rendered summary JSONL, set at finalization.
    summary: Option<String>,
    subscribers: Vec<Subscriber>,
    checkpoint: Arc<Mutex<CheckpointWriter>>,
    /// Currently skipped by dispatch because a subscriber lags.
    paused: bool,
}

/// The instances a submission's program and axes enumerate to.
fn enumerate(submission: &Submission) -> Result<Vec<Instance>, String> {
    let base =
        vw_fsl::parse(&submission.program).map_err(|e| format!("program parse failed: {e}"))?;
    let spec = CampaignSpec {
        name: submission.campaign.clone(),
        base,
        axes: submission.axes.clone(),
        defaults: submission.defaults,
        sampling: submission.sampling,
    };
    spec.enumerate().map_err(|e| e.to_string())
}

impl Campaign {
    /// A campaign over `instances` (what [`enumerate`] made of
    /// `submission`), sharded by the submission's stored shard size, with
    /// no subscriber yet. `done` holds the shards a checkpoint log already
    /// has; a log shard must match the plan exactly — anything else is a
    /// stale or foreign record and gets re-run instead.
    fn from_submission(
        submission: &Submission,
        instances: Vec<Instance>,
        setup: SetupHandle,
        writer: CheckpointWriter,
        done: BTreeMap<u64, Vec<(InstanceOutcome, u64)>>,
    ) -> Campaign {
        let plan = ShardPlan::new(instances.len(), submission.shard_size as usize);
        let mut shards: Vec<ShardSlot> = (0..plan.count()).map(|_| ShardSlot::Pending).collect();
        let mut completed_shards = 0;
        for (shard, outcomes) in done {
            let shard = shard as usize;
            if shard < plan.count() && outcomes.len() == plan.range(shard).len() {
                shards[shard] = ShardSlot::Done(outcomes);
                completed_shards += 1;
            }
        }
        let mut campaign = Campaign {
            name: submission.campaign.clone(),
            conn: 0,
            instances: Arc::new(instances),
            plan,
            setup,
            deadline: SimDuration::from_nanos(submission.deadline_ns),
            key: submission.key,
            shards,
            prefix_shards: 0,
            prefix_instances: 0,
            completed_shards,
            finished: false,
            summary: None,
            subscribers: Vec::new(),
            checkpoint: Arc::new(Mutex::new(writer)),
            paused: false,
        };
        Scheduler::advance_prefix(&mut campaign);
        campaign
    }

    fn lag(&self) -> usize {
        self.subscribers
            .iter()
            .map(|s| self.prefix_instances.saturating_sub(s.sent))
            .max()
            .unwrap_or(0)
    }

    fn has_pending(&self) -> bool {
        self.shards.iter().any(|s| matches!(s, ShardSlot::Pending))
    }
}

struct Inner {
    campaigns: BTreeMap<String, Campaign>,
    /// Names `submit` is writing a header for: taken, not yet a campaign.
    reserved: BTreeSet<String>,
    cursor: Option<String>,
    shutdown: bool,
    /// Unfinished campaigns, reserved ones included.
    active: usize,
    per_conn: HashMap<u64, usize>,
}

impl Inner {
    /// Gives back the `active` / `per_conn` slot a campaign of `conn` held.
    fn release(&mut self, conn: u64) {
        self.active = self.active.saturating_sub(1);
        if let Some(count) = self.per_conn.get_mut(&conn) {
            *count = count.saturating_sub(1);
        }
    }
}

/// One live telemetry subscription. Telemetry subscribers are tracked
/// apart from campaign [`Subscriber`]s on purpose: they never enter
/// `Campaign::lag()`, so a slow telemetry client *cannot* pause a sweep
/// — its ticks are dropped (and counted) instead.
struct TeleSub {
    outbox: Arc<Outbox>,
    request_id: u64,
    interval: Duration,
    next_due: Instant,
    prometheus_text: bool,
    /// Campaign filter (empty = all campaigns).
    campaign: String,
    min_severity: Severity,
    /// Next journal seq this subscriber has not yet received.
    journal_cursor: u64,
    /// The registry state as of the last *delivered* tick — the delta
    /// baseline. Only committed on a successful push, so changes carried
    /// by a dropped tick fold into the next delivered one.
    last_sent: MetricsRegistry,
    seq: u64,
    dropped: u64,
}

/// Per-campaign sliding windows, fed by workers as instances finish.
struct CampWindows {
    /// Completion deltas (one sample per finished instance).
    inst: RollingWindow,
    /// Per-instance wall time in nanoseconds.
    wall: RollingWindow,
}

impl CampWindows {
    fn new() -> Self {
        CampWindows {
            inst: RollingWindow::new(WINDOW_CAPACITY),
            wall: RollingWindow::new(WINDOW_CAPACITY),
        }
    }
}

/// What a worker is running right now (stall detection).
struct RunningShard {
    campaign: String,
    started: Instant,
    stall_reported: bool,
}

/// All live-telemetry state, behind its own lock so the instance-grain
/// feed from workers never contends with the scheduler's campaign lock.
struct TeleState {
    subs: Vec<TeleSub>,
    camp: BTreeMap<String, CampWindows>,
    /// Daemon-wide instance completions.
    inst: RollingWindow,
    /// Frames decoded off client connections.
    frames: RollingWindow,
    bytes_in: RollingWindow,
    bytes_out: RollingWindow,
    workers_total: i64,
    workers_busy: i64,
    running: HashMap<u64, RunningShard>,
}

impl TeleState {
    fn new() -> Self {
        TeleState {
            subs: Vec::new(),
            camp: BTreeMap::new(),
            inst: RollingWindow::new(WINDOW_CAPACITY),
            frames: RollingWindow::new(WINDOW_CAPACITY),
            bytes_in: RollingWindow::new(WINDOW_CAPACITY),
            bytes_out: RollingWindow::new(WINDOW_CAPACITY),
            workers_total: 0,
            workers_busy: 0,
            running: HashMap::new(),
        }
    }
}

/// A point-in-time fact sheet about one campaign, read under the
/// campaign lock and released before any telemetry work happens.
struct CampaignFact {
    name: String,
    total: usize,
    done_instances: usize,
    /// 0 = running, 1 = paused (backpressure), 2 = finished.
    state: i64,
    subscribers: usize,
}

struct Job {
    name: String,
    shard: usize,
    instances: Arc<Vec<Instance>>,
    range: std::ops::Range<usize>,
    setup: SetupHandle,
    deadline: SimDuration,
    checkpoint: Arc<Mutex<CheckpointWriter>>,
}

/// One record for the log writer: a finished shard with its outcomes, or
/// (`shard: None`) the completion marker of a finished campaign.
struct LogJob {
    name: String,
    checkpoint: Arc<Mutex<CheckpointWriter>>,
    shard: Option<(usize, Vec<(InstanceOutcome, u64)>)>,
}

struct LogQueue {
    jobs: Vec<LogJob>,
    /// Workers that may still hand a shard over; the log writer exits
    /// once this is zero and `jobs` is empty.
    workers_live: usize,
}

/// The campaign scheduler: owns all campaign state, feeds the worker
/// pool, and pumps subscriber emission. Shared behind an `Arc` by the
/// daemon's worker, acceptor, and connection threads.
pub(crate) struct Scheduler {
    /// As clamped by [`Daemon::start`](crate::Daemon::start).
    cfg: DaemonConfig,
    registry: SetupRegistry,
    inner: Mutex<Inner>,
    work_cv: Condvar,
    pub(crate) metrics: Mutex<MetricsRegistry>,
    /// Structured daemon journal (own internal lock).
    pub(crate) journal: Journal,
    /// Live-telemetry state (own lock; never held across `inner`).
    tele: Mutex<TeleState>,
    /// Records on their way to disk (own lock; taken under `inner` by
    /// `finalize`, never the other way round).
    log: Mutex<LogQueue>,
    log_cv: Condvar,
    /// Shards handed to the log writer and not yet announced.
    unannounced: AtomicUsize,
    /// Daemon start — the epoch for window timestamps and uptime.
    started: Instant,
}

impl Scheduler {
    pub(crate) fn new(cfg: DaemonConfig, registry: SetupRegistry) -> Self {
        let journal = Journal::new(JOURNAL_CAPACITY);
        let log = LogQueue {
            jobs: Vec::new(),
            workers_live: cfg.workers,
        };
        let scheduler = Scheduler {
            cfg,
            registry,
            inner: Mutex::new(Inner {
                campaigns: BTreeMap::new(),
                reserved: BTreeSet::new(),
                cursor: None,
                shutdown: false,
                active: 0,
                per_conn: HashMap::new(),
            }),
            work_cv: Condvar::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            journal,
            tele: Mutex::new(TeleState::new()),
            log: Mutex::new(log),
            log_cv: Condvar::new(),
            unannounced: AtomicUsize::new(0),
            started: Instant::now(),
        };
        // Pre-register every counter so the stats surface is stable from
        // boot — scrapers see zeros, not absent series.
        {
            let mut metrics = scheduler.metrics.lock().unwrap();
            for name in [
                "serve.campaigns_submitted",
                "serve.campaigns_completed",
                "serve.campaigns_resumed",
                "serve.shards_completed",
                "serve.instances_completed",
                "serve.lines_streamed",
                "serve.quota_rejections",
                "serve.backpressure_pauses",
                "serve.bad_frames",
                "serve.frames_decoded",
                "serve.bytes_in",
                "serve.bytes_out",
                "serve.telemetry_ticks",
                "serve.telemetry_dropped",
                "serve.worker_stalls",
            ] {
                metrics.add_counter(name, 0);
            }
        }
        scheduler
    }

    /// Nanoseconds since the daemon started (window timestamp epoch).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn count(&self, name: &str, delta: u64) {
        self.metrics.lock().unwrap().add_counter(name, delta);
    }

    /// Validates and registers a submission; on success the submitting
    /// connection's outbox receives the `Accepted` frame and becomes a
    /// subscriber before any outcome can be emitted.
    pub(crate) fn submit(
        &self,
        conn: u64,
        mut submission: Submission,
        outbox: &Arc<Outbox>,
        request_id: u64,
    ) -> Result<Accepted, (ErrorCode, String)> {
        // The name goes on to a file name, journal lines and metric
        // labels (where `|`, `,` and `=` are syntax); one check here keeps
        // all three well-formed.
        let name = &submission.campaign;
        let well_formed = (1..=128).contains(&name.len())
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
        if !well_formed {
            return Err((
                ErrorCode::BadSpec,
                format!("campaign name {name:?} must match [A-Za-z0-9_.-]{{1,128}}"),
            ));
        }
        let setup = self.registry.get(&submission.setup).ok_or_else(|| {
            (
                ErrorCode::UnknownSetup,
                format!(
                    "unknown setup `{}` (registered: {})",
                    submission.setup,
                    self.registry.names().join(", ")
                ),
            )
        })?;
        let instances = enumerate(&submission).map_err(|e| (ErrorCode::BadSpec, e))?;
        if instances.len() > self.cfg.quota.max_instances_per_campaign {
            self.bounce(&submission.campaign, "max_instances_per_campaign");
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "campaign enumerates {} instances, quota is {}",
                    instances.len(),
                    self.cfg.quota.max_instances_per_campaign
                ),
            ));
        }
        // A submission that stores its shard-size choice resumes under
        // the same partitioning even if the daemon default changed.
        if submission.shard_size == 0 {
            submission.shard_size = self.cfg.shard_size as u32;
        }

        // Reserve the name and the quota slots, then do the disk work
        // with the lock released: another tenant's drain, attach or stats
        // never waits for this one's disk.
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err((ErrorCode::ShuttingDown, "daemon is stopping".into()));
        }
        if inner.campaigns.contains_key(&submission.campaign)
            || inner.reserved.contains(&submission.campaign)
        {
            return Err((
                ErrorCode::AlreadyExists,
                format!("campaign `{}` already exists", submission.campaign),
            ));
        }
        if inner.active >= self.cfg.quota.max_active_campaigns {
            drop(inner);
            self.bounce(&submission.campaign, "max_active_campaigns");
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "daemon already runs {} active campaigns",
                    self.cfg.quota.max_active_campaigns
                ),
            ));
        }
        let conn_active = inner.per_conn.get(&conn).copied().unwrap_or(0);
        if conn_active >= self.cfg.quota.max_campaigns_per_conn {
            drop(inner);
            self.bounce(&submission.campaign, "max_campaigns_per_conn");
            return Err((
                ErrorCode::QuotaExceeded,
                format!(
                    "connection already runs {conn_active} active campaigns (quota {})",
                    self.cfg.quota.max_campaigns_per_conn
                ),
            ));
        }
        inner.reserved.insert(submission.campaign.clone());
        inner.active += 1;
        *inner.per_conn.entry(conn).or_insert(0) += 1;
        drop(inner);

        let log_path = self.cfg.state_dir.join(log_file_name(&submission.campaign));
        let opened = CheckpointWriter::open(&log_path).and_then(|mut writer| {
            writer.append_header(&submission)?;
            Ok(writer)
        });
        let writer = match opened {
            Ok(writer) => writer,
            Err(e) => {
                let mut inner = self.inner.lock().unwrap();
                inner.reserved.remove(&submission.campaign);
                inner.release(conn);
                return Err((ErrorCode::Internal, format!("checkpoint log: {e}")));
            }
        };

        // At least one shard: `enumerate` refuses an empty axis.
        let mut campaign =
            Campaign::from_submission(&submission, instances, setup, writer, BTreeMap::new());
        let accepted = Accepted {
            campaign: submission.campaign.clone(),
            total: campaign.instances.len() as u64,
            shards: campaign.plan.count() as u64,
            already_done: 0,
        };
        let frame = Frame::new(FrameType::Accepted, request_id, accepted.encode()).encode();
        campaign.conn = conn;
        campaign.subscribers.push(Subscriber {
            outbox: Arc::clone(outbox),
            request_id,
            sent: 0,
            done_sent: false,
        });
        self.count("serve.campaigns_submitted", 1);
        self.journal.record(JournalEvent::CampaignSubmitted {
            campaign: submission.campaign.clone(),
            total: accepted.total,
        });

        // Accepted goes into the outbox under the scheduler lock that
        // publishes the campaign, ahead of any outcome line a worker could
        // pump afterwards.
        let mut inner = self.inner.lock().unwrap();
        let _ = outbox.try_push(frame);
        inner.reserved.remove(&submission.campaign);
        inner.campaigns.insert(submission.campaign, campaign);
        drop(inner);
        self.work_cv.notify_all();
        Ok(accepted)
    }

    /// Counts and journals a quota rejection.
    fn bounce(&self, campaign: &str, reason: &str) {
        self.count("serve.quota_rejections", 1);
        self.journal.record(JournalEvent::QuotaBounced {
            campaign: campaign.to_string(),
            reason: reason.to_string(),
        });
    }

    /// Subscribes `outbox` to a named campaign, re-streaming it from
    /// instance 0 — the recovery path after a reconnect or daemon
    /// restart.
    pub(crate) fn attach(
        &self,
        name: &str,
        outbox: &Arc<Outbox>,
        request_id: u64,
    ) -> Result<Accepted, (ErrorCode, String)> {
        let mut inner = self.inner.lock().unwrap();
        let campaign = inner
            .campaigns
            .get_mut(name)
            .ok_or_else(|| (ErrorCode::UnknownCampaign, format!("no campaign `{name}`")))?;
        let accepted = Accepted {
            campaign: name.to_string(),
            total: campaign.instances.len() as u64,
            shards: campaign.plan.count() as u64,
            already_done: campaign.prefix_instances as u64,
        };
        let frame = Frame::new(FrameType::Accepted, request_id, accepted.encode());
        let _ = outbox.try_push(frame.encode());
        campaign.subscribers.push(Subscriber {
            outbox: Arc::clone(outbox),
            request_id,
            sent: 0,
            done_sent: false,
        });
        Self::pump_campaign(campaign, &self.metrics);
        drop(inner);
        self.work_cv.notify_all();
        Ok(accepted)
    }

    /// Replays every checkpoint log under the state directory, rebuilding
    /// campaign state so unfinished sweeps continue and finished ones
    /// stay attachable. Returns how many campaigns were restored.
    pub(crate) fn resume_from_state_dir(&self) -> io::Result<usize> {
        let mut restored = 0;
        let entries = match std::fs::read_dir(&self.cfg.state_dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("vwlog") {
                continue;
            }
            let contents = read_log(&path)?;
            if self.resume_one(&path, contents) {
                restored += 1;
            }
        }
        if restored > 0 {
            self.work_cv.notify_all();
        }
        Ok(restored)
    }

    fn resume_one(&self, path: &Path, contents: LogContents) -> bool {
        let Some(submission) = contents.submission else {
            return false;
        };
        let Some(setup) = self.registry.get(&submission.setup) else {
            eprintln!(
                "vw-serve: skipping resume of `{}`: setup `{}` is not registered",
                submission.campaign, submission.setup
            );
            return false;
        };
        let Ok(instances) = enumerate(&submission) else {
            return false;
        };
        let Ok(writer) = CheckpointWriter::reopen(path, contents.valid_len) else {
            return false;
        };
        let mut campaign =
            Campaign::from_submission(&submission, instances, setup, writer, contents.shards);
        let mut inner = self.inner.lock().unwrap();
        if inner.campaigns.contains_key(&campaign.name) {
            return false;
        }
        if campaign.completed_shards == campaign.plan.count() {
            // Fully executed; rebuild the summary without queueing the
            // completion marker the log may already hold.
            self.finalize(&mut campaign, contents.complete);
        } else {
            inner.active += 1;
        }
        self.count("serve.campaigns_resumed", 1);
        inner.campaigns.insert(campaign.name.clone(), campaign);
        true
    }

    /// One worker thread's life: pick a shard fairly, run it, hand it to
    /// the log writer, repeat until shutdown. `worker_id` identifies this
    /// worker in utilization gauges and stall reports.
    ///
    /// On one CPU a woken thread does not run until the running one blocks
    /// or its slice ends, so a worker that kept computing would hold every
    /// finished shard back from the disk and the client for milliseconds.
    /// It yields once when it hands a shard over and once after each
    /// instance while a shard is handed over and not yet announced; with a
    /// CPU to spare the yield returns at once.
    pub(crate) fn worker_loop(&self, worker_id: u64) {
        loop {
            let Some(job) = self.next_job() else {
                self.log.lock().unwrap().workers_live -= 1;
                self.log_cv.notify_one();
                return;
            };
            let _span = vw_trace::span("serve.shard", vw_trace::Category::Serve);
            let started = Instant::now();
            {
                let mut tele = self.tele.lock().unwrap();
                tele.workers_busy += 1;
                tele.running.insert(
                    worker_id,
                    RunningShard {
                        campaign: job.name.clone(),
                        started,
                        stall_reported: false,
                    },
                );
            }
            // Shard-grain metrics accumulate in a worker-local registry
            // and fold into the shared one once per shard, so the
            // per-instance observer only touches the telemetry lock.
            let mut local = MetricsRegistry::new();
            let outcomes = run_shard_observed(
                &job.instances[job.range.clone()],
                &job.setup,
                job.deadline,
                |_outcome, wall_ns| {
                    local.observe("serve.instance_wall_us", wall_ns / 1_000);
                    let now = self.now_ns();
                    let mut tele = self.tele.lock().unwrap();
                    tele.inst.push(now, 1);
                    let camp = tele
                        .camp
                        .entry(job.name.clone())
                        .or_insert_with(CampWindows::new);
                    camp.inst.push(now, 1);
                    camp.wall.push(now, wall_ns);
                    drop(tele);
                    if self.unannounced.load(Ordering::Relaxed) > 0 {
                        std::thread::yield_now();
                    }
                },
            );
            let shard_wall = started.elapsed();
            local.add_counter("serve.shards_completed", 1);
            local.add_counter("serve.instances_completed", outcomes.len() as u64);
            local.observe(
                "serve.shard_wall_us",
                u64::try_from(shard_wall.as_micros()).unwrap_or(u64::MAX),
            );
            self.metrics.lock().unwrap().merge_from(&local);
            {
                let mut tele = self.tele.lock().unwrap();
                tele.workers_busy -= 1;
                tele.running.remove(&worker_id);
            }
            self.unannounced.fetch_add(1, Ordering::Relaxed);
            self.log.lock().unwrap().jobs.push(LogJob {
                name: job.name,
                checkpoint: job.checkpoint,
                shard: Some((job.shard, outcomes)),
            });
            self.log_cv.notify_one();
            std::thread::yield_now();
        }
    }

    /// The log writer thread's life, and the only place a checkpoint log
    /// is written after its header: take everything queued, write it,
    /// sync each log once, then announce the shards. A write or sync that
    /// fails is reported and the shard announced all the same (the
    /// campaign completes, a restart re-runs what the log lacks). Returns
    /// when every worker has exited and the queue is empty.
    pub(crate) fn log_writer_loop(&self) {
        loop {
            let mut batch = {
                let mut log = self.log.lock().unwrap();
                while log.jobs.is_empty() && log.workers_live > 0 {
                    log = self.log_cv.wait(log).unwrap();
                }
                std::mem::take(&mut log.jobs)
            };
            if batch.is_empty() {
                return;
            }
            // Records of one log side by side, still in hand-over order.
            batch.sort_by_key(|job| Arc::as_ptr(&job.checkpoint));
            for group in batch.chunk_by(|a, b| Arc::ptr_eq(&a.checkpoint, &b.checkpoint)) {
                let mut writer = group[0].checkpoint.lock().unwrap();
                let written = group.iter().try_for_each(|job| match &job.shard {
                    Some((shard, outcomes)) => writer.write_shard(*shard as u64, outcomes),
                    None => writer.write_complete(),
                });
                let synced = writer.sync();
                if let Err(e) = written.and(synced) {
                    let name = &group[0].name;
                    eprintln!("vw-serve: checkpoint append failed for `{name}`: {e}");
                    continue;
                }
                for job in group {
                    if let Some((shard, _)) = &job.shard {
                        self.journal.record(JournalEvent::CampaignCheckpointed {
                            campaign: job.name.clone(),
                            shard: *shard as u64,
                        });
                    }
                }
            }
            for job in batch {
                if let Some((shard, outcomes)) = job.shard {
                    self.complete_shard(&job.name, shard, outcomes);
                    self.unannounced.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(job) = self.pick_locked(&mut inner) {
                return Some(job);
            }
            inner = self
                .work_cv
                .wait_timeout(inner, Duration::from_millis(100))
                .unwrap()
                .0;
        }
    }

    fn pick_locked(&self, inner: &mut Inner) -> Option<Job> {
        let names: Vec<String> = inner.campaigns.keys().cloned().collect();
        if names.is_empty() {
            return None;
        }
        let start = match &inner.cursor {
            Some(cursor) => names.iter().position(|n| n > cursor).unwrap_or(0),
            None => 0,
        };
        for i in 0..names.len() {
            let name = &names[(start + i) % names.len()];
            let max_unsent = self.cfg.max_unsent_instances;
            let campaign = inner.campaigns.get_mut(name).unwrap();
            if campaign.finished || !campaign.has_pending() {
                continue;
            }
            if campaign.lag() > max_unsent {
                // Backpressure: a subscriber is too far behind; leave
                // the campaign's remaining shards for later.
                if !campaign.paused {
                    campaign.paused = true;
                    self.metrics
                        .lock()
                        .unwrap()
                        .add_counter("serve.backpressure_pauses", 1);
                    self.journal.record(JournalEvent::CampaignPaused {
                        campaign: campaign.name.clone(),
                    });
                }
                continue;
            }
            if campaign.paused {
                campaign.paused = false;
                self.journal.record(JournalEvent::CampaignResumed {
                    campaign: campaign.name.clone(),
                });
            }
            let shard = campaign
                .shards
                .iter()
                .position(|s| matches!(s, ShardSlot::Pending))
                .unwrap();
            campaign.shards[shard] = ShardSlot::Running;
            let job = Job {
                name: campaign.name.clone(),
                shard,
                instances: Arc::clone(&campaign.instances),
                range: campaign.plan.range(shard),
                setup: campaign.setup.clone(),
                deadline: campaign.deadline,
                checkpoint: Arc::clone(&campaign.checkpoint),
            };
            inner.cursor = Some(job.name.clone());
            return Some(job);
        }
        None
    }

    fn complete_shard(&self, name: &str, shard: usize, outcomes: Vec<(InstanceOutcome, u64)>) {
        let mut inner = self.inner.lock().unwrap();
        let Some(campaign) = inner.campaigns.get_mut(name) else {
            return;
        };
        campaign.shards[shard] = ShardSlot::Done(outcomes);
        campaign.completed_shards += 1;
        Self::advance_prefix(campaign);
        Self::pump_campaign(campaign, &self.metrics);
        if campaign.completed_shards == campaign.plan.count() && !campaign.finished {
            self.finalize(campaign, false);
            let conn = campaign.conn;
            inner.release(conn);
        }
        drop(inner);
        self.work_cv.notify_all();
    }

    fn advance_prefix(campaign: &mut Campaign) {
        while campaign.prefix_shards < campaign.plan.count()
            && matches!(campaign.shards[campaign.prefix_shards], ShardSlot::Done(_))
        {
            campaign.prefix_instances = campaign.plan.range(campaign.prefix_shards).end;
            campaign.prefix_shards += 1;
        }
    }

    /// Renders the summary of a campaign whose shards are all done, marks
    /// it finished and queues `Done`. The completion marker is handed to
    /// the log writer, and the completion counted and journalled, unless
    /// the log already holds the marker (`marker_on_disk`: a campaign that
    /// finished before the daemon restarted). The marker reaches the disk
    /// after `Done` is queued: a crash in between only makes the restart
    /// finalize again.
    fn finalize(&self, campaign: &mut Campaign, marker_on_disk: bool) {
        let mut timed = Vec::with_capacity(campaign.instances.len());
        for slot in &campaign.shards {
            match slot {
                ShardSlot::Done(outcomes) => timed.extend(outcomes.iter().cloned()),
                _ => unreachable!("finalize with incomplete shards"),
            }
        }
        let result =
            CampaignResult::build(&campaign.name, &campaign.instances, timed, campaign.key);
        campaign.summary = Some(result.to_jsonl());
        campaign.finished = true;
        if !marker_on_disk {
            self.log.lock().unwrap().jobs.push(LogJob {
                name: campaign.name.clone(),
                checkpoint: Arc::clone(&campaign.checkpoint),
                shard: None,
            });
            self.log_cv.notify_one();
            self.count("serve.campaigns_completed", 1);
            self.journal.record(JournalEvent::CampaignDone {
                campaign: campaign.name.clone(),
            });
        }
        Self::pump_campaign(campaign, &self.metrics);
    }

    /// Pushes every emittable line (and the final `Done`) to each
    /// subscriber, stopping per-subscriber at a full outbox and dropping
    /// subscribers whose connection is gone.
    fn pump_campaign(campaign: &mut Campaign, metrics: &Mutex<MetricsRegistry>) {
        let _span = vw_trace::span("serve.emit", vw_trace::Category::Serve);
        let mut streamed = 0u64;
        let mut closed: Vec<usize> = Vec::new();
        // Disjoint field borrows: subscribers mutably, result state
        // immutably.
        let Campaign {
            subscribers,
            instances,
            plan,
            shards,
            key,
            prefix_instances,
            finished,
            summary,
            ..
        } = campaign;
        let outcome_at = |pos: usize| -> &(InstanceOutcome, u64) {
            let shard = pos / plan.shard_size();
            let offset = pos - plan.range(shard).start;
            match &shards[shard] {
                ShardSlot::Done(outcomes) => &outcomes[offset],
                _ => unreachable!("emitting instance {pos} before shard {shard} completed"),
            }
        };
        for (i, sub) in subscribers.iter_mut().enumerate() {
            'emit: while sub.sent < *prefix_instances {
                let pos = sub.sent;
                let (outcome, _wall_ns) = outcome_at(pos);
                let instance = &instances[pos];
                let line = instance_jsonl_line(instance.index, &instance.labels, outcome, key);
                let frame = Frame::new(
                    FrameType::Outcome,
                    sub.request_id,
                    encode_outcome_line(instance.index as u64, &line),
                );
                match sub.outbox.try_push(frame.encode()) {
                    Push::Ok => {
                        sub.sent += 1;
                        streamed += 1;
                    }
                    Push::Full => break 'emit,
                    Push::Closed => {
                        closed.push(i);
                        break 'emit;
                    }
                }
            }
            if *finished && sub.sent == instances.len() && !sub.done_sent && !closed.contains(&i) {
                let summary = summary.clone().unwrap_or_default();
                let frame = Frame::new(
                    FrameType::Done,
                    sub.request_id,
                    crate::payload::encode_outcome_line(instances.len() as u64, &summary),
                );
                match sub.outbox.try_push(frame.encode()) {
                    Push::Ok => sub.done_sent = true,
                    Push::Full => {}
                    Push::Closed => closed.push(i),
                }
            }
        }
        for &i in closed.iter().rev() {
            subscribers.remove(i);
        }
        if streamed > 0 {
            metrics
                .lock()
                .unwrap()
                .add_counter("serve.lines_streamed", streamed);
        }
    }

    /// Called by connection writer threads after writing a batch:
    /// re-pump emission (outboxes have room again) and wake workers
    /// (a paused campaign may be dispatchable again).
    pub(crate) fn on_drain(&self) {
        let mut inner = self.inner.lock().unwrap();
        for campaign in inner.campaigns.values_mut() {
            if campaign.subscribers.is_empty() {
                continue;
            }
            Self::pump_campaign(campaign, &self.metrics);
        }
        drop(inner);
        self.work_cv.notify_all();
    }

    /// Renders the daemon metrics in Prometheus text format, refreshing
    /// the live gauges first.
    pub(crate) fn prometheus(&self) -> String {
        self.build_snapshot(None).to_prometheus()
    }

    /// A coherent point-in-time registry: the shared counters plus
    /// freshly computed gauges (campaign facts, window rates, worker
    /// utilization, build info). `filter` restricts the per-campaign
    /// series to one campaign; daemon-wide series always appear.
    ///
    /// Locks are taken strictly one at a time — `inner`, then `metrics`,
    /// then `tele` — never nested, so this can run on any thread.
    fn build_snapshot(&self, filter: Option<&str>) -> MetricsRegistry {
        let inner = self.inner.lock().unwrap();
        let active = inner.active;
        let paused = inner.campaigns.values().filter(|c| c.paused).count();
        let subscribers: usize = inner.campaigns.values().map(|c| c.subscribers.len()).sum();
        let known = inner.campaigns.len();
        let facts: Vec<CampaignFact> = inner
            .campaigns
            .values()
            .filter(|c| filter.is_none_or(|f| c.name == f))
            .map(|c| CampaignFact {
                name: c.name.clone(),
                total: c.instances.len(),
                done_instances: c
                    .shards
                    .iter()
                    .map(|s| match s {
                        ShardSlot::Done(outcomes) => outcomes.len(),
                        _ => 0,
                    })
                    .sum(),
                state: if c.finished {
                    2
                } else if c.paused {
                    1
                } else {
                    0
                },
                subscribers: c.subscribers.len(),
            })
            .collect();
        drop(inner);

        let mut snap = self.metrics.lock().unwrap().clone();

        snap.set_gauge("serve.active_campaigns", active as i64);
        snap.set_gauge("serve.paused_campaigns", paused as i64);
        snap.set_gauge("serve.subscribers", subscribers as i64);
        snap.set_gauge("serve.known_campaigns", known as i64);
        snap.set_gauge(
            "vw.uptime_seconds",
            i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX),
        );
        snap.set_gauge(
            &labeled_key("vw.build_info", &[("version", env!("CARGO_PKG_VERSION"))]),
            1,
        );

        let now = self.now_ns();
        let tele = self.tele.lock().unwrap();
        snap.set_gauge("serve.workers", tele.workers_total);
        snap.set_gauge("serve.workers_busy", tele.workers_busy);
        snap.set_gauge("serve.telemetry_subscribers", tele.subs.len() as i64);
        // Rates are gauges in milli-units (f64 rate × 1000, truncated):
        // the registry is integer-only and inst/sec under 1.0 matters.
        snap.set_gauge(
            "serve.inst_per_sec_milli",
            (tele.inst.rate_per_sec(now, WINDOW_HORIZON_NS) * 1000.0) as i64,
        );
        snap.set_gauge(
            "serve.frames_per_sec_milli",
            (tele.frames.rate_per_sec(now, WINDOW_HORIZON_NS) * 1000.0) as i64,
        );
        snap.set_gauge(
            "serve.bytes_in_per_sec",
            tele.bytes_in.rate_per_sec(now, WINDOW_HORIZON_NS) as i64,
        );
        snap.set_gauge(
            "serve.bytes_out_per_sec",
            tele.bytes_out.rate_per_sec(now, WINDOW_HORIZON_NS) as i64,
        );
        for fact in &facts {
            let labels = [("campaign", fact.name.as_str())];
            snap.set_gauge(
                &labeled_key("serve.campaign.total", &labels),
                fact.total as i64,
            );
            snap.set_gauge(
                &labeled_key("serve.campaign.completed", &labels),
                fact.done_instances as i64,
            );
            snap.set_gauge(&labeled_key("serve.campaign.state", &labels), fact.state);
            snap.set_gauge(
                &labeled_key("serve.campaign.subscribers", &labels),
                fact.subscribers as i64,
            );
            if let Some(windows) = tele.camp.get(&fact.name) {
                snap.set_gauge(
                    &labeled_key("serve.campaign.inst_per_sec_milli", &labels),
                    (windows.inst.rate_per_sec(now, WINDOW_HORIZON_NS) * 1000.0) as i64,
                );
                if let Some(p50) = windows.wall.percentile(now, WINDOW_HORIZON_NS, 50.0) {
                    snap.set_gauge(
                        &labeled_key("serve.campaign.wall_p50_ns", &labels),
                        i64::try_from(p50).unwrap_or(i64::MAX),
                    );
                }
                if let Some(p99) = windows.wall.percentile(now, WINDOW_HORIZON_NS, 99.0) {
                    snap.set_gauge(
                        &labeled_key("serve.campaign.wall_p99_ns", &labels),
                        i64::try_from(p99).unwrap_or(i64::MAX),
                    );
                }
            }
        }
        snap
    }

    /// Registers a live telemetry subscription on `outbox`. The first
    /// delta (a full snapshot, since the baseline is empty) arrives on
    /// the next ticker pass and doubles as the acknowledgement.
    pub(crate) fn subscribe(&self, sub: Subscribe, outbox: &Arc<Outbox>, request_id: u64) {
        let interval_ms =
            u64::from(sub.interval_ms).clamp(self.cfg.telemetry_min_interval_ms, 60_000);
        let mut tele = self.tele.lock().unwrap();
        tele.subs.push(TeleSub {
            outbox: Arc::clone(outbox),
            request_id,
            interval: Duration::from_millis(interval_ms),
            next_due: Instant::now(),
            prometheus_text: sub.prometheus_text,
            campaign: sub.campaign,
            min_severity: sub.journal_min_severity,
            journal_cursor: 0,
            last_sent: MetricsRegistry::new(),
            seq: 0,
            dropped: 0,
        });
    }

    /// One pass of the daemon's telemetry ticker: stall detection plus a
    /// delta push to every due subscriber. A full outbox *drops* the
    /// tick (counted, baseline uncommitted) — telemetry can never stall
    /// a sweep the way a slow campaign subscriber deliberately does.
    pub(crate) fn telemetry_tick(&self) {
        self.check_stalls();
        let now = Instant::now();
        let filters: Vec<String> = {
            let tele = self.tele.lock().unwrap();
            let mut filters: Vec<String> = tele
                .subs
                .iter()
                .filter(|s| s.next_due <= now)
                .map(|s| s.campaign.clone())
                .collect();
            filters.sort();
            filters.dedup();
            filters
        };
        if filters.is_empty() {
            return;
        }
        // Snapshots build outside the telemetry lock; one per distinct
        // campaign filter, shared by all subscribers using it.
        let snaps: Vec<(String, MetricsRegistry)> = filters
            .into_iter()
            .map(|f| {
                let snap = self.build_snapshot(if f.is_empty() { None } else { Some(&f) });
                (f, snap)
            })
            .collect();

        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut tele = self.tele.lock().unwrap();
        let subs = std::mem::take(&mut tele.subs);
        let mut kept = Vec::with_capacity(subs.len());
        for mut sub in subs {
            if sub.next_due > now {
                kept.push(sub);
                continue;
            }
            let Some((_, snap)) = snaps.iter().find(|(f, _)| *f == sub.campaign) else {
                kept.push(sub);
                continue;
            };
            let entries = self
                .journal
                .query(sub.journal_cursor, sub.min_severity, JOURNAL_BATCH);
            let payload = TelemetryDelta {
                seq: sub.seq,
                dropped: sub.dropped,
                journal: entries,
                delta: snap.encode_delta_from(&sub.last_sent),
                prometheus: if sub.prometheus_text {
                    snap.to_prometheus()
                } else {
                    String::new()
                },
            };
            let frame = Frame::new(FrameType::TelemetryDelta, sub.request_id, payload.encode());
            sub.next_due = now + sub.interval;
            match sub.outbox.try_push(frame.encode()) {
                Push::Ok => {
                    // Baseline commits only on delivery: changes carried
                    // by a dropped tick fold into the next delivered one.
                    sub.last_sent = snap.clone();
                    if let Some(last) = payload.journal.last() {
                        sub.journal_cursor = last.seq + 1;
                    }
                    sub.seq += 1;
                    delivered += 1;
                    kept.push(sub);
                }
                Push::Full => {
                    sub.dropped += 1;
                    dropped += 1;
                    kept.push(sub);
                }
                Push::Closed => {}
            }
        }
        tele.subs = kept;
        drop(tele);
        if delivered > 0 {
            self.count("serve.telemetry_ticks", delivered);
        }
        if dropped > 0 {
            self.count("serve.telemetry_dropped", dropped);
        }
    }

    /// Journals a `WorkerStalled` warning — once per shard — for any
    /// worker whose current shard has run longer than `stall_warn_ms`.
    fn check_stalls(&self) {
        let threshold = Duration::from_millis(self.cfg.stall_warn_ms);
        let mut stalled: Vec<(u64, String, u64)> = Vec::new();
        {
            let mut tele = self.tele.lock().unwrap();
            for (worker, shard) in tele.running.iter_mut() {
                let running = shard.started.elapsed();
                if running >= threshold && !shard.stall_reported {
                    shard.stall_reported = true;
                    stalled.push((
                        *worker,
                        shard.campaign.clone(),
                        u64::try_from(running.as_millis()).unwrap_or(u64::MAX),
                    ));
                }
            }
        }
        for (worker, campaign, running_ms) in stalled {
            self.count("serve.worker_stalls", 1);
            self.journal.record(JournalEvent::WorkerStalled {
                worker,
                campaign,
                running_ms,
            });
        }
    }

    /// Records `n` frames decoded off a connection.
    pub(crate) fn note_frames(&self, n: u64) {
        let now = self.now_ns();
        self.tele.lock().unwrap().frames.push(now, n);
        self.count("serve.frames_decoded", n);
    }

    /// Records `n` bytes read from a connection.
    pub(crate) fn note_bytes_in(&self, n: u64) {
        let now = self.now_ns();
        self.tele.lock().unwrap().bytes_in.push(now, n);
        self.count("serve.bytes_in", n);
    }

    /// Records `n` bytes written to a connection.
    pub(crate) fn note_bytes_out(&self, n: u64) {
        let now = self.now_ns();
        self.tele.lock().unwrap().bytes_out.push(now, n);
        self.count("serve.bytes_out", n);
    }

    /// Sets the worker-pool size gauge (called once at daemon start).
    pub(crate) fn set_worker_count(&self, n: usize) {
        self.tele.lock().unwrap().workers_total = n as i64;
    }

    /// Graceful stop: workers finish their in-flight shard (which still
    /// checkpoints) and exit; no new shards dispatch.
    pub(crate) fn stop(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.work_cv.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.inner.lock().unwrap().shutdown
    }
}

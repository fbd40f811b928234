//! The daemon's decisions, in one place: which shard runs next, which
//! line goes to which connection and when, when a campaign pauses, what
//! the journal says. [`Scheduler`] is a plain struct that one thread owns
//! (the owner loop in `server.rs`): [`Scheduler::handle`] takes one
//! [`Input`] and appends the [`Effect`]s it decided, which the owner
//! carries out in order after it returns. It reads no clock, takes no lock
//! and touches no socket or file; the workers, the log writer and the
//! connection threads only carry out effects and post inputs back.
//!
//! ## Fairness
//!
//! All campaigns share one pool. An idle worker gets a shard of the next
//! *eligible* campaign in round-robin order (a cursor over campaign
//! names), exactly one shard per pick, so a million-instance sweep cannot
//! starve a ten-instance one: interleaving granularity is the shard.
//!
//! ## In-order streaming
//!
//! Shards are contiguous ([`ShardPlan`]), so the campaign's *completed
//! prefix* — the leading run of finished shards — is exactly the set of
//! instances whose outcomes are final and emittable. Each subscriber
//! has a `sent` watermark into that prefix. The plan's first shard holds
//! one instance, so a campaign's first line waits for one instance and
//! one sync, not a whole shard; the plan alone maps a position to its
//! shard ([`ShardPlan::locate`]).
//!
//! ## Backpressure
//!
//! A connection has `outbox_frames` credits: each frame sent takes one,
//! and its writer gives them back as it puts frames on the socket
//! ([`Input::Drained`]). A slow client's `sent` watermark stalls once its
//! credits are spent; once the campaign's unsent backlog (outcomes a
//! worker has reported, durable or not, less those sent) exceeds
//! `max_unsent_instances` the campaign is skipped by dispatch — the sweep
//! *pauses* instead of buffering unboundedly — until a drain lets the
//! subscriber catch up. A telemetry tick without credit is dropped and
//! counted, never waited for. Replies may run past the credit to
//! [`REPLY_HEADROOM`], and are dropped beyond it.
//!
//! ## Durability
//!
//! A campaign's header is durable before `Accepted` ([`Effect::OpenLog`],
//! [`Input::LogOpened`]); a finished shard is announced, and its lines
//! sent, only once its record is synced ([`Effect::Append`],
//! [`Input::Durable`]); the completion marker follows `Done`.

use std::collections::BTreeMap;
use std::ops::{Bound, Range};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use vw_campaign::{
    instance_jsonl_line, CampaignError, CampaignResult, CampaignSpec, DigestKey, Instance,
    InstanceOutcome, ShardPlan,
};
use vw_netsim::SimDuration;
use vw_obs::{labeled_key, MetricsRegistry, RollingWindow};

use crate::frame::{Frame, FrameType};
use crate::journal::{Journal, JournalEvent};
use crate::payload::{
    decode_text, encode_error, encode_outcome_line, encode_text, Accepted, ErrorCode, JournalQuery,
    JournalReply, Submission, Subscribe, TelemetryDelta,
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
/// Undrained frames, in multiples of `outbox_frames`, past which a reply is
/// dropped: a client that never reads its socket holds bounded memory.
const REPLY_HEADROOM: usize = 2;

/// A shard's outcomes, each with its wall time in nanoseconds.
pub(crate) type Outcomes = Vec<(InstanceOutcome, u64)>;

/// A submission checked as far as it can be without the daemon's state:
/// its name, its setup, how many instances it enumerates to, and those
/// instances unless there are more than the quota allows.
pub(crate) struct Prepared {
    submission: Submission,
    size: usize,
    instances: Vec<Instance>,
    setup: SetupHandle,
}

impl Prepared {
    /// Checks `submission` against `registry` and enumerates it if it has
    /// at most `max_instances` instances; a larger one is left for
    /// [`Scheduler`]'s quota check to refuse. A submission that leaves
    /// the shard size to the daemon gets `shard_size`, stored with it so a
    /// resume partitions the same way.
    pub(crate) fn new(
        mut submission: Submission,
        registry: &SetupRegistry,
        shard_size: usize,
        max_instances: usize,
    ) -> Result<Prepared, (ErrorCode, String)> {
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
        let setup = registry.get(&submission.setup).ok_or_else(|| {
            (
                ErrorCode::UnknownSetup,
                format!(
                    "unknown setup `{}` (registered: {})",
                    submission.setup,
                    registry.names().join(", ")
                ),
            )
        })?;
        let base = vw_fsl::parse(&submission.program)
            .map_err(|e| (ErrorCode::BadSpec, format!("program parse failed: {e}")))?;
        let spec = CampaignSpec {
            name: submission.campaign.clone(),
            base,
            axes: submission.axes.clone(),
            defaults: submission.defaults,
            sampling: submission.sampling,
        };
        let bad_spec = |e: CampaignError| (ErrorCode::BadSpec, e.to_string());
        let size = spec.instance_count().map_err(bad_spec)?;
        let instances = if size <= max_instances {
            spec.enumerate().map_err(bad_spec)?
        } else {
            Vec::new()
        };
        if submission.shard_size == 0 {
            submission.shard_size = shard_size as u32;
        }
        Ok(Prepared {
            submission,
            size,
            instances,
            setup,
        })
    }
}

/// A client request, decoded and checked on its connection's reader.
pub(crate) enum Request {
    Submit(Box<Prepared>),
    Attach(String),
    Stats,
    Ping,
    Subscribe(Subscribe),
    JournalQuery(JournalQuery),
    /// Refused where it was read: an undecodable payload, a reply type, or
    /// a submission [`Prepared::new`] turned down.
    Refused(ErrorCode, String),
}

impl Request {
    /// The request `frame` makes; a submission is prepared here, on the
    /// calling thread.
    pub(crate) fn read(
        frame: &Frame,
        registry: &SetupRegistry,
        shard_size: usize,
        max_instances: usize,
    ) -> Request {
        let undecodable = |what: &str| {
            Request::Refused(ErrorCode::BadFrame, format!("undecodable {what} payload"))
        };
        let payload = &frame.payload;
        match frame.frame_type {
            FrameType::Submit => match Submission::decode(payload) {
                Some(submission) => {
                    match Prepared::new(submission, registry, shard_size, max_instances) {
                        Ok(prepared) => Request::Submit(Box::new(prepared)),
                        Err((code, message)) => Request::Refused(code, message),
                    }
                }
                None => undecodable("Submit"),
            },
            FrameType::Attach => {
                decode_text(payload).map_or_else(|| undecodable("Attach"), Request::Attach)
            }
            FrameType::Stats => Request::Stats,
            FrameType::Ping => Request::Ping,
            FrameType::Subscribe => Subscribe::decode(payload)
                .map_or_else(|| undecodable("Subscribe"), Request::Subscribe),
            FrameType::JournalQuery => JournalQuery::decode(payload)
                .map_or_else(|| undecodable("JournalQuery"), Request::JournalQuery),
            // Every other type is a reply: protocol misuse at the daemon.
            _ => Request::Refused(
                ErrorCode::BadFrame,
                "reply frame type sent to daemon".into(),
            ),
        }
    }
}

/// One shard for a worker to run.
pub(crate) struct Job {
    pub(crate) instances: Arc<Vec<Instance>>,
    pub(crate) range: Range<usize>,
    pub(crate) setup: SetupHandle,
    pub(crate) deadline: SimDuration,
}

/// A finished shard's record; once the log writer has written it, `synced`
/// unless the write or the sync after it failed.
pub(crate) struct Record {
    pub(crate) name: String,
    pub(crate) shard: usize,
    pub(crate) outcomes: Outcomes,
    pub(crate) synced: bool,
}

/// Everything the scheduler is told.
pub(crate) enum Input {
    /// A client connected; its writer thread sends what arrives on `writer`.
    ConnOpened { conn: u64, writer: Sender<Vec<u8>> },
    /// A connection's reader took `bytes` off its socket.
    Read { bytes: u64 },
    /// A request decoded off a connection, to be answered under `id`.
    Request {
        conn: u64,
        id: u64,
        request: Request,
    },
    /// A connection sent bytes that do not frame; its reader closes it next.
    BadFrame { conn: u64, detail: String },
    /// A connection's reader is gone: EOF, an error, or the daemon stopping.
    ConnClosed { conn: u64 },
    /// A connection's writer put `frames` frames, `bytes` bytes, on its
    /// socket.
    Drained {
        conn: u64,
        frames: usize,
        bytes: u64,
    },
    /// The log writer opened a submission's log and synced its header.
    LogOpened {
        name: String,
        result: Result<(), String>,
    },
    /// A worker finished its shard: the outcomes, its worker-local metrics,
    /// and per instance `(t_ns, wall_ns)`.
    ShardRan {
        worker: usize,
        outcomes: Outcomes,
        metrics: MetricsRegistry,
        samples: Vec<(u64, u64)>,
    },
    /// The log writer wrote these shard records and synced their logs.
    Durable { records: Vec<Record> },
    /// A campaign read back from its log at start-up, with the shards the
    /// log holds and whether it holds the completion marker.
    Resumed {
        campaign: Box<Prepared>,
        shards: BTreeMap<u64, Outcomes>,
        complete: bool,
    },
    /// The daemon's metrics as Prometheus text, wanted on `reply`.
    Metrics(Sender<String>),
    /// Telemetry pacing and stall checks.
    Tick,
    /// Dispatch nothing more; exit once no shard runs or syncs, no log opens.
    Stop,
}

/// Everything the scheduler decides, for the owner to carry out in order.
pub(crate) enum Effect {
    /// Run `job` on the idle worker `worker`.
    Run { worker: usize, job: Job },
    /// Open a new campaign's log and sync its header; answer `LogOpened`.
    OpenLog {
        name: String,
        submission: Submission,
    },
    /// Write a finished shard's record; it comes back in `Durable`.
    Append(Record),
    /// Write a finished campaign's completion marker.
    Complete { name: String },
    /// Queue encoded frames for a connection's writer.
    Send { conn: u64, bytes: Vec<u8> },
    /// Let a connection's writer finish what is queued and close.
    Close { conn: u64 },
    /// Append a line to the state directory's `journal.jsonl`.
    JournalLine(String),
    /// Stopped, and nothing runs, syncs or opens: the owner exits.
    Exit,
}

impl Effect {
    /// A frame for `conn`.
    fn send(conn: u64, frame_type: FrameType, id: u64, payload: Vec<u8>) -> Effect {
        let bytes = Frame::new(frame_type, id, payload).encode();
        Effect::Send { conn, bytes }
    }
}

struct Subscriber {
    conn: u64,
    id: u64,
    /// Instances already sent to this subscriber.
    sent: usize,
    done_sent: bool,
}

enum Phase {
    /// The log writer is making the header durable; `Accepted` answers
    /// request `id` of the submitting connection then.
    Opening {
        id: u64,
    },
    Running,
    /// Every outcome has moved into the result, which later subscribers
    /// stream from.
    Finished(CampaignResult),
}

/// Per-campaign sliding windows, fed as shards finish.
struct CampWindows {
    /// Completion deltas (one sample per finished instance).
    inst: RollingWindow,
    /// Per-instance wall time in nanoseconds.
    wall: RollingWindow,
}

struct Campaign {
    name: String,
    /// The submitting connection, for its quota (0 when resumed).
    conn: u64,
    instances: Arc<Vec<Instance>>,
    plan: ShardPlan,
    setup: SetupHandle,
    deadline: SimDuration,
    key: DigestKey,
    /// Per shard, its outcomes once its record is durable. Emptied when
    /// the campaign finishes.
    shards: Vec<Option<Outcomes>>,
    /// The first shard no worker has taken and the log did not hold. Every
    /// shard before it is running or done, so it only moves forward and
    /// dispatch stays linear in the campaign's shards.
    next_pending: usize,
    /// Leading run of completed shards.
    prefix_shards: usize,
    /// Instances covered by the completed prefix (final + emittable).
    prefix_instances: usize,
    /// Instances in completed shards.
    completed: usize,
    /// Instances in shards a worker has reported, durable or not.
    reported: usize,
    phase: Phase,
    subscribers: Vec<Subscriber>,
    /// Currently skipped by dispatch because a subscriber lags.
    paused: bool,
    windows: Option<CampWindows>,
}

impl Campaign {
    /// A campaign over what `prepared` enumerates to, sharded by the
    /// submission's stored shard size, with no subscriber yet; the
    /// submission comes back for the log header. `done` holds the shards a
    /// checkpoint log already has; a log shard must match the plan exactly
    /// — anything else is a stale or foreign record and gets re-run.
    fn new(
        prepared: Box<Prepared>,
        conn: u64,
        phase: Phase,
        done: BTreeMap<u64, Outcomes>,
    ) -> (Campaign, Submission) {
        let Prepared {
            submission,
            instances,
            setup,
            ..
        } = *prepared;
        let plan = ShardPlan::new(instances.len(), submission.shard_size as usize);
        let mut campaign = Campaign {
            name: submission.campaign.clone(),
            conn,
            instances: Arc::new(instances),
            shards: (0..plan.count()).map(|_| None).collect(),
            next_pending: 0,
            plan,
            setup,
            deadline: SimDuration::from_nanos(submission.deadline_ns),
            key: submission.key,
            prefix_shards: 0,
            prefix_instances: 0,
            completed: 0,
            reported: 0,
            phase,
            subscribers: Vec::new(),
            paused: false,
            windows: None,
        };
        for (shard, outcomes) in done {
            let shard = shard as usize;
            if shard < campaign.plan.count() && outcomes.len() == campaign.plan.range(shard).len() {
                campaign.complete(shard, outcomes);
            }
        }
        campaign.reported = campaign.completed;
        campaign.skip_done();
        (campaign, submission)
    }

    /// Moves `next_pending` past the shards the log already holds.
    fn skip_done(&mut self) {
        while matches!(self.shards.get(self.next_pending), Some(Some(_))) {
            self.next_pending += 1;
        }
    }

    fn finished(&self) -> bool {
        matches!(self.phase, Phase::Finished(_))
    }

    /// The largest unsent backlog of a subscriber, shards not yet durable
    /// included: workers that outrun the disk still pause for it.
    fn lag(&self) -> usize {
        self.subscribers
            .iter()
            .map(|s| self.reported.saturating_sub(s.sent))
            .max()
            .unwrap_or(0)
    }

    /// Stores a shard's outcomes and advances the completed prefix; with the
    /// last shard, moves every outcome into the campaign's result. Returns
    /// whether the campaign finished.
    fn complete(&mut self, shard: usize, outcomes: Outcomes) -> bool {
        self.completed += outcomes.len();
        self.shards[shard] = Some(outcomes);
        while self.prefix_shards < self.plan.count() && self.shards[self.prefix_shards].is_some() {
            self.prefix_instances = self.plan.range(self.prefix_shards).end;
            self.prefix_shards += 1;
        }
        if self.completed < self.instances.len() {
            return false;
        }
        let timed = self
            .shards
            .drain(..)
            .flat_map(|slot| slot.expect("a campaign finishes with every shard done"))
            .collect();
        let result = CampaignResult::build(&self.name, &self.instances, timed, self.key);
        self.phase = Phase::Finished(result);
        true
    }

    /// The `Outcome` payload of instance `pos` of the completed prefix.
    fn line(&self, pos: usize) -> Vec<u8> {
        let outcome = match &self.phase {
            Phase::Finished(result) => &result.instances[pos].outcome,
            _ => {
                let (shard, offset) = self.plan.locate(pos);
                let outcomes = self.shards[shard].as_ref();
                &outcomes.expect("a line is emitted only once its shard is done")[offset].0
            }
        };
        let instance = &self.instances[pos];
        let line = instance_jsonl_line(instance.index, &instance.labels, outcome, &self.key);
        encode_outcome_line(instance.index as u64, &line)
    }

    /// Sends each subscriber, in instance order, the lines its connection
    /// has credit for, then `Done` once the campaign is finished. Returns
    /// how many lines went out.
    fn pump(
        &mut self,
        conns: &mut BTreeMap<u64, usize>,
        credit: usize,
        out: &mut Vec<Effect>,
    ) -> u64 {
        let _span = vw_trace::span("serve.emit", vw_trace::Category::Serve);
        let mut streamed = 0;
        let mut subscribers = std::mem::take(&mut self.subscribers);
        for sub in &mut subscribers {
            let Some(spent) = conns.get_mut(&sub.conn) else {
                continue;
            };
            while sub.sent < self.prefix_instances && *spent < credit {
                let line = self.line(sub.sent);
                out.push(Effect::send(sub.conn, FrameType::Outcome, sub.id, line));
                *spent += 1;
                sub.sent += 1;
                streamed += 1;
            }
            if let Phase::Finished(result) = &self.phase {
                if sub.sent == self.instances.len() && !sub.done_sent && *spent < credit {
                    let total = self.instances.len() as u64;
                    let summary = encode_outcome_line(total, &result.to_jsonl());
                    out.push(Effect::send(sub.conn, FrameType::Done, sub.id, summary));
                    *spent += 1;
                    sub.done_sent = true;
                }
            }
        }
        self.subscribers = subscribers;
        streamed
    }
}

/// What a worker is running (stall detection, and where its outcomes go).
struct RunningShard {
    campaign: String,
    shard: usize,
    started_ns: u64,
    stall_reported: bool,
}

/// One live telemetry subscription. Telemetry subscribers are tracked
/// apart from campaign [`Subscriber`]s on purpose: they never enter
/// `Campaign::lag()`, so a slow telemetry client *cannot* pause a sweep
/// — its ticks are dropped (and counted) instead.
struct TeleSub {
    conn: u64,
    id: u64,
    /// Its interval already clamped.
    sub: Subscribe,
    next_due_ns: u64,
    /// Next journal seq this subscriber has not yet received.
    journal_cursor: u64,
    /// The registry state as of the last *delivered* tick — the delta
    /// baseline. Only committed on a send, so changes carried by a dropped
    /// tick fold into the next delivered one.
    last_sent: MetricsRegistry,
    seq: u64,
    dropped: u64,
}

/// Records `event` and hands its JSONL line to the log writer.
fn note(journal: &mut Journal, event: JournalEvent, out: &mut Vec<Effect>) {
    out.push(Effect::JournalLine(journal.record(event).to_jsonl()));
}

/// A refused request's code and message.
type Refusal = (ErrorCode, String);

/// The campaign scheduler: all campaign, connection and telemetry state.
pub(crate) struct Scheduler {
    /// As clamped by [`Daemon::start`](crate::Daemon::start).
    cfg: DaemonConfig,
    campaigns: BTreeMap<String, Campaign>,
    /// Dispatch resumes after this campaign name ("" before the first).
    cursor: String,
    /// Per worker, the shard it runs.
    running: Vec<Option<RunningShard>>,
    /// Per open connection, frames sent and not yet drained.
    conns: BTreeMap<u64, usize>,
    /// Shard records handed to the log writer and not yet durable.
    unsynced: usize,
    stopping: bool,
    metrics: MetricsRegistry,
    journal: Journal,
    tele: Vec<TeleSub>,
    /// Daemon-wide instance completions.
    inst: RollingWindow,
    /// Frames decoded off client connections.
    frames: RollingWindow,
    bytes_in: RollingWindow,
    bytes_out: RollingWindow,
}

impl Scheduler {
    pub(crate) fn new(cfg: DaemonConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        // Pre-register every counter so the stats surface is stable from
        // boot — scrapers see zeros, not absent series.
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
        Scheduler {
            running: (0..cfg.workers).map(|_| None).collect(),
            cfg,
            campaigns: BTreeMap::new(),
            cursor: String::new(),
            conns: BTreeMap::new(),
            unsynced: 0,
            stopping: false,
            metrics,
            journal: Journal::new(JOURNAL_CAPACITY),
            tele: Vec::new(),
            inst: RollingWindow::new(WINDOW_CAPACITY),
            frames: RollingWindow::new(WINDOW_CAPACITY),
            bytes_in: RollingWindow::new(WINDOW_CAPACITY),
            bytes_out: RollingWindow::new(WINDOW_CAPACITY),
        }
    }

    /// Takes `input` at `now_ns` (nanoseconds since the daemon started) and
    /// appends what it decided to `out`, in the order it must happen. Any
    /// idle worker gets a shard before it returns.
    pub(crate) fn handle(&mut self, now_ns: u64, input: Input, out: &mut Vec<Effect>) {
        self.journal.set_now_ms(now_ns / 1_000_000);
        match input {
            Input::ConnOpened { conn, .. } => {
                self.conns.insert(conn, 0);
                self.note(JournalEvent::ConnAccepted { conn }, out);
            }
            Input::Read { bytes } => {
                self.bytes_in.push(now_ns, bytes);
                self.metrics.add_counter("serve.bytes_in", bytes);
            }
            Input::Request { conn, id, request } => {
                self.frames.push(now_ns, 1);
                self.metrics.add_counter("serve.frames_decoded", 1);
                self.request(now_ns, conn, id, request, out);
            }
            Input::BadFrame { conn, detail } => {
                self.metrics.add_counter("serve.bad_frames", 1);
                self.refuse(conn, 0, (ErrorCode::BadFrame, detail.clone()), out);
                self.note(JournalEvent::FrameError { conn, detail }, out);
            }
            Input::ConnClosed { conn } => {
                // Campaigns keep running — results stay checkpointed and
                // re-attachable.
                if self.conns.remove(&conn).is_some() {
                    for campaign in self.campaigns.values_mut() {
                        campaign.subscribers.retain(|s| s.conn != conn);
                    }
                    self.tele.retain(|s| s.conn != conn);
                    self.note(JournalEvent::ConnClosed { conn }, out);
                    out.push(Effect::Close { conn });
                }
            }
            Input::Drained {
                conn,
                frames,
                bytes,
            } => {
                if let Some(spent) = self.conns.get_mut(&conn) {
                    *spent = spent.saturating_sub(frames);
                }
                self.bytes_out.push(now_ns, bytes);
                self.metrics.add_counter("serve.bytes_out", bytes);
                let mut streamed = 0;
                for campaign in self.campaigns.values_mut() {
                    streamed += campaign.pump(&mut self.conns, self.cfg.outbox_frames, out);
                }
                self.metrics.add_counter("serve.lines_streamed", streamed);
            }
            Input::LogOpened { name, result } => self.log_opened(name, result, out),
            Input::ShardRan {
                worker,
                outcomes,
                metrics,
                samples,
            } => {
                let run = self.running[worker].take().expect("a running shard");
                self.metrics.merge_from(&metrics);
                let campaign = self.campaigns.get_mut(&run.campaign).expect("running");
                let windows = campaign.windows.get_or_insert_with(|| CampWindows {
                    inst: RollingWindow::new(WINDOW_CAPACITY),
                    wall: RollingWindow::new(WINDOW_CAPACITY),
                });
                campaign.reported += outcomes.len();
                for &(t_ns, wall_ns) in &samples {
                    self.inst.push(t_ns, 1);
                    windows.inst.push(t_ns, 1);
                    windows.wall.push(t_ns, wall_ns);
                }
                self.unsynced += 1;
                out.push(Effect::Append(Record {
                    name: run.campaign,
                    shard: run.shard,
                    outcomes,
                    synced: false,
                }));
            }
            Input::Durable { records } => {
                for record in &records {
                    self.unsynced -= 1;
                    if record.synced {
                        let campaign = record.name.clone();
                        let shard = record.shard as u64;
                        self.note(JournalEvent::CampaignCheckpointed { campaign, shard }, out);
                    }
                }
                for record in records {
                    // Announced: stream what it completes, finish on the
                    // last shard.
                    let campaign = self.campaigns.get_mut(&record.name).expect("running");
                    let finished = campaign.complete(record.shard, record.outcomes);
                    self.pump(&record.name, out);
                    if finished {
                        self.finished(record.name, out);
                    }
                }
            }
            Input::Resumed {
                campaign,
                shards,
                complete,
            } => {
                let (campaign, _) = Campaign::new(campaign, 0, Phase::Running, shards);
                let (name, finished) = (campaign.name.clone(), campaign.finished());
                self.campaigns.insert(name.clone(), campaign);
                self.metrics.add_counter("serve.campaigns_resumed", 1);
                // A marker the log already holds is not written again.
                if finished && !complete {
                    self.finished(name, out);
                }
            }
            Input::Metrics(text) => {
                let _ = text.send(self.snapshot(now_ns, "").to_prometheus());
            }
            Input::Tick => self.tick(now_ns, out),
            Input::Stop => self.stopping = true,
        }
        self.dispatch(now_ns, out);
        // A log being opened is answered before exit: its header lands
        // either way, so its submitter is owed `Accepted`.
        let opening = |c: &Campaign| matches!(c.phase, Phase::Opening { .. });
        let idle = self.unsynced == 0 && self.running.iter().all(Option::is_none);
        if self.stopping && idle && !self.campaigns.values().any(opening) {
            out.push(Effect::Exit);
        }
    }

    fn request(&mut self, now_ns: u64, conn: u64, id: u64, req: Request, out: &mut Vec<Effect>) {
        match req {
            Request::Submit(prepared) => {
                if let Err(refusal) = self.admit(conn, &prepared, out) {
                    return self.refuse(conn, id, refusal, out);
                }
                let phase = Phase::Opening { id };
                let (campaign, submission) = Campaign::new(prepared, conn, phase, BTreeMap::new());
                let name = campaign.name.clone();
                self.campaigns.insert(name.clone(), campaign);
                out.push(Effect::OpenLog { name, submission });
            }
            Request::Attach(name) => match self.campaigns.get(&name) {
                Some(c) if !matches!(c.phase, Phase::Opening { .. }) => {
                    let accepted = self.subscribe(conn, id, &name);
                    self.send(conn, FrameType::Accepted, id, accepted, out);
                    self.pump(&name, out);
                }
                _ => {
                    let refusal = (ErrorCode::UnknownCampaign, format!("no campaign `{name}`"));
                    self.refuse(conn, id, refusal, out);
                }
            },
            Request::Stats => {
                let text = encode_text(&self.snapshot(now_ns, "").to_prometheus());
                self.send(conn, FrameType::StatsReply, id, text, out);
            }
            Request::Ping => self.send(conn, FrameType::Pong, id, Vec::new(), out),
            Request::Subscribe(mut sub) => {
                // The first delta (a full snapshot, since the baseline is
                // empty) goes out on the next tick and doubles as the
                // acknowledgement.
                let floor = self.cfg.telemetry_min_interval_ms.min(60_000) as u32;
                sub.interval_ms = sub.interval_ms.clamp(floor, 60_000);
                self.tele.push(TeleSub {
                    conn,
                    id,
                    sub,
                    next_due_ns: now_ns,
                    journal_cursor: 0,
                    last_sent: MetricsRegistry::new(),
                    seq: 0,
                    dropped: 0,
                });
            }
            Request::JournalQuery(query) => {
                // 0 means "no limit", still bounded to keep the reply
                // inside one frame.
                let limit = match query.limit {
                    0 => 4096,
                    n => (n as usize).min(4096),
                };
                let entries = self
                    .journal
                    .query(query.since_seq, query.min_severity, limit);
                let next_seq = self.journal.next_seq();
                let first_seq = self.journal.first_seq();
                let reply = JournalReply {
                    next_seq,
                    first_seq,
                    entries,
                };
                self.send(conn, FrameType::JournalReply, id, reply.encode(), out);
            }
            Request::Refused(code, message) => self.refuse(conn, id, (code, message), out),
        }
    }

    /// Queues a reply on `conn`, if it is still open and within
    /// [`REPLY_HEADROOM`].
    fn send(&mut self, conn: u64, kind: FrameType, id: u64, body: Vec<u8>, out: &mut Vec<Effect>) {
        let most = REPLY_HEADROOM * self.cfg.outbox_frames;
        if let Some(spent) = self.conns.get_mut(&conn).filter(|spent| **spent < most) {
            *spent += 1;
            out.push(Effect::send(conn, kind, id, body));
        }
    }

    fn note(&mut self, event: JournalEvent, out: &mut Vec<Effect>) {
        note(&mut self.journal, event, out);
    }

    fn refuse(&mut self, conn: u64, id: u64, (code, message): Refusal, out: &mut Vec<Effect>) {
        self.send(
            conn,
            FrameType::Error,
            id,
            encode_error(code, &message),
            out,
        );
    }

    /// Whether a submission from `conn` may become a campaign: the quotas,
    /// the name, and the daemon not stopping. A campaign still opening its
    /// log holds its name and counts toward both quotas. A quota refusal is
    /// counted and journalled.
    fn admit(
        &mut self,
        conn: u64,
        prepared: &Prepared,
        out: &mut Vec<Effect>,
    ) -> Result<(), Refusal> {
        let quota = self.cfg.quota;
        let name = &prepared.submission.campaign;
        let total = prepared.size;
        let live = || self.campaigns.values().filter(|c| !c.finished());
        let conn_active = live().filter(|c| c.conn == conn).count();
        let (reason, message) = if total > quota.max_instances_per_campaign {
            let max = quota.max_instances_per_campaign;
            (
                "max_instances_per_campaign",
                format!("campaign enumerates {total} instances, quota is {max}"),
            )
        } else if self.stopping {
            return Err((ErrorCode::ShuttingDown, "daemon is stopping".into()));
        } else if self.campaigns.contains_key(name) {
            return Err((
                ErrorCode::AlreadyExists,
                format!("campaign `{name}` already exists"),
            ));
        } else if live().count() >= quota.max_active_campaigns {
            let max = quota.max_active_campaigns;
            (
                "max_active_campaigns",
                format!("daemon already runs {max} active campaigns"),
            )
        } else if conn_active >= quota.max_campaigns_per_conn {
            let max = quota.max_campaigns_per_conn;
            let message =
                format!("connection already runs {conn_active} active campaigns (quota {max})");
            ("max_campaigns_per_conn", message)
        } else {
            return Ok(());
        };
        self.metrics.add_counter("serve.quota_rejections", 1);
        let (campaign, reason) = (name.clone(), reason.to_string());
        self.note(JournalEvent::QuotaBounced { campaign, reason }, out);
        Err((ErrorCode::QuotaExceeded, message))
    }

    /// A new campaign's header is durable: it is accepted, and its
    /// submitter subscribed, before any outcome can be emitted. If the
    /// log could not be written, the name and the quota slots are free
    /// again.
    fn log_opened(&mut self, name: String, result: Result<(), String>, out: &mut Vec<Effect>) {
        let campaign = self.campaigns.get_mut(&name).expect("an opening campaign");
        let (Phase::Opening { id }, conn) = (&campaign.phase, campaign.conn) else {
            unreachable!("a log opens once");
        };
        let id = *id;
        if let Err(e) = result {
            self.campaigns.remove(&name);
            let refusal = (ErrorCode::Internal, format!("checkpoint log: {e}"));
            return self.refuse(conn, id, refusal, out);
        }
        campaign.phase = Phase::Running;
        let total = campaign.instances.len() as u64;
        let accepted = self.subscribe(conn, id, &name);
        self.metrics.add_counter("serve.campaigns_submitted", 1);
        self.note(
            JournalEvent::CampaignSubmitted {
                campaign: name,
                total,
            },
            out,
        );
        self.send(conn, FrameType::Accepted, id, accepted, out);
    }

    /// Subscribes `conn`, if it is still open, to the campaign `name` from
    /// instance 0 — also the recovery path after a reconnect or a restart;
    /// returns the `Accepted` payload that answers request `id`.
    fn subscribe(&mut self, conn: u64, id: u64, name: &str) -> Vec<u8> {
        let campaign = self.campaigns.get_mut(name).expect("a known campaign");
        if self.conns.contains_key(&conn) {
            campaign.subscribers.push(Subscriber {
                conn,
                id,
                sent: 0,
                done_sent: false,
            });
        }
        let accepted = Accepted {
            campaign: name.to_string(),
            total: campaign.instances.len() as u64,
            shards: campaign.plan.count() as u64,
            already_done: campaign.prefix_instances as u64,
        };
        accepted.encode()
    }

    /// Streams what campaign `name` has for its subscribers' credit.
    fn pump(&mut self, name: &str, out: &mut Vec<Effect>) {
        let campaign = self.campaigns.get_mut(name).expect("a known campaign");
        let streamed = campaign.pump(&mut self.conns, self.cfg.outbox_frames, out);
        self.metrics.add_counter("serve.lines_streamed", streamed);
    }

    /// Writes the completion marker of a campaign that just finished (after
    /// its `Done` went out: a crash in between only makes the restart
    /// finish it again), and counts and journals it.
    fn finished(&mut self, name: String, out: &mut Vec<Effect>) {
        out.push(Effect::Complete { name: name.clone() });
        self.metrics.add_counter("serve.campaigns_completed", 1);
        self.note(JournalEvent::CampaignDone { campaign: name }, out);
    }

    /// Gives every idle worker a shard while there is one to give.
    fn dispatch(&mut self, now_ns: u64, out: &mut Vec<Effect>) {
        while !self.stopping {
            let Some(worker) = self.running.iter().position(Option::is_none) else {
                return;
            };
            let Some(name) = self.pick(out) else {
                return;
            };
            let campaign = self.campaigns.get_mut(&name).expect("a picked campaign");
            let shard = campaign.next_pending;
            campaign.next_pending += 1;
            campaign.skip_done();
            let job = Job {
                instances: Arc::clone(&campaign.instances),
                range: campaign.plan.range(shard),
                setup: campaign.setup.clone(),
                deadline: campaign.deadline,
            };
            out.push(Effect::Run { worker, job });
            let (campaign, started_ns, stall_reported) = (name.clone(), now_ns, false);
            self.running[worker] = Some(RunningShard {
                campaign,
                shard,
                started_ns,
                stall_reported,
            });
            self.cursor = name;
        }
    }

    /// The first campaign after the cursor, round the names in order, that
    /// has a shard to run and no subscriber too far behind. One it skips for
    /// its lag is paused; the one it picks is paused no longer.
    fn pick(&mut self, out: &mut Vec<Effect>) -> Option<String> {
        let Scheduler {
            cfg,
            campaigns,
            cursor,
            metrics,
            journal,
            ..
        } = self;
        let mut ready = |name: &String, c: &mut Campaign| {
            if !matches!(c.phase, Phase::Running) || c.next_pending == c.shards.len() {
                return None;
            }
            let campaign = name.clone();
            if c.lag() > cfg.max_unsent_instances {
                // Backpressure: a subscriber is too far behind; leave the
                // campaign's remaining shards for later.
                if !c.paused {
                    c.paused = true;
                    metrics.add_counter("serve.backpressure_pauses", 1);
                    note(journal, JournalEvent::CampaignPaused { campaign }, out);
                }
                return None;
            }
            if c.paused {
                c.paused = false;
                note(journal, JournalEvent::CampaignResumed { campaign }, out);
            }
            Some(name.clone())
        };
        let after = (Bound::Excluded(cursor.as_str()), Bound::Unbounded);
        let up_to = (Bound::Unbounded, Bound::Included(cursor.as_str()));
        let picked = campaigns
            .range_mut::<str, _>(after)
            .find_map(|(n, c)| ready(n, c));
        picked.or_else(|| {
            campaigns
                .range_mut::<str, _>(up_to)
                .find_map(|(n, c)| ready(n, c))
        })
    }

    /// One telemetry pass: stall detection, then a delta to every due
    /// subscriber. A subscriber without credit has its tick *dropped*
    /// (counted, baseline uncommitted) — telemetry can never stall a sweep
    /// the way a slow campaign subscriber deliberately does.
    fn tick(&mut self, now_ns: u64, out: &mut Vec<Effect>) {
        let threshold_ns = self.cfg.stall_warn_ms.saturating_mul(1_000_000);
        for (worker, run) in self.running.iter_mut().enumerate() {
            let Some(run) = run else { continue };
            let running_ns = now_ns.saturating_sub(run.started_ns);
            if running_ns >= threshold_ns && !run.stall_reported {
                run.stall_reported = true;
                self.metrics.add_counter("serve.worker_stalls", 1);
                let event = JournalEvent::WorkerStalled {
                    worker: worker as u64,
                    campaign: run.campaign.clone(),
                    running_ms: running_ns / 1_000_000,
                };
                note(&mut self.journal, event, out);
            }
        }

        // One snapshot per distinct campaign filter, shared by the due
        // subscribers using it.
        let mut snaps: BTreeMap<String, MetricsRegistry> = BTreeMap::new();
        for tele in self.tele.iter().filter(|s| s.next_due_ns <= now_ns) {
            let filter = &tele.sub.campaign;
            if !snaps.contains_key(filter) {
                snaps.insert(filter.clone(), self.snapshot(now_ns, filter));
            }
        }
        let (mut delivered, mut dropped) = (0, 0);
        for tele in self.tele.iter_mut().filter(|s| s.next_due_ns <= now_ns) {
            tele.next_due_ns = now_ns + u64::from(tele.sub.interval_ms) * 1_000_000;
            let snap = &snaps[tele.sub.campaign.as_str()];
            let Some(spent) = self.conns.get_mut(&tele.conn) else {
                continue;
            };
            if *spent >= self.cfg.outbox_frames {
                tele.dropped += 1;
                dropped += 1;
                continue;
            }
            let (since, floor) = (tele.journal_cursor, tele.sub.journal_min_severity);
            let journal = self.journal.query(since, floor, JOURNAL_BATCH);
            if let Some(last) = journal.last() {
                tele.journal_cursor = last.seq + 1;
            }
            let payload = TelemetryDelta {
                seq: tele.seq,
                dropped: tele.dropped,
                journal,
                delta: snap.encode_delta_from(&tele.last_sent),
                prometheus: match tele.sub.prometheus_text {
                    true => snap.to_prometheus(),
                    false => String::new(),
                },
            };
            let kind = FrameType::TelemetryDelta;
            out.push(Effect::send(tele.conn, kind, tele.id, payload.encode()));
            *spent += 1;
            tele.last_sent = snap.clone();
            tele.seq += 1;
            delivered += 1;
        }
        self.metrics.add_counter("serve.telemetry_ticks", delivered);
        self.metrics.add_counter("serve.telemetry_dropped", dropped);
    }

    /// A point-in-time registry: the counters plus freshly computed gauges
    /// (campaign facts, window rates, worker utilization, build info).
    /// `filter` restricts the per-campaign series to one campaign ("" for
    /// all); daemon-wide series always appear.
    fn snapshot(&self, now_ns: u64, filter: &str) -> MetricsRegistry {
        let mut snap = self.metrics.clone();
        let campaigns = self.campaigns.values();
        // Rates are gauges in milli-units (f64 rate × 1000, truncated):
        // the registry is integer-only and inst/sec under 1.0 matters.
        let rate = |w: &RollingWindow| w.rate_per_sec(now_ns, WINDOW_HORIZON_NS);
        let version = labeled_key("vw.build_info", &[("version", env!("CARGO_PKG_VERSION"))]);
        for (name, value) in [
            (
                "serve.active_campaigns",
                campaigns.clone().filter(|c| !c.finished()).count() as i64,
            ),
            (
                "serve.paused_campaigns",
                campaigns.clone().filter(|c| c.paused).count() as i64,
            ),
            (
                "serve.subscribers",
                campaigns
                    .clone()
                    .map(|c| c.subscribers.len())
                    .sum::<usize>() as i64,
            ),
            ("serve.known_campaigns", self.campaigns.len() as i64),
            ("vw.uptime_seconds", (now_ns / 1_000_000_000) as i64),
            (&version, 1),
            ("serve.workers", self.running.len() as i64),
            (
                "serve.workers_busy",
                self.running.iter().flatten().count() as i64,
            ),
            ("serve.telemetry_subscribers", self.tele.len() as i64),
            (
                "serve.inst_per_sec_milli",
                (rate(&self.inst) * 1000.0) as i64,
            ),
            (
                "serve.frames_per_sec_milli",
                (rate(&self.frames) * 1000.0) as i64,
            ),
            ("serve.bytes_in_per_sec", rate(&self.bytes_in) as i64),
            ("serve.bytes_out_per_sec", rate(&self.bytes_out) as i64),
        ] {
            snap.set_gauge(name, value);
        }
        for c in campaigns.filter(|c| filter.is_empty() || c.name == filter) {
            let state = if c.finished() { 2 } else { i64::from(c.paused) };
            let mut gauges = vec![
                ("serve.campaign.total", c.instances.len() as i64),
                ("serve.campaign.completed", c.completed as i64),
                ("serve.campaign.state", state),
                ("serve.campaign.subscribers", c.subscribers.len() as i64),
            ];
            if let Some(windows) = &c.windows {
                let milli = (rate(&windows.inst) * 1000.0) as i64;
                gauges.push(("serve.campaign.inst_per_sec_milli", milli));
                let percentile = |p| windows.wall.percentile(now_ns, WINDOW_HORIZON_NS, p);
                if let Some(p50) = percentile(50.0) {
                    gauges.push(("serve.campaign.wall_p50_ns", p50 as i64));
                }
                if let Some(p99) = percentile(99.0) {
                    gauges.push(("serve.campaign.wall_p99_ns", p99 as i64));
                }
            }
            for (name, value) in gauges {
                snap.set_gauge(&labeled_key(name, &[("campaign", c.name.as_str())]), value);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    //! The scheduler alone: scripted inputs in, the effects it decides out,
    //! with no thread, socket or disk.

    use std::sync::mpsc;

    use vw_campaign::{Axis, RunConfig, Sampling};

    use super::*;
    use crate::frame::DecodeBuffer;
    use crate::payload::{decode_error, decode_outcome_line};

    const PROGRAM: &str = "
        FILTER_TABLE
        udp_data: (23 1 0x11)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO S 10msec
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        END
    ";

    /// `workers` workers, and room for 64 frames per connection.
    fn config(workers: usize) -> DaemonConfig {
        DaemonConfig {
            workers,
            ..DaemonConfig::default()
        }
    }

    struct Sim {
        scheduler: Scheduler,
        now_ns: u64,
    }

    impl Sim {
        fn new(cfg: DaemonConfig) -> Sim {
            Sim {
                scheduler: Scheduler::new(cfg),
                now_ns: 0,
            }
        }

        fn step(&mut self, input: Input) -> Vec<Effect> {
            let mut out = Vec::new();
            self.scheduler.handle(self.now_ns, input, &mut out);
            self.now_ns += 1_000_000;
            out
        }

        /// `step`, the effects rendered by [`show`].
        fn run(&mut self, input: Input) -> Vec<String> {
            self.step(input).iter().map(show).collect()
        }

        fn connect(&mut self, conn: u64) {
            let writer = mpsc::channel().0;
            assert_eq!(
                self.run(Input::ConnOpened { conn, writer }),
                ["journal conn_accepted"]
            );
        }

        /// A worker's report on the shard it ran: its record, as the log
        /// writer posts it back, and the effects after the append.
        fn ran(&mut self, worker: usize, instances: usize) -> (Record, Vec<String>) {
            let input = Input::ShardRan {
                worker,
                outcomes: probes(instances),
                metrics: MetricsRegistry::new(),
                samples: Vec::new(),
            };
            let mut effects = self.step(input).into_iter();
            let Some(Effect::Append(record)) = effects.next() else {
                panic!("a finished shard goes to the log writer first");
            };
            let record = Record {
                synced: true,
                ..record
            };
            (record, effects.map(|e| show(&e)).collect())
        }

        fn durable(&mut self, records: Vec<Record>) -> Vec<String> {
            self.run(Input::Durable { records })
        }
    }

    /// `instances` distinct outcomes, as a worker reports them.
    fn probes(instances: usize) -> Outcomes {
        (0..instances)
            .map(|i| (InstanceOutcome::Crashed(format!("probe {i}")), 1))
            .collect()
    }

    /// A submission named `name` sweeping `axes`, in shards of 2 after the
    /// one-instance first.
    fn submission(name: &str, axes: Vec<Axis>) -> Submission {
        Submission {
            campaign: name.to_string(),
            program: PROGRAM.to_string(),
            setup: "udp_flood".to_string(),
            axes,
            defaults: RunConfig::default(),
            sampling: Sampling::Exhaustive,
            key: DigestKey::default(),
            deadline_ns: 1_000_000_000,
            shard_size: 2,
        }
    }

    /// `submission`, checked and enumerated.
    fn prepare(submission: Submission) -> Box<Prepared> {
        let prepared = Prepared::new(submission, &SetupRegistry::builtin(), 2, usize::MAX);
        Box::new(prepared.expect("the submission prepares"))
    }

    /// A submission of `instances` seeds named `name`, in shards of 2
    /// after the one-instance first.
    fn seeds(name: &str, instances: u64) -> Submission {
        submission(name, vec![Axis::seeds((1..=instances).collect())])
    }

    /// `submission` submitted on `conn` as request `id`.
    fn submit_on(conn: u64, id: u64, submission: Submission) -> Input {
        let request = Request::Submit(prepare(submission));
        Input::Request { conn, id, request }
    }

    /// [`seeds`] submitted on `conn` as request `id`.
    fn submit(conn: u64, id: u64, name: &str, instances: u64) -> Input {
        submit_on(conn, id, seeds(name, instances))
    }

    fn opened(name: &str, result: Result<(), String>) -> Input {
        let name = name.to_string();
        Input::LogOpened { name, result }
    }

    /// One line per effect: what it does and to what.
    fn show(effect: &Effect) -> String {
        match effect {
            Effect::Run { worker, job } => format!("run {worker} {:?}", job.range),
            Effect::OpenLog { name, .. } => format!("open {name}"),
            Effect::Append(record) => format!("append {} {}", record.name, record.shard),
            Effect::Complete { name } => format!("complete {name}"),
            Effect::Send { conn, bytes } => {
                let mut decoder = DecodeBuffer::new();
                decoder.feed(bytes);
                let frame = decoder.next_frame().expect("frames").expect("one frame");
                let detail = match frame.frame_type {
                    FrameType::Outcome | FrameType::Done => {
                        let (n, _) = decode_outcome_line(&frame.payload).expect("a line");
                        format!(" {n}")
                    }
                    FrameType::Error => {
                        let (code, _) = decode_error(&frame.payload).expect("an error");
                        format!(" {code:?}")
                    }
                    _ => String::new(),
                };
                format!("send {conn} {:?}{detail}", frame.frame_type)
            }
            Effect::Close { conn } => format!("close {conn}"),
            Effect::JournalLine(line) => {
                let kind = line.split("\"kind\":\"").nth(1).expect("a kind");
                format!(
                    "journal {}",
                    &kind[..kind.find('"').expect("a quoted kind")]
                )
            }
            Effect::Exit => "exit".to_string(),
        }
    }

    #[test]
    fn two_submits_of_one_name_before_its_log_opens_get_one_already_exists() {
        let mut sim = Sim::new(config(2));
        sim.connect(1);
        sim.connect(2);
        assert_eq!(sim.run(submit(1, 7, "twin", 4)), ["open twin"]);
        assert_eq!(
            sim.run(submit(2, 9, "twin", 4)),
            ["send 2 Error AlreadyExists"]
        );
        assert_eq!(
            sim.run(opened("twin", Ok(()))),
            [
                "journal campaign_submitted",
                "send 1 Accepted",
                "run 0 0..1",
                "run 1 1..3"
            ]
        );
    }

    #[test]
    fn two_submissions_racing_the_last_active_slot_get_one_quota_exceeded() {
        let mut cfg = config(1);
        cfg.quota.max_active_campaigns = 1;
        let mut sim = Sim::new(cfg);
        sim.connect(1);
        sim.connect(2);
        assert_eq!(sim.run(submit(1, 7, "first", 2)), ["open first"]);
        assert_eq!(
            sim.run(submit(2, 9, "second", 2)),
            ["journal quota_bounced", "send 2 Error QuotaExceeded"]
        );
    }

    #[test]
    fn an_over_quota_submission_is_refused_without_being_enumerated() {
        let seeds = || Axis::seeds((0..2_000).collect());
        let submission = submission("huge", vec![seeds(), seeds()]);
        let prepared = Prepared::new(submission, &SetupRegistry::builtin(), 2, 8)
            .expect("a well-formed submission prepares");
        assert_eq!(prepared.size, 4_000_000);
        assert!(prepared.instances.is_empty(), "nothing enumerated");
        let mut cfg = config(1);
        cfg.quota.max_instances_per_campaign = 8;
        let mut sim = Sim::new(cfg);
        sim.connect(1);
        let request = Request::Submit(Box::new(prepared));
        assert_eq!(
            sim.run(Input::Request {
                conn: 1,
                id: 7,
                request
            }),
            ["journal quota_bounced", "send 1 Error QuotaExceeded"]
        );
    }

    #[test]
    fn a_log_that_fails_to_open_answers_internal_and_frees_the_slot() {
        let mut cfg = config(1);
        cfg.quota.max_active_campaigns = 1;
        let mut sim = Sim::new(cfg);
        sim.connect(1);
        assert_eq!(sim.run(submit(1, 7, "full", 2)), ["open full"]);
        let failed = opened("full", Err("no space left on device".into()));
        assert_eq!(sim.run(failed), ["send 1 Error Internal"]);
        assert_eq!(sim.run(submit(1, 8, "full", 2)), ["open full"]);
    }

    #[test]
    fn lines_wait_for_every_earlier_shard_to_be_durable_then_stream_in_order() {
        let mut sim = Sim::new(config(2));
        sim.connect(1);
        sim.run(submit(1, 7, "order", 4));
        sim.run(opened("order", Ok(())));
        let (second, next) = sim.ran(1, 2);
        assert_eq!(next, ["run 1 3..4"]);
        let (first, _) = sim.ran(0, 1);
        assert_eq!(sim.durable(vec![second]), ["journal campaign_checkpointed"]);
        assert_eq!(
            sim.durable(vec![first]),
            [
                "journal campaign_checkpointed",
                "send 1 Outcome 0",
                "send 1 Outcome 1",
                "send 1 Outcome 2"
            ]
        );
        let (last, _) = sim.ran(1, 1);
        assert_eq!(
            sim.durable(vec![last]),
            [
                "journal campaign_checkpointed",
                "send 1 Outcome 3",
                "send 1 Done 4",
                "complete order",
                "journal campaign_done"
            ]
        );
    }

    #[test]
    fn spent_credits_pause_the_campaign_and_one_drain_resumes_it_once() {
        let mut cfg = config(1);
        cfg.outbox_frames = 2;
        cfg.max_unsent_instances = 2;
        let mut sim = Sim::new(cfg);
        sim.connect(1);
        sim.run(submit(1, 7, "slow", 12));
        let accepted = sim.run(opened("slow", Ok(())));
        assert_eq!(accepted[1..], ["send 1 Accepted", "run 0 0..1"]);
        let (shard, next) = sim.ran(0, 1);
        assert_eq!(next, ["run 0 1..3"]);
        // `Accepted` and the first line hold both credits.
        assert_eq!(
            sim.durable(vec![shard]),
            ["journal campaign_checkpointed", "send 1 Outcome 0"]
        );
        let (shard, next) = sim.ran(0, 2);
        assert_eq!(next, ["run 0 3..5"]);
        // The next two lines wait: nothing has drained.
        assert_eq!(sim.durable(vec![shard]), ["journal campaign_checkpointed"]);
        // Four lines unsent, over the limit of two: the two of the shard
        // not yet durable count, so a worker cannot outrun the disk past a
        // stalled subscriber.
        let (shard, next) = sim.ran(0, 2);
        assert_eq!(next, ["journal campaign_paused"]);
        let drained = || Input::Drained {
            conn: 1,
            frames: 2,
            bytes: 0,
        };
        assert_eq!(
            sim.run(drained()),
            [
                "send 1 Outcome 1",
                "send 1 Outcome 2",
                "journal campaign_resumed",
                "run 0 5..7"
            ]
        );
        assert_eq!(sim.durable(vec![shard]), ["journal campaign_checkpointed"]);
        assert_eq!(sim.run(drained()), ["send 1 Outcome 3", "send 1 Outcome 4"]);
        let pauses = sim.scheduler.metrics.counter("serve.backpressure_pauses");
        assert_eq!(pauses, Some(1));
    }

    #[test]
    fn replies_to_a_client_that_never_reads_stop_at_the_headroom() {
        let mut cfg = config(1);
        cfg.outbox_frames = 4;
        let mut sim = Sim::new(cfg);
        sim.connect(1);
        let ping = |id| {
            let request = Request::Ping;
            Input::Request {
                conn: 1,
                id,
                request,
            }
        };
        let sends: usize = (0..100).map(|id| sim.run(ping(id)).len()).sum();
        assert_eq!(sends, REPLY_HEADROOM * 4);
        let drained = Input::Drained {
            conn: 1,
            frames: 1,
            bytes: 0,
        };
        assert!(sim.run(drained).is_empty());
        assert_eq!(sim.run(ping(100)), ["send 1 Pong"]);
    }

    #[test]
    fn a_stop_while_a_log_opens_waits_to_answer_accepted() {
        let mut sim = Sim::new(config(1));
        sim.connect(1);
        assert_eq!(sim.run(submit(1, 7, "late", 2)), ["open late"]);
        assert!(sim.run(Input::Stop).is_empty());
        assert_eq!(
            sim.run(opened("late", Ok(()))),
            ["journal campaign_submitted", "send 1 Accepted", "exit"]
        );
    }

    #[test]
    fn a_connection_closed_mid_stream_loses_its_subscriber_not_the_campaign() {
        let mut sim = Sim::new(config(1));
        sim.connect(1);
        sim.run(submit(1, 7, "orphan", 4));
        sim.run(opened("orphan", Ok(())));
        let (shard, next) = sim.ran(0, 1);
        assert_eq!(next, ["run 0 1..3"]);
        assert_eq!(
            sim.durable(vec![shard]),
            ["journal campaign_checkpointed", "send 1 Outcome 0"]
        );
        assert_eq!(
            sim.run(Input::ConnClosed { conn: 1 }),
            ["journal conn_closed", "close 1"]
        );
        let (shard, next) = sim.ran(0, 2);
        assert_eq!(next, ["run 0 3..4"]);
        assert_eq!(sim.durable(vec![shard]), ["journal campaign_checkpointed"]);
        let (shard, _) = sim.ran(0, 1);
        assert_eq!(
            sim.durable(vec![shard]),
            [
                "journal campaign_checkpointed",
                "complete orphan",
                "journal campaign_done"
            ]
        );
        assert_eq!(sim.run(Input::Stop), ["exit"]);
    }

    #[test]
    fn the_first_line_waits_for_one_instance_not_a_whole_shard() {
        let mut sim = Sim::new(config(1));
        sim.connect(1);
        let mut sub = seeds("first", 48);
        sub.shard_size = 16;
        assert_eq!(sim.run(submit_on(1, 7, sub)), ["open first"]);
        assert_eq!(
            sim.run(opened("first", Ok(()))),
            [
                "journal campaign_submitted",
                "send 1 Accepted",
                "run 0 0..1"
            ]
        );
        let (shard, next) = sim.ran(0, 1);
        assert_eq!(next, ["run 0 1..17"]);
        assert_eq!(
            sim.durable(vec![shard]),
            ["journal campaign_checkpointed", "send 1 Outcome 0"]
        );
    }

    #[test]
    fn a_resumed_campaign_dispatches_only_the_shards_its_log_lacks() {
        let mut sim = Sim::new(config(1));
        // Seven instances: shards 0..1, 1..3, 3..5 and 5..7.
        let campaign = prepare(seeds("resumed", 7));
        let shards = BTreeMap::from([(0, probes(1)), (2, probes(2))]);
        let resumed = Input::Resumed {
            campaign,
            shards,
            complete: false,
        };
        assert_eq!(sim.run(resumed), ["run 0 1..3"]);
        let (first, next) = sim.ran(0, 2);
        assert_eq!(next, ["run 0 5..7"]);
        let (last, next) = sim.ran(0, 2);
        assert!(next.is_empty(), "nothing is left to run: {next:?}");
        assert_eq!(
            sim.durable(vec![first, last]),
            [
                "journal campaign_checkpointed",
                "journal campaign_checkpointed",
                "complete resumed",
                "journal campaign_done"
            ]
        );
    }
}

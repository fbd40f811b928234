//! The Fault Injection and Analysis Engine (FIE/FAE).
//!
//! One engine is installed as a [`Hook`] on every participating host,
//! between the protocol stack and the NIC — the position the paper
//! achieves with a Netfilter hook. Per-packet control flow follows
//! Figure 4(b):
//!
//! ```text
//! packet received ──► classify (filter + node tables)
//!     │ matched
//!     ▼
//! update counters ──► evaluate affected terms ──► evaluate conditions
//!     │                     │ (status change:        │ (became true:
//!     │                     │  notify remote         │  fire edge-
//!     │                     │  evaluators)           │  triggered actions)
//!     ▼
//! apply gated faults to THIS packet (drop consumes it; a counter-
//! manipulation action releases it)
//! ```
//!
//! The same engine is both FIE and FAE: fault injection and analysis are
//! the same mechanism — counting events and reacting to conditions — as
//! the paper notes in Section 5.
//!
//! ## Semantics
//!
//! * **Counter-manipulation actions, `FAIL`, `STOP`, `FLAG_ERR`** are
//!   *edge-triggered*: they run once each time their condition transitions
//!   from false to true.
//! * **Packet faults** (`DROP`/`DELAY`/`REORDER`/`DUP`/`MODIFY`) are
//!   *level-gated*: while their condition holds, every packet matching the
//!   fault's `(pkt_type, from, to, dir)` tuple is affected. This is what
//!   makes the Figure 5 script work: `(SYNACK > 0) && (SYNACK < 2)` is
//!   true exactly while the first SYNACK is being processed, so exactly
//!   one SYNACK is dropped.

use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use vw_fsl::{
    ActionId, CompiledActionKind, CompiledCounterKind, CompiledOperand, CondId, CounterId,
    CounterOp, Dir, Fault, ModifyPattern, NodeId, TableSet, TermId,
};
use vw_netsim::{Context, Hook, SimDuration, SimTime, Verdict};
use vw_obs::{Histogram, ObsEvent, ObsKind, ObsLevel};
use vw_packet::{EtherType, Frame, MacAddr, MacMap};
use vw_rll::window::{ReceiverWindow, RecvAction, SendAction, SenderWindow};

use crate::classify::{Classification, ClassifierMode, ClassifierScratch};
use crate::plan::{dispatch_slot, InstallPlan};
use crate::report::FlaggedError;
use crate::wire::{self, ControlMsg};

/// Simulated CPU cost of engine operations, the knob behind the Figure 8
/// overhead curves. Zero by default so functional tests are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostModel {
    /// Charged per filter-table rule visited during classification (the
    /// linear scan of Section 7).
    pub per_filter_ns: u64,
    /// Charged per action executed and per counter update (the "VirtualWire
    /// has to update all the tables that are affected" cost).
    pub per_action_ns: u64,
}

impl CostModel {
    /// A cost model calibrated against the paper's testbed: the Figure 8
    /// experiment shows ~0.25% RTT increase per filter rule on a ~200 µs
    /// LAN round trip, i.e. roughly half a microsecond per rule visit per
    /// direction.
    pub fn calibrated() -> Self {
        CostModel {
            per_filter_ns: 170,
            per_action_ns: 100,
        }
    }
}

/// Reliability knobs for the control plane: retransmission backoff and
/// the staleness threshold past which a peer's updates are frozen and
/// flagged instead of waited for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaneConfig {
    /// First retransmission timeout for an unacknowledged sequenced
    /// control message.
    pub initial_rto: SimDuration,
    /// Backoff cap: the RTO doubles per retransmission up to this.
    pub max_rto: SimDuration,
    /// Staleness threshold: when the oldest unacknowledged message (or
    /// an unfilled receive-side sequence gap) is older than this, the
    /// engine degrades — remote terms freeze at last-known status and a
    /// diagnostic is flagged — instead of silently evaluating garbage.
    pub staleness: SimDuration,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            initial_rto: SimDuration::from_micros(200),
            max_rto: SimDuration::from_millis(5),
            staleness: SimDuration::from_millis(25),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// CPU cost model.
    pub cost: CostModel,
    /// Upper bound on evaluation-cascade steps per packet; exceeding it
    /// flags an engine error instead of looping forever (a script like
    /// `(C = 1) >> INCR_CNTR(C, ...)` cycles could otherwise hang a run).
    pub cascade_budget: u32,
    /// Which classifier tier to run. Defaults to
    /// [`ClassifierMode::Indexed`]; experiments reproducing the paper's
    /// linear-scan cost curves (Figure 8) pin
    /// [`ClassifierMode::Linear`].
    pub classifier: ClassifierMode,
    /// Flight-recorder level. [`ObsLevel::Off`] (the default) reduces
    /// every recording site to one enum compare; `Faults` records fired
    /// conditions and triggered actions; `Full` records the whole causal
    /// stream (classification, counter updates, term flips).
    pub obs: ObsLevel,
    /// Control-plane reliability knobs.
    pub control: ControlPlaneConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cost: CostModel::default(),
            cascade_budget: 10_000,
            classifier: ClassifierMode::default(),
            obs: ObsLevel::Off,
            control: ControlPlaneConfig::default(),
        }
    }
}

/// What one [`EngineStats`] field is: how per-node values fold into
/// [`Report::total_stats`](crate::Report::total_stats) and how the
/// report's metrics registry exports it as `<node>.<name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatKind {
    /// Summed across nodes; exported as a counter.
    Counter,
    /// Maximum across nodes; exported as a gauge.
    HighWater,
    /// Summed; exported as a counter only when non-zero, so clean runs
    /// keep their established metric shape.
    Diagnostic,
    /// Summed; not exported (the pinned metric key set predates it).
    Internal,
}

/// Declares [`EngineStats`] from its one ordered field table, and from
/// the same table [`EngineStats::fields`] and its inverse. The order is
/// the serve checkpoint/frame layout (one `u64` per field): append, never
/// reorder.
macro_rules! engine_stats {
    ($($(#[$doc:meta])* $name:ident: $ty:ty => $kind:ident,)*) => {
        /// Counters exposed for tests and the evaluation harness.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl EngineStats {
            /// Number of fields.
            pub const FIELDS: usize = [$(stringify!($name)),*].len();

            /// Every field in declaration order: name, value, kind.
            pub fn fields(&self) -> [(&'static str, u64, StatKind); Self::FIELDS] {
                [$((stringify!($name), u64::from(self.$name), StatKind::$kind),)*]
            }

            /// Inverse of [`fields`](Self::fields): rebuilds the stats
            /// from values in declaration order. `None` when `values`
            /// runs short or one does not fit its field.
            pub fn from_values(mut values: impl Iterator<Item = u64>) -> Option<Self> {
                Some(EngineStats {
                    $($name: <$ty>::try_from(values.next()?).ok()?,)*
                })
            }
        }
    };
}

engine_stats! {
    /// Frames that went through classification.
    classified: u64 => Counter,
    /// Frames that matched a packet definition.
    matched: u64 => Counter,
    /// Packet-counter increments.
    counter_increments: u64 => Counter,
    /// Control messages sent.
    control_sent: u64 => Counter,
    /// Control messages received.
    control_received: u64 => Counter,
    /// Total bytes of control frames sent (including Ethernet headers).
    control_sent_bytes: u64 => Counter,
    /// Total bytes of control frames received (including Ethernet
    /// headers).
    control_received_bytes: u64 => Counter,
    /// Packets consumed by `DROP`.
    drops: u64 => Counter,
    /// Packets duplicated by `DUP`.
    dups: u64 => Counter,
    /// Packets held by `DELAY`.
    delays: u64 => Counter,
    /// Packets buffered by `REORDER`.
    reorders: u64 => Counter,
    /// Packets mutated by `MODIFY`.
    modifies: u64 => Counter,
    /// Frames blackholed because this node was `FAIL`ed.
    blackholed: u64 => Internal,
    /// Filter-table rules visited across all classifications (candidates
    /// verified, under the indexed classifier).
    rules_scanned: u64 => Counter,
    /// Classifications whose match came through the dispatch index.
    index_hits: u64 => Internal,
    /// Residual-scan rule visits (unindexable filters; under the linear
    /// classifier, every rule visit counts here).
    residual_scans: u64 => Internal,
    /// Deepest evaluation cascade observed (worklist steps triggered by a
    /// single counter mutation).
    max_cascade_depth: u32 => HighWater,
    /// Control messages retransmitted (unacknowledged past their RTO).
    control_retransmits: u64 => Counter,
    /// Sequenced control messages suppressed as duplicates, or refused
    /// for arriving beyond the reorder window.
    control_dup_suppressed: u64 => Counter,
    /// Sequenced control messages parked in the reorder buffer because
    /// they arrived ahead of a gap.
    control_reorder_buffered: u64 => Counter,
    /// Peers degraded for staleness (remote terms frozen at last-known
    /// status and a diagnostic flagged).
    control_stale_degradations: u64 => Counter,
    /// Frames currently held by an in-flight DELAY or a partially filled
    /// REORDER buffer. Non-zero in a final report means frames were lost
    /// beyond what the scenario injected (a conservation violation).
    faults_in_limbo: u64 => Diagnostic,
    /// REORDER releases whose order was not a permutation of the batch
    /// (out-of-range, duplicated, or missing indices). The frames are
    /// still conserved — unmentioned ones are released in arrival order.
    reorder_malformed: u64 => Diagnostic,
    /// Frames still held at run end that engine teardown flushed back
    /// into the chain instead of losing.
    teardown_flushed: u64 => Diagnostic,
    /// MODIFY SET writes skipped because the window fell outside the
    /// frame.
    modify_oob: u64 => Diagnostic,
}

/// Timer token: the control-plane pump (retransmissions + staleness).
const TIMER_RETX: u64 = 1;
/// Timer token: control-node `Init` retransmission.
const TIMER_INIT_RETX: u64 = 2;
/// First retransmission timeout for an unacknowledged `Init`. Much larger
/// than [`ControlPlaneConfig::initial_rto`]: `Init` carries the whole
/// table set (kilobytes), so on slow links its serialization alone dwarfs
/// a data-frame RTT, and a spurious retransmission is expensive.
const INIT_RTO: SimDuration = SimDuration::from_millis(8);
/// Sender-side cap on outstanding unacknowledged messages per peer;
/// exceeding it is treated as staleness.
const MAX_UNACKED: usize = 1024;
/// Receiver-side reorder window: sequenced messages more than this far
/// ahead of the next expected sequence number are refused.
const REORDER_WINDOW: u32 = 1024;
/// Wire seq 0 marks an unsequenced control frame, so a window's sequence
/// number `n` travels as wire seq `n + 1`. The wire's cumulative ack `k`
/// ("wire seqs up to `k` arrived") is the receiver's `expected()` as is.
const WIRE_SEQ_OFFSET: u32 = 1;
/// DELAY-action tokens live above this base, clear of the control-plane
/// tokens.
const TIMER_DELAY_BASE: u64 = 1 << 32;

/// Sender-side reliability state toward one peer: the ARQ window of
/// sequenced messages, each beside the time it was first sent (staleness
/// keys off that), under the pump's timer policy. Retransmission is
/// head-of-line: only the oldest unacknowledged message is resent (the
/// cumulative ack it provokes covers everything the peer already
/// buffered), with one RTO per peer doubling up to the cap.
#[derive(Debug)]
struct PeerTx {
    /// Never holds a message back: past [`MAX_UNACKED`] the peer is stale.
    window: SenderWindow<(SimTime, ControlMsg)>,
    rto: SimDuration,
    /// Next retransmission check; `None` while nothing is outstanding.
    next_at: Option<SimTime>,
    /// Staleness diagnostic latched (flagged at most once per peer).
    stale_flagged: bool,
}

impl PeerTx {
    fn new(initial_rto: SimDuration) -> Self {
        PeerTx {
            window: SenderWindow::new(u32::MAX),
            rto: initial_rto,
            next_at: None,
            stale_flagged: false,
        }
    }
}

/// Receiver-side reliability state from one peer.
#[derive(Debug)]
struct PeerRx {
    window: ReceiverWindow<ControlMsg>,
    /// When the current reorder-buffer gap opened; staleness keys off
    /// this.
    gap_since: Option<SimTime>,
    /// Degraded: this peer's remote terms are frozen at last-known
    /// status; further sequenced messages are ignored (and not acked).
    frozen: bool,
    /// A sequenced message was processed and its cumulative ack has not
    /// yet ridden an outgoing frame.
    ack_owed: bool,
}

impl PeerRx {
    fn new() -> Self {
        PeerRx {
            window: ReceiverWindow::with_window(REORDER_WINDOW),
            gap_since: None,
            frozen: false,
            ack_owed: false,
        }
    }
}

/// Everything the engine takes from its host. The simulator's context
/// forwards each call; a test can drive an [`Engine`] through a recorder.
/// Generic, never `dyn`: the packet path is monomorphised per host type.
pub trait EngineIo {
    /// The current simulated time.
    fn now(&self) -> SimTime;
    /// This host's MAC address.
    fn mac(&self) -> MacAddr;
    /// Charges CPU time: it delays the frame and every later effect.
    fn charge(&mut self, cost: SimDuration);
    /// Time charged so far in this call.
    fn charged(&self) -> SimDuration;
    /// Sends a frame on toward the wire, past the engine.
    fn send(&mut self, frame: Frame);
    /// Delivers a frame on toward the protocol stack, past the engine.
    fn deliver_up(&mut self, frame: Frame);
    /// Arms a timer that calls [`Engine::timer`] with `token` after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64);
    /// Asks the whole run to stop (the `STOP` action).
    fn request_stop(&mut self, reason: String);
    /// The run's deterministic random source.
    fn rng(&mut self) -> &mut StdRng;

    /// Passes on a frame the engine held or made, unclassified, its way.
    fn release(&mut self, frame: Frame, dir: Dir) {
        match dir {
            Dir::Send => self.send(frame),
            Dir::Recv => self.deliver_up(frame),
        }
    }

    /// The clock as a counter value, saturating past `i64::MAX` ns.
    fn now_ns(&self) -> i64 {
        i64::try_from(self.now().as_nanos()).unwrap_or(i64::MAX)
    }
}

/// The per-node Fault Injection and Analysis Engine.
pub struct Engine {
    /// Where the engine is in its lifecycle, and — once installed —
    /// everything it fixed at install.
    phase: Phase,
    /// Everything the engine changes while it runs.
    run: Run,
}

/// An engine's lifecycle: it is installed once, and stays installed.
enum Phase {
    /// A peer waiting for its `Init`. Frames pass through uncounted.
    Waiting,
    /// The control node before `on_start`: the tables it distributes and
    /// the identity it installs itself under. Frames pass through
    /// uncounted, as on a peer still waiting for its `Init`.
    Holding { tables: TableSet, me: NodeId },
    /// Tables installed as node `me`.
    Installed(Installed),
}

/// What an engine fixed at install, read in place by every path that
/// runs after it: the packet path, the cascade, control dispatch and
/// `Init` retransmission.
struct Installed {
    tables: TableSet,
    /// What the engine built from its tables — the classifier and the
    /// counter dispatch — shared with every engine this thread installs
    /// on the same tables as the same node.
    plan: Rc<InstallPlan>,
    /// This engine's own node id.
    me: NodeId,
    role: Role,
}

/// How an installed engine stands to the control plane's table
/// distribution.
enum Role {
    /// A peer reports `FLAG_ERR`s to the node its `Init` came from.
    Peer { control: MacAddr },
    /// The control node: which peers have acked their `Init`, and the
    /// `Init` retransmission timeout.
    Control {
        acked: Vec<NodeId>,
        init_rto: SimDuration,
    },
}

impl Installed {
    /// Resolves a peer MAC to its script node id without allocating, if
    /// the MAC belongs to a scripted node.
    fn peer_node_id(&self, mac: MacAddr) -> Option<NodeId> {
        let i = self.tables.nodes.iter().position(|n| n.mac == mac)?;
        Some(NodeId(i as u16))
    }

    /// Resolves a peer MAC to its script node id and name; an unscripted
    /// MAC is named by its address.
    fn peer_identity(&self, mac: MacAddr) -> (Option<NodeId>, String) {
        let id = self.peer_node_id(mac);
        let name = id.map_or_else(
            || mac.to_string(),
            |id| self.tables.node_name(id).into_owned(),
        );
        (id, name)
    }
}

/// The engine's mutable state. Its methods that need the installed
/// tables take them as `&Installed`, beside `&mut self`.
#[derive(Default)]
struct Run {
    cfg: EngineConfig,
    vars: HashMap<String, u64>,

    /// Counter values, indexed by [`CounterId`]; empty until install.
    counter_values: Vec<i64>,
    /// Which counters are enabled (`..term_base`), then each term's status
    /// (`term_base..cond_base`) and each condition's: one block, sized at
    /// install.
    flags: Vec<bool>,
    term_base: usize,
    cond_base: usize,
    /// Per-filter match counts, indexed by `FilterId` (sized at install).
    filter_hits: Vec<u64>,

    /// `FAIL`ed: consume everything in both directions.
    blackholed: bool,

    /// Sender-side reliability state, per peer MAC.
    peer_tx: MacMap<PeerTx>,
    /// Receiver-side reliability state, per peer MAC.
    peer_rx: MacMap<PeerRx>,
    /// Earliest pending control-plane deadline (retransmission or
    /// staleness); the per-frame pump is one compare against this.
    pump_next: Option<SimTime>,
    /// When the pump timer is armed for, to avoid re-arming per send.
    pump_armed_for: Option<SimTime>,
    /// Reusable buffer for in-order-released control messages.
    scratch_ctrl: Vec<ControlMsg>,

    /// DELAY buffer: timer token → held packet.
    held: HashMap<u64, (Frame, Dir)>,
    next_delay_token: u64,
    /// REORDER buffers, indexed by [`ActionId`]; sized to the action table
    /// by the first REORDER that fires.
    reorder_bufs: Vec<Vec<(Frame, Dir)>>,
    /// MODIFY SET actions whose write already fell off the end of a frame
    /// once — the diagnostic is flagged at most once per action. Indexed
    /// by [`ActionId`]; sized by the first such write.
    oob_flagged: Vec<bool>,

    /// Errors flagged locally, plus (on the control node) remotely.
    errors: Vec<FlaggedError>,
    /// Time of the most recent packet-definition match — inactivity
    /// timeouts key off this.
    last_match: SimTime,

    /// Reusable classification buffers (no per-packet allocation).
    scratch: ClassifierScratch,
    /// Reusable evaluation-cascade worklist.
    cascade_worklist: Vec<CounterId>,
    /// Reusable buffer for the counters a packet bumps.
    scratch_bump: Vec<CounterId>,
    /// Reusable buffer for conditions that fired on a control update.
    scratch_fired: Vec<CondId>,
    /// Reusable slots a full REORDER batch is permuted out of.
    scratch_reorder: Vec<Option<(Frame, Dir)>>,

    /// Flight recorder: typed causal event stream, gated on `cfg.obs`
    /// *before* any record is built.
    events: Vec<ObsEvent>,
    /// Distribution of evaluation-cascade depths (recorded at `Faults`+).
    cascade_hist: Histogram,
    /// Distribution of classify-to-action latency in charged sim
    /// nanoseconds (recorded at `Faults`+).
    latency_hist: Histogram,

    stats: EngineStats,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (scenario, me) = match &self.phase {
            Phase::Waiting => (None, None),
            Phase::Holding { tables, .. } => (Some(&tables.scenario), None),
            Phase::Installed(at) => (Some(&at.tables.scenario), Some(at.me)),
        };
        f.debug_struct("Engine")
            .field("scenario", &scenario)
            .field("me", &me)
            .field("blackholed", &self.run.blackholed)
            .field("stats", &self.run.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine that waits for an `Init` control message to learn
    /// its tables (the normal, paper-faithful path).
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            phase: Phase::Waiting,
            run: Run {
                cfg,
                ..Run::default()
            },
        }
    }

    /// Marks this engine as the control node: it distributes tables on
    /// start and collects error reports. Until then it only holds them: it
    /// installs itself, like its peers, when distribution begins.
    pub fn control(cfg: EngineConfig, tables: TableSet, me: NodeId) -> Self {
        Engine {
            phase: Phase::Holding { tables, me },
            ..Engine::new(cfg)
        }
    }

    /// Binds a `VAR` filter pattern to a concrete value.
    pub fn bind_var(&mut self, name: &str, value: u64) {
        self.run.vars.insert(name.to_string(), value);
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        self.run.stats
    }

    /// Errors flagged so far (on the control node this includes remote
    /// reports).
    pub fn errors(&self) -> &[FlaggedError] {
        &self.run.errors
    }

    /// Time of the most recent packet-definition match.
    pub fn last_match(&self) -> SimTime {
        self.run.last_match
    }

    /// `true` once the tables are installed (directly or via `Init`): the
    /// classifier, the counter and status vectors and this node's identity
    /// all exist. Frames pass through untouched until then.
    pub fn initialized(&self) -> bool {
        matches!(self.phase, Phase::Installed(_))
    }

    /// Nodes that have acknowledged initialization (control node only).
    pub fn init_acks(&self) -> &[NodeId] {
        match &self.phase {
            Phase::Installed(Installed {
                role: Role::Control { acked, .. },
                ..
            }) => acked,
            _ => &[],
        }
    }

    /// A counter's current local value (`None` before the tables are
    /// installed).
    pub fn counter(&self, id: CounterId) -> Option<i64> {
        self.run.counter_values.get(id.index()).copied()
    }

    /// `true` while this node is blackholed by a `FAIL` action.
    pub fn is_blackholed(&self) -> bool {
        self.run.blackholed
    }

    /// The recorded causal event stream, in recording order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.run.events
    }

    /// Per-filter match counts, indexed by `FilterId` (empty before the
    /// tables are installed).
    pub fn filter_hits(&self) -> &[u64] {
        &self.run.filter_hits
    }

    /// Distribution of evaluation-cascade depths (populated at
    /// [`ObsLevel::Faults`] and above).
    pub fn cascade_hist(&self) -> &Histogram {
        &self.run.cascade_hist
    }

    /// Distribution of classify-to-action latency in charged sim
    /// nanoseconds (populated at [`ObsLevel::Faults`] and above).
    pub fn latency_hist(&self) -> &Histogram {
        &self.run.latency_hist
    }

    // ------------------------------------------------------------------
    // Entry points: the host drives the engine through these
    // ------------------------------------------------------------------

    /// Starts the engine: the control node installs the tables it holds
    /// and sends each peer its `Init`; a peer goes on waiting for its own.
    pub fn start(&mut self, io: &mut impl EngineIo) {
        match std::mem::replace(&mut self.phase, Phase::Waiting) {
            Phase::Holding { tables, me } => {
                let role = Role::Control {
                    acked: Vec::new(),
                    init_rto: INIT_RTO,
                };
                self.install(io, tables, me, role);
            }
            phase => self.phase = phase,
        }
    }

    /// Runs Fig 4(b) on a frame the stack sends: classify, count, cascade,
    /// then the gated faults. Until the tables are installed frames pass
    /// untouched, as the engine's own control traffic always does.
    pub fn outbound(&mut self, io: &mut impl EngineIo, frame: Frame) -> Verdict {
        match &self.phase {
            Phase::Installed(at) if frame.ethertype() != EtherType::VW_CONTROL => {
                self.run.process_packet(io, at, frame, Dir::Send)
            }
            _ => Verdict::Accept(frame),
        }
    }

    /// [`outbound`](Self::outbound) for a frame off the wire, except that
    /// a control frame is consumed by the control plane.
    pub fn inbound(&mut self, io: &mut impl EngineIo, frame: Frame) -> Verdict {
        if frame.ethertype() == EtherType::VW_CONTROL {
            self.handle_control(io, &frame);
            return Verdict::Consume;
        }
        let Phase::Installed(at) = &self.phase else {
            return Verdict::Accept(frame);
        };
        self.run.process_packet(io, at, frame, Dir::Recv)
    }

    /// Handles the timer armed with `token`: the control-plane pump, an `Init`
    /// retransmission, or a delayed frame's release, unclassified (Fig 4(b)).
    pub fn timer(&mut self, io: &mut impl EngineIo, token: u64) {
        let run = &mut self.run;
        match token {
            TIMER_RETX => {
                run.pump_armed_for = None;
                if let Phase::Installed(at) = &self.phase {
                    run.run_pump(io, at);
                }
            }
            TIMER_INIT_RETX => self.retransmit_inits(io),
            _ => {
                if let Some((frame, dir)) = run.held.remove(&token) {
                    run.stats.faults_in_limbo = run.stats.faults_in_limbo.saturating_sub(1);
                    io.release(frame, dir);
                }
            }
        }
    }

    /// Releases what DELAY timers and unfilled REORDER buffers still hold,
    /// so nothing vanishes at run end: delayed frames in token order (they
    /// allocate monotonically), then each REORDER buffer in action order.
    pub fn teardown(&mut self, io: &mut impl EngineIo) {
        let run = &mut self.run;
        let mut held: Vec<_> = run.held.drain().collect();
        held.sort_by_key(|(token, _)| *token);
        let batches = run.reorder_bufs.iter_mut().flat_map(|b| b.drain(..));
        let mut flushed = 0u64;
        for (frame, dir) in held.into_iter().map(|(_, entry)| entry).chain(batches) {
            flushed += 1;
            io.release(frame, dir);
        }
        run.stats.teardown_flushed += flushed;
        run.stats.faults_in_limbo = run.stats.faults_in_limbo.saturating_sub(flushed);
    }

    // ------------------------------------------------------------------
    // Initialization
    // ------------------------------------------------------------------

    /// Installs `tables` as node `me`: builds (or finds) the plan and
    /// sizes the run's vectors; the control node then sends every peer its
    /// `Init`; last, the initial evaluation fires what starts out true.
    fn install(&mut self, io: &mut impl EngineIo, tables: TableSet, me: NodeId, role: Role) {
        let plan = InstallPlan::cached(&tables, self.run.cfg.classifier, me);
        self.run.size_for(&tables, io.now());
        let at = Installed {
            tables,
            plan,
            me,
            role,
        };
        if let Role::Control { .. } = at.role {
            self.run.send_inits(io, &at);
            if at.tables.nodes.len() > 1 {
                io.set_timer(INIT_RTO, TIMER_INIT_RETX);
            }
        }
        self.run.initial_evaluation(io, &at);
        self.phase = Phase::Installed(at);
    }

    /// Retransmits `Init` to peers that have not acknowledged it yet,
    /// backing off up to the RTO cap; stops rearming once every peer has
    /// acked.
    fn retransmit_inits(&mut self, io: &mut impl EngineIo) {
        let Phase::Installed(at) = &mut self.phase else {
            return;
        };
        let resent = self.run.send_inits(io, at);
        self.run.stats.control_retransmits += resent;
        if let (Role::Control { init_rto, .. }, true) = (&mut at.role, resent > 0) {
            let cap = self.run.cfg.control.staleness.max(INIT_RTO);
            *init_rto = init_rto.saturating_add(*init_rto).min(cap);
            io.set_timer(*init_rto, TIMER_INIT_RETX);
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn handle_control(&mut self, io: &mut impl EngineIo, frame: &Frame) {
        let run = &mut self.run;
        run.stats.control_received += 1;
        run.stats.control_received_bytes += frame.len() as u64;
        let cf = match wire::parse_control(frame) {
            Ok(cf) => cf,
            Err(_) => return, // corrupted/legacy control frame: refuse, never misparse
        };
        let src = frame.src();
        run.process_ack(src, io.now(), cf.ack);
        if let Phase::Installed(at) = &self.phase {
            run.pump_control(io, at);
        }
        let Some(seq) = cf.seq.checked_sub(WIRE_SEQ_OFFSET) else {
            self.dispatch_control(io, src, cf.msg);
            return;
        };

        // Sequenced message: admit through the per-peer receiver so
        // remote term evaluation stays exactly-once and in-order.
        let Phase::Installed(at) = &self.phase else {
            // Deliberately no ack: the Init that precedes these updates
            // has not arrived yet, so the sender must keep retransmitting
            // until table distribution catches up.
            return;
        };
        let me = at.me;
        let recorded_peer = if self.run.cfg.obs.full() {
            at.peer_node_id(src)
        } else {
            None
        };
        let now = io.now();
        let run = &mut self.run;
        let rx = run.peer_rx.entry(src).or_insert_with(PeerRx::new);
        if rx.frozen {
            // Degraded peer: its remote terms are frozen; ignore without
            // acking.
            return;
        }
        // Released messages carry consecutive sequence numbers from the
        // one expected before this admission.
        let first = rx.window.expected();
        let mut released = std::mem::take(&mut run.scratch_ctrl);
        match rx.window.admit(seq, cf.msg, &mut released) {
            RecvAction::Deliver { .. } => {}
            RecvAction::Buffered { .. } => run.stats.control_reorder_buffered += 1,
            RecvAction::AckOnly { .. } => run.stats.control_dup_suppressed += 1,
        }
        rx.gap_since = rx.window.has_gap().then(|| rx.gap_since.unwrap_or(now));
        rx.ack_owed = true;
        run.recompute_pump_next();
        for (i, msg) in released.drain(..).enumerate() {
            if let Some(peer) = recorded_peer {
                let kind = ObsKind::ControlDelivered {
                    peer,
                    peer_seq: first + WIRE_SEQ_OFFSET + i as u32,
                    ack: cf.ack,
                };
                self.run.record(me, now, kind);
            }
            self.dispatch_control(io, src, msg);
        }
        let run = &mut self.run;
        run.scratch_ctrl = released;
        // Ack what we've cumulatively received — as a pure Ack frame
        // unless a sequenced send back to this peer already carried it.
        if let (ack, true) = run.settle_ack(src) {
            let frame = wire::build_sequenced_frame(io.mac(), src, 0, ack, &ControlMsg::Ack);
            run.send_control(io, frame);
        }
        run.arm_pump_timer(io);
    }

    /// Applies one in-order control message from `src`.
    fn dispatch_control(&mut self, io: &mut impl EngineIo, src: MacAddr, msg: ControlMsg) {
        match msg {
            ControlMsg::Init { tables, you_are } => {
                // A retransmitted Init never reinstalls (that would reset
                // counters)...
                if !self.initialized() {
                    self.install(io, tables, you_are, Role::Peer { control: src });
                }
                // ...but always re-acks, in case the first InitAck was
                // lost.
                let ack = ControlMsg::InitAck { node: you_are };
                self.run
                    .send_control(io, wire::build_frame(io.mac(), src, &ack));
            }
            ControlMsg::InitAck { node } => {
                if let Phase::Installed(Installed {
                    role: Role::Control { acked, .. },
                    ..
                }) = &mut self.phase
                {
                    if !acked.contains(&node) {
                        acked.push(node);
                    }
                }
            }
            ControlMsg::Ack => {
                // Pure ack carrier: the cumulative ack in its header was
                // already processed.
            }
            ControlMsg::CounterUpdate { counter, value } => {
                if let Phase::Installed(at) = &self.phase {
                    if counter.index() < self.run.counter_values.len() {
                        self.run.set_counter(io, at, counter, value);
                    }
                }
            }
            ControlMsg::TermStatus { term, status } => {
                if let Phase::Installed(at) = &self.phase {
                    self.run.term_status(io, at, term, status);
                }
            }
            ControlMsg::FlagError {
                node,
                condition,
                message,
            } => {
                let node_name = match &self.phase {
                    Phase::Installed(at) => at.tables.node_name(node).into_owned(),
                    _ => format!("node#{}", node.index()),
                };
                self.run.errors.push(FlaggedError {
                    node,
                    node_name,
                    condition: Some(condition),
                    message,
                    time: io.now(),
                });
            }
            ControlMsg::Stop { reason, .. } => {
                io.request_stop(reason);
            }
        }
    }
}

impl Run {
    /// Sizes the counter, flag and filter-hit vectors for `tables`, at
    /// install.
    fn size_for(&mut self, tables: &TableSet, now: SimTime) {
        let (ncounters, nterms) = (tables.counters.len(), tables.terms.len());
        self.counter_values = vec![0; ncounters];
        self.flags = vec![false; ncounters + nterms + tables.conditions.len()];
        (self.term_base, self.cond_base) = (ncounters, ncounters + nterms);
        self.filter_hits = vec![0; tables.filters.len()];
        self.last_match = now;
    }

    // ------------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------------

    /// Appends one event stamped with node `me` and the current
    /// `frame_seq`: the ordinal of the last classified frame, which ties
    /// every recorded event to the frame whose processing caused it.
    /// Every caller checks `cfg.obs.full()` / `.faults()` itself, so a
    /// site costs one compare and no call with the recorder off (checking
    /// in here read ~25 ns on `core.cascade_action25_ns`).
    fn record(&mut self, me: NodeId, time: SimTime, kind: ObsKind) {
        self.events.push(ObsEvent {
            time,
            node: me,
            frame_seq: self.stats.classified,
            kind,
        });
    }

    /// Flags an error at this node, named from the engine's identity.
    fn flag(&mut self, at: &Installed, time: SimTime, condition: Option<CondId>, message: String) {
        self.errors.push(FlaggedError {
            node: at.me,
            node_name: at.tables.node_name(at.me).into_owned(),
            condition,
            message,
            time,
        });
    }

    /// Evaluates every term and condition from the all-zero counter state
    /// and fires conditions that start out true (`(TRUE) >> ...` rules).
    fn initial_evaluation(&mut self, io: &mut impl EngineIo, at: &Installed) {
        let me = at.me;
        for (i, term) in at.tables.terms.iter().enumerate() {
            if term.eval_node == me {
                let status = term
                    .op
                    .apply(self.operand_value(term.lhs), self.operand_value(term.rhs));
                self.flags[self.term_base + i] = status;
                // Terms that start out true get a flip record too, so a
                // replay of the event stream reconstructs the same term
                // state the engine evaluates conditions against.
                if status && self.cfg.obs.full() {
                    let term = TermId(i as u16);
                    self.record(me, io.now(), ObsKind::TermFlipped { term, status });
                }
            }
        }
        let mut fired = std::mem::take(&mut self.scratch_fired);
        fired.clear();
        for (i, cond) in at.tables.conditions.iter().enumerate() {
            if cond.eval_nodes.contains(&me) {
                let status = cond.expr.eval(&|t| self.flags[self.term_base + t.index()]);
                self.flags[self.cond_base + i] = status;
                if status {
                    fired.push(CondId(i as u16));
                }
            }
        }
        self.fire_all(io, at, &mut fired);
    }

    /// Fires each condition in `fired`, running the cascade of each before
    /// the next, and puts the buffer back as scratch.
    fn fire_all(&mut self, io: &mut impl EngineIo, at: &Installed, fired: &mut Vec<CondId>) {
        let mut worklist = std::mem::take(&mut self.cascade_worklist);
        worklist.clear();
        for &cond in fired.iter() {
            self.fire_condition(io, at, cond, &mut worklist);
            self.run_cascade(io, at, &mut worklist);
        }
        self.scratch_fired = std::mem::take(fired);
        self.cascade_worklist = worklist;
    }

    // ------------------------------------------------------------------
    // Evaluation cascade
    // ------------------------------------------------------------------

    fn operand_value(&self, op: CompiledOperand) -> i64 {
        match op {
            CompiledOperand::Counter(c) => self.counter_values[c.index()],
            CompiledOperand::Const(v) => v,
        }
    }

    /// Applies a counter mutation and runs the resulting evaluation
    /// cascade: affected terms, conditions, edge-triggered actions, and
    /// control-plane notifications, bounded by the cascade budget. Always
    /// inlined: the packet path bumps every matched counter through it.
    #[inline(always)]
    fn set_counter(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        counter: CounterId,
        value: i64,
    ) {
        let old = self.counter_values[counter.index()];
        if old == value {
            return;
        }
        self.counter_values[counter.index()] = value;
        if self.cfg.obs.full() {
            let kind = ObsKind::CounterUpdated {
                counter,
                old,
                new: value,
            };
            self.record(at.me, io.now(), kind);
        }
        let mut worklist = std::mem::take(&mut self.cascade_worklist);
        worklist.clear();
        worklist.push(counter);
        self.run_cascade(io, at, &mut worklist);
        self.cascade_worklist = worklist;
    }

    /// Applies a remote term's new status: re-evaluates the local
    /// conditions over it and fires those that became true.
    fn term_status(&mut self, io: &mut impl EngineIo, at: &Installed, term: TermId, status: bool) {
        let i = self.term_base + term.index();
        if i >= self.cond_base || self.flags[i] == status {
            return;
        }
        self.flags[i] = status;
        if self.cfg.obs.full() {
            self.record(at.me, io.now(), ObsKind::TermFlipped { term, status });
        }
        let mut fired = std::mem::take(&mut self.scratch_fired);
        fired.clear();
        let tables = &at.tables;
        for &cond in &tables.terms[term.index()].conditions {
            if tables.conditions[cond.index()].eval_nodes.contains(&at.me) {
                if let Some(f) = self.reevaluate_condition(at, cond) {
                    fired.push(f);
                }
            }
        }
        self.fire_all(io, at, &mut fired);
    }

    /// Drains the cascade worklist: for each mutated counter, notifies
    /// remote subscribers, re-evaluates locally hosted terms, propagates
    /// status changes, and fires edge-triggered conditions — whose own
    /// counter mutations re-enter the worklist. Bounded by the cascade
    /// budget. The worklist buffer is reused across packets; this path
    /// performs no per-invocation allocation.
    fn run_cascade(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        worklist: &mut Vec<CounterId>,
    ) {
        let _span = vw_trace::span("cascade", vw_trace::Category::Cascade);
        let (tables, me) = (&at.tables, at.me);
        let mut budget = self.cfg.cascade_budget;
        let mut depth = 0u32;
        while let Some(cid) = worklist.pop() {
            if budget == 0 {
                let message = "evaluation cascade exceeded its budget (cyclic rules?)";
                self.flag(at, io.now(), None, message.into());
                worklist.clear();
                break;
            }
            budget -= 1;
            depth += 1;
            let info = &tables.counters[cid.index()];
            // Forward the authoritative value to remote term evaluators.
            if info.home == me {
                for subscriber in &info.subscribers {
                    let msg = ControlMsg::CounterUpdate {
                        counter: cid,
                        value: self.counter_values[cid.index()],
                    };
                    let dst = tables.nodes[subscriber.index()].mac;
                    io.charge(SimDuration::from_nanos(self.cfg.cost.per_action_ns));
                    self.send_sequenced(io, at, dst, msg);
                }
            }
            // Re-evaluate locally hosted terms over this counter.
            for &term in &info.affected_terms {
                let t = &tables.terms[term.index()];
                if t.eval_node != me {
                    continue;
                }
                let status =
                    t.op.apply(self.operand_value(t.lhs), self.operand_value(t.rhs));
                if status == self.flags[self.term_base + term.index()] {
                    continue;
                }
                self.flags[self.term_base + term.index()] = status;
                if self.cfg.obs.full() {
                    self.record(me, io.now(), ObsKind::TermFlipped { term, status });
                }
                // Propagate the term status to interested parties.
                for &cond in &t.conditions {
                    for &eval_node in &tables.conditions[cond.index()].eval_nodes {
                        if eval_node == me {
                            if let Some(fired) = self.reevaluate_condition(at, cond) {
                                // Fire edge triggers; counter mutations
                                // they perform re-enter the worklist.
                                self.fire_condition(io, at, fired, worklist);
                            }
                        } else {
                            let msg = ControlMsg::TermStatus { term, status };
                            let dst = tables.nodes[eval_node.index()].mac;
                            io.charge(SimDuration::from_nanos(self.cfg.cost.per_action_ns));
                            self.send_sequenced(io, at, dst, msg);
                        }
                    }
                }
            }
        }
        self.stats.max_cascade_depth = self.stats.max_cascade_depth.max(depth);
        if depth > 0 && self.cfg.obs.faults() {
            self.cascade_hist.observe(u64::from(depth));
        }
    }

    /// Re-evaluates one condition; returns it if it transitioned to true.
    fn reevaluate_condition(&mut self, at: &Installed, cond: CondId) -> Option<CondId> {
        let status = at.tables.conditions[cond.index()]
            .expr
            .eval(&|t| self.flags[self.term_base + t.index()]);
        let previous = self.flags[self.cond_base + cond.index()];
        self.flags[self.cond_base + cond.index()] = status;
        (status && !previous).then_some(cond)
    }

    /// Fires the local edge-triggered actions of a condition; counters it
    /// mutates are pushed onto the cascade worklist.
    fn fire_condition(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        cond: CondId,
        worklist: &mut Vec<CounterId>,
    ) {
        let (tables, me) = (&at.tables, at.me);
        if self.cfg.obs.faults() {
            self.record(me, io.now(), ObsKind::ConditionFired { cond });
        }
        for &(node, action) in &tables.conditions[cond.index()].triggers {
            if node != me {
                continue;
            }
            io.charge(SimDuration::from_nanos(self.cfg.cost.per_action_ns));
            let kind = &tables.actions[action.index()].kind;
            if self.cfg.obs.faults() {
                self.record_action(me, io, action);
            }
            match kind {
                &CompiledActionKind::Counter { counter, op } => {
                    let i = counter.index();
                    let old = self.counter_values[i];
                    // ASSIGN and RESET to the value already held change
                    // nothing; arithmetic and time operations always
                    // re-evaluate the counter's terms.
                    let (new, requeue) = match op {
                        CounterOp::Enable | CounterOp::Disable => {
                            self.flags[i] = op == CounterOp::Enable;
                            (old, false)
                        }
                        CounterOp::Assign(value) => (value, value != old),
                        CounterOp::Reset => (0, old != 0),
                        CounterOp::Incr(value) => (old.saturating_add(value), true),
                        CounterOp::Decr(value) => (old.saturating_sub(value), true),
                        CounterOp::SetCurTime => (io.now_ns(), true),
                        CounterOp::ElapsedTime => (io.now_ns().saturating_sub(old), true),
                    };
                    self.counter_values[i] = new;
                    if requeue {
                        worklist.push(counter);
                    }
                }
                &CompiledActionKind::Fail { node } => {
                    debug_assert_eq!(node, me, "compiler places FAIL at the victim");
                    self.blackholed = true;
                }
                CompiledActionKind::Stop => {
                    let reason = format!(
                        "STOP fired at {} (condition {})",
                        at.tables.node_name(me),
                        cond.index()
                    );
                    // Tell everyone, then halt the run.
                    let msg = ControlMsg::Stop {
                        node: me,
                        reason: reason.clone(),
                    };
                    self.send_control(io, wire::build_frame(io.mac(), MacAddr::BROADCAST, &msg));
                    io.request_stop(reason);
                }
                CompiledActionKind::FlagError { message } => {
                    let message = message
                        .clone()
                        .unwrap_or_else(|| format!("FLAG_ERR fired (condition {})", cond.index()));
                    self.flag(at, io.now(), Some(cond), message.clone());
                    if let Role::Peer { control } = at.role {
                        let msg = ControlMsg::FlagError {
                            node: me,
                            condition: cond,
                            message,
                        };
                        self.send_control(io, wire::build_frame(io.mac(), control, &msg));
                    }
                }
                // Packet faults are level-gated, never edge-triggered: the
                // compiler lists them under `gates`, not here.
                CompiledActionKind::Fault { .. } => {}
            }
        }
    }

    /// Records an executed action and its classify-to-action latency.
    /// Callers gate on `cfg.obs.faults()` first, so the per-action path with
    /// the recorder off is one compare and no call.
    #[inline(never)]
    fn record_action(&mut self, me: NodeId, io: &impl EngineIo, action: ActionId) {
        self.record(me, io.now(), ObsKind::ActionTriggered { action });
        self.latency_hist.observe(io.charged().as_nanos());
    }

    /// Sends a control-plane frame, accounting messages and bytes.
    fn send_control(&mut self, io: &mut impl EngineIo, frame: Frame) {
        self.stats.control_sent += 1;
        self.stats.control_sent_bytes += frame.len() as u64;
        io.send(frame);
    }

    /// Sends `Init` to every peer (every scripted node but this one) that
    /// has not acked it, and returns how many that was. Every message holds
    /// this engine's own table allocation; the receiver's copy is the one
    /// it decodes off the wire. The frames are sized by the `plan`, which
    /// remembers how long the first one built from `tables` was.
    fn send_inits(&mut self, io: &mut impl EngineIo, at: &Installed) -> u64 {
        let (tables, plan) = (&at.tables, &at.plan);
        let acked = match &at.role {
            Role::Control { acked, .. } => acked.as_slice(),
            Role::Peer { .. } => &[],
        };
        let mut sent = 0;
        for (i, node) in tables.nodes.iter().enumerate() {
            let you_are = NodeId(i as u16);
            if you_are == at.me || acked.contains(&you_are) {
                continue;
            }
            let msg = ControlMsg::Init {
                tables: TableSet::clone(tables),
                you_are,
            };
            let frame_len = plan.init_frame_len.get();
            let frame = wire::build_init_frame(io.mac(), node.mac, &msg, frame_len);
            plan.init_frame_len.set(frame.len());
            self.send_control(io, frame);
            sent += 1;
        }
        sent
    }

    // ------------------------------------------------------------------
    // Control-plane reliability: sequencing, acks, retransmission
    // ------------------------------------------------------------------

    /// Sends a sequenced control message to `dst`: offers it to the
    /// peer's window, which keeps it for retransmission until acked.
    fn send_sequenced(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        dst: MacAddr,
        msg: ControlMsg,
    ) {
        let now = io.now();
        let initial_rto = self.cfg.control.initial_rto;
        let tx = self
            .peer_tx
            .entry(dst)
            .or_insert_with(|| PeerTx::new(initial_rto));
        let SendAction::Transmit { seq } = tx.window.offer((now, msg.clone())) else {
            unreachable!("the control plane's send window holds nothing back");
        };
        if tx.next_at.is_none() {
            tx.rto = initial_rto;
            tx.next_at = Some(now.saturating_add(initial_rto));
        }
        let next_at = tx.next_at;
        let overloaded = !tx.stale_flagged && tx.window.in_flight_len() > MAX_UNACKED;
        tx.stale_flagged |= overloaded;
        self.transmit_seq(io, at, dst, seq, &msg);
        if overloaded {
            self.flag_stale_sender(io, at, dst);
        }
        if let Some(at) = next_at {
            self.pump_next = Some(self.pump_next.map_or(at, |p| p.min(at)));
        }
        self.arm_pump_timer(io);
    }

    /// Puts `dst`'s message numbered `seq` on the wire, with the
    /// cumulative ack owed to `dst` riding along. At `ObsLevel::Full` it
    /// records the `(node, peer, seq)` triple, one happens-before edge of
    /// the distributed timeline (a retransmission repeats it).
    fn transmit_seq(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        dst: MacAddr,
        seq: u32,
        msg: &ControlMsg,
    ) {
        let (ack, _) = self.settle_ack(dst);
        let wire_seq = seq + WIRE_SEQ_OFFSET;
        let frame = wire::build_sequenced_frame(io.mac(), dst, wire_seq, ack, msg);
        self.send_control(io, frame);
        if !self.cfg.obs.full() {
            return;
        }
        if let Some(peer) = at.peer_node_id(dst) {
            let kind = ObsKind::ControlSent {
                peer,
                peer_seq: wire_seq,
                ack,
            };
            self.record(at.me, io.now(), kind);
        }
    }

    /// The cumulative ack of `peer`'s messages, now riding a frame to
    /// `peer`, and whether one was owed (a sequenced message arrived since
    /// the last ack to `peer` went out).
    fn settle_ack(&mut self, peer: MacAddr) -> (u32, bool) {
        self.peer_rx.get_mut(&peer).map_or((0, false), |rx| {
            (rx.window.expected(), std::mem::take(&mut rx.ack_owed))
        })
    }

    /// Applies a cumulative ack from `src` to its window (which ignores a
    /// stale ack, and a forged or garbled one past the last message sent:
    /// a control payload carries no checksum) and, if the ack made
    /// progress with messages still outstanding, resets the peer's RTO.
    fn process_ack(&mut self, src: MacAddr, now: SimTime, ack: u32) {
        let initial_rto = self.cfg.control.initial_rto;
        let Some(tx) = self.peer_tx.get_mut(&src) else {
            return;
        };
        let base = tx.window.base();
        tx.window.on_ack(ack);
        let progressed = tx.window.base() != base;
        if tx.window.is_idle() {
            tx.next_at = None;
        } else if progressed {
            tx.rto = initial_rto;
            tx.next_at = Some(now.saturating_add(initial_rto));
        }
        if progressed {
            self.recompute_pump_next();
        }
    }

    /// The per-frame retransmission check: one compare against the
    /// earliest pending control-plane deadline, the full pump only when
    /// something is actually due.
    #[inline]
    fn pump_control(&mut self, io: &mut impl EngineIo, at: &Installed) {
        if self.pump_next.is_some_and(|t| io.now() >= t) {
            self.run_pump(io, at);
        }
    }

    /// Runs due retransmissions (head-of-line, capped exponential
    /// backoff) and staleness checks, then recomputes and re-arms the
    /// next deadline.
    fn run_pump(&mut self, io: &mut impl EngineIo, at: &Installed) {
        let now = io.now();
        let cfg = self.cfg.control;
        let mut txs = std::mem::take(&mut self.peer_tx);
        for (&mac, tx) in txs.iter_mut() {
            let due = tx.next_at.is_some_and(|at| now >= at);
            if !due {
                continue;
            }
            let Some((seq, (first_sent, msg))) = tx.window.on_timeout().next() else {
                tx.next_at = None;
                continue;
            };
            if !tx.stale_flagged && now.saturating_since(*first_sent) >= cfg.staleness {
                tx.stale_flagged = true;
                self.flag_stale_sender(io, at, mac);
            }
            self.stats.control_retransmits += 1;
            self.transmit_seq(io, at, mac, seq, msg);
            tx.rto = tx.rto.saturating_add(tx.rto).min(cfg.max_rto);
            tx.next_at = Some(now.saturating_add(tx.rto));
        }
        self.peer_tx = txs;

        let mut rxs = std::mem::take(&mut self.peer_rx);
        for (&mac, rx) in rxs.iter_mut() {
            let gap = rx.gap_since.filter(|_| !rx.frozen);
            if gap.is_some_and(|g| now.saturating_since(g) >= cfg.staleness) {
                (rx.frozen, rx.gap_since, rx.ack_owed) = (true, None, false);
                self.freeze_peer(io, at, mac);
            }
        }
        self.peer_rx = rxs;

        self.recompute_pump_next();
        self.arm_pump_timer(io);
    }

    /// Recomputes the earliest pending control-plane deadline across all
    /// peers' retransmission timers and receive-gap staleness deadlines.
    fn recompute_pump_next(&mut self) {
        let staleness = self.cfg.control.staleness;
        let retransmits = self.peer_tx.values().filter_map(|tx| tx.next_at);
        let live = self.peer_rx.values().filter(|rx| !rx.frozen);
        let gaps = live.filter_map(|rx| Some(rx.gap_since?.saturating_add(staleness)));
        self.pump_next = retransmits.chain(gaps).min();
    }

    /// Arms the pump timer for the next deadline, unless one is already
    /// armed at least as early. A timer that fires with nothing due is a
    /// harmless no-op, so early timers never need cancelling.
    fn arm_pump_timer(&mut self, io: &mut impl EngineIo) {
        let Some(next) = self.pump_next else {
            return;
        };
        if self.pump_armed_for.is_some_and(|t| t <= next) {
            return;
        }
        let delay = next.saturating_since(io.now());
        io.set_timer(delay, TIMER_RETX);
        self.pump_armed_for = Some(next);
    }

    /// Flags sender-side staleness: the peer has stopped acknowledging
    /// our sequenced updates. Retransmission continues (capped backoff),
    /// but the run's report now carries the degradation.
    fn flag_stale_sender(&mut self, io: &mut impl EngineIo, at: &Installed, peer: MacAddr) {
        let (_, peer_name) = at.peer_identity(peer);
        self.stats.control_stale_degradations += 1;
        self.flag(
            at,
            io.now(),
            None,
            format!(
                "control-plane staleness: {peer_name} is not acknowledging sequenced \
                 updates; its view of remote terms may lag (still retransmitting)"
            ),
        );
    }

    /// Reports a peer the pump just froze on the receive side: its
    /// sequence stream has a gap older than the staleness threshold, so its
    /// remote terms stay at last-known status and further sequenced
    /// messages are ignored (and deliberately not acked).
    fn freeze_peer(&mut self, io: &mut impl EngineIo, at: &Installed, peer: MacAddr) {
        self.stats.control_stale_degradations += 1;
        let (peer_id, peer_name) = at.peer_identity(peer);
        if self.cfg.obs.faults() {
            if let Some(peer) = peer_id {
                self.record(at.me, io.now(), ObsKind::PeerDegraded { peer });
            }
        }
        self.flag(
            at,
            io.now(),
            None,
            format!(
                "control-plane staleness: sequenced updates from {peer_name} stalled on a \
                 sequence gap; remote terms frozen at last-known status"
            ),
        );
    }

    // ------------------------------------------------------------------
    // Packet path
    // ------------------------------------------------------------------

    fn process_packet(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        frame: Frame,
        dir: Dir,
    ) -> Verdict {
        // A FAILed node consumes everything, in both directions.
        if self.blackholed {
            self.stats.blackholed += 1;
            return Verdict::Consume;
        }
        // Retransmission checks ride the per-frame path: one compare
        // against the earliest pending deadline when nothing is due.
        self.pump_control(io, at);
        let (tables, plan, me) = (&at.tables, &*at.plan, at.me);
        self.stats.classified += 1;
        let result = {
            let _span = vw_trace::span(
                match dir {
                    Dir::Send => "classify_out",
                    Dir::Recv => "classify_in",
                },
                vw_trace::Category::Classify,
            );
            plan.classifier
                .classify(tables, &self.vars, &frame, &mut self.scratch)
        };
        let scan = self.scratch.last;
        self.stats.rules_scanned += u64::from(scan.rules_scanned);
        self.stats.residual_scans += u64::from(scan.residual_visited);
        io.charge(SimDuration::from_nanos(
            self.cfg.cost.per_filter_ns * u64::from(scan.rules_scanned),
        ));
        let classification = match result {
            Ok(c) => c,
            Err(_) => return Verdict::Accept(frame),
        };
        if scan.matched_via_index {
            self.stats.index_hits += 1;
        }
        self.stats.matched += 1;
        self.last_match = io.now();
        if let Some(hits) = self.filter_hits.get_mut(classification.filter.index()) {
            *hits += 1;
        }
        if self.cfg.obs.full() {
            let kind = ObsKind::Classified {
                filter: classification.filter,
                dir,
                len: u32::try_from(frame.len()).unwrap_or(u32::MAX),
            };
            self.record(me, io.now(), kind);
        }

        // ---- counter updates (Figure 4(b): update_counter) ----------
        // The install-time dispatch table narrows the candidates to the
        // counters keyed by this packet's (filter, dir); only the
        // enabled/endpoint checks remain per packet.
        let mut bump = std::mem::take(&mut self.scratch_bump);
        bump.clear();
        let slot = dispatch_slot(classification.filter, dir);
        if let Some(candidates) = plan.counter_dispatch.get(slot) {
            for &counter in candidates {
                let CompiledCounterKind::Packet(sel) = &tables.counters[counter.index()].kind
                else {
                    continue;
                };
                if self.flags[counter.index()]
                    && sel.matches(
                        classification.filter,
                        classification.from,
                        classification.to,
                        dir,
                    )
                {
                    bump.push(counter);
                }
            }
        }
        for &counter in &bump {
            self.stats.counter_increments += 1;
            io.charge(SimDuration::from_nanos(self.cfg.cost.per_action_ns));
            let value = self.counter_values[counter.index()] + 1;
            self.set_counter(io, at, counter, value);
        }
        self.scratch_bump = bump;

        // A FAIL may have fired during the cascade triggered by this very
        // packet; it still consumes the packet.
        if self.blackholed {
            self.stats.blackholed += 1;
            return Verdict::Consume;
        }

        // ---- gated faults --------------------------------------------
        self.apply_gates(io, at, frame, dir, &classification)
    }

    fn apply_gates(
        &mut self,
        io: &mut impl EngineIo,
        at: &Installed,
        mut frame: Frame,
        dir: Dir,
        classification: &Classification,
    ) -> Verdict {
        let _span = vw_trace::span(
            match dir {
                Dir::Send => "action_out",
                Dir::Recv => "action_in",
            },
            vw_trace::Category::Action,
        );
        let (tables, me) = (&at.tables, at.me);
        let mut duplicate = false;
        for (ci, cond) in tables.conditions.iter().enumerate() {
            if !self.flags[self.cond_base + ci] {
                continue;
            }
            for (node, action) in &cond.gates {
                if *node != me {
                    continue;
                }
                let kind = &tables.actions[action.index()].kind;
                let CompiledActionKind::Fault { on, fault } = kind else {
                    continue;
                };
                if !on.matches(
                    classification.filter,
                    classification.from,
                    classification.to,
                    dir,
                ) {
                    continue;
                }
                io.charge(SimDuration::from_nanos(self.cfg.cost.per_action_ns));
                if self.cfg.obs.faults() {
                    self.record_action(me, io, *action);
                }
                match fault {
                    Fault::Drop => {
                        self.stats.drops += 1;
                        return Verdict::Consume;
                    }
                    Fault::Dup => {
                        self.stats.dups += 1;
                        duplicate = true;
                    }
                    Fault::Modify(pattern) => {
                        self.stats.modifies += 1;
                        match pattern {
                            ModifyPattern::Random => {
                                // Random perturbation of payload bytes,
                                // as Section 5.2 describes.
                                use rand::Rng;
                                let len = frame.len();
                                if len > 14 {
                                    let flips = io.rng().random_range(1..=3u32);
                                    for _ in 0..flips {
                                        let byte = io.rng().random_range(14..len);
                                        let bit = io.rng().random_range(0..8u8);
                                        frame.flip_bit(byte, bit);
                                    }
                                }
                            }
                            &ModifyPattern::Set { offset, len, value } => {
                                let bytes = value.to_be_bytes();
                                let n = (len as usize).min(8);
                                if !frame.set_bytes(offset as usize, &bytes[8 - n..]) {
                                    // The write window falls off the end
                                    // of the frame: skip it loudly (once
                                    // per action) rather than truncating
                                    // or panicking.
                                    self.stats.modify_oob += 1;
                                    if self.oob_flagged.is_empty() {
                                        self.oob_flagged.resize(tables.actions.len(), false);
                                    }
                                    let flagged = &mut self.oob_flagged[action.index()];
                                    if !std::mem::replace(flagged, true) {
                                        let message = format!(
                                            "MODIFY SET writes {n} byte(s) at offset {offset}, \
                                             outside the {}-byte frame; write skipped",
                                            frame.len()
                                        );
                                        self.flag(at, io.now(), None, message);
                                    }
                                }
                            }
                        }
                    }
                    &Fault::Delay { duration_ns } => {
                        self.stats.delays += 1;
                        // The paper's delay granularity is one jiffy.
                        let delay = SimDuration::from_nanos(duration_ns).quantize_to_jiffies();
                        self.next_delay_token += 1;
                        let token = TIMER_DELAY_BASE + self.next_delay_token;
                        self.stats.faults_in_limbo += 1;
                        self.held.insert(token, (frame, dir));
                        io.set_timer(delay, token);
                        return Verdict::Replace(Vec::new());
                    }
                    Fault::Reorder { count, order } => {
                        self.stats.reorders += 1;
                        self.stats.faults_in_limbo += 1;
                        if self.reorder_bufs.is_empty() {
                            self.reorder_bufs
                                .resize_with(tables.actions.len(), Vec::new);
                        }
                        let buffer = &mut self.reorder_bufs[action.index()];
                        buffer.push((frame, dir));
                        if buffer.len() >= *count as usize {
                            let slots = &mut self.scratch_reorder;
                            release_reorder_batch(io, buffer, slots, order, &mut self.stats);
                        }
                        return Verdict::Replace(Vec::new());
                    }
                }
            }
        }
        if duplicate {
            // The copy leaves through the context, a step ahead of the
            // original; a two-frame `Replace` would allocate its `Vec`.
            io.release(frame.clone(), dir);
        }
        Verdict::Accept(frame)
    }
}

/// Releases a full REORDER batch: the permuted frames first (each
/// in-range, first-mention index wins), then every frame the order never
/// mentioned, in arrival order. A malformed order — out-of-range,
/// duplicated, or missing indices — is counted, but must never lose a
/// frame: REORDER permutes traffic, it does not consume it.
///
/// The frames leave through the context in that order (the one that
/// filled the batch included; its verdict is an empty `Replace`), and
/// `batch` and `slots` — the engine's scratch — keep their capacity.
fn release_reorder_batch(
    io: &mut impl EngineIo,
    batch: &mut Vec<(Frame, Dir)>,
    slots: &mut Vec<Option<(Frame, Dir)>>,
    order: &[u32],
    stats: &mut EngineStats,
) {
    stats.faults_in_limbo = stats.faults_in_limbo.saturating_sub(batch.len() as u64);
    slots.extend(batch.drain(..).map(Some));
    let mut malformed = false;
    for &i in order {
        match slots.get_mut(i as usize).and_then(Option::take) {
            Some((frame, dir)) => io.release(frame, dir),
            None => malformed = true,
        }
    }
    for (frame, dir) in slots.drain(..).flatten() {
        io.release(frame, dir);
        malformed = true;
    }
    if malformed {
        stats.reorder_malformed += 1;
    }
}

// The simulator adapter, the only place the engine meets `Context`.

#[rustfmt::skip]
impl EngineIo for Context<'_> {
    fn now(&self) -> SimTime { Context::now(self) }
    fn mac(&self) -> MacAddr { Context::mac(self) }
    fn charge(&mut self, cost: SimDuration) { Context::charge(self, cost) }
    fn charged(&self) -> SimDuration { Context::charged(self) }
    fn send(&mut self, frame: Frame) { Context::send(self, frame) }
    fn deliver_up(&mut self, frame: Frame) { Context::deliver_up(self, frame) }
    fn set_timer(&mut self, delay: SimDuration, token: u64) { Context::set_timer(self, delay, token); }
    fn request_stop(&mut self, reason: String) { Context::request_stop(self, reason) }
    fn rng(&mut self) -> &mut StdRng { Context::rng(self) }
}

#[rustfmt::skip]
impl Hook for Engine {
    fn name(&self) -> &str { "virtualwire" }
    fn on_start(&mut self, ctx: &mut Context<'_>) { self.start(ctx) }
    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict { self.outbound(ctx, frame) }
    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict { self.inbound(ctx, frame) }
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) { self.timer(ctx, token) }
    fn on_teardown(&mut self, ctx: &mut Context<'_>) { self.teardown(ctx) }
}

//! Binary payload codecs for the frame types in [`frame`](crate::frame).
//!
//! Hand-rolled little-endian encoding, same dependency-free discipline
//! as the rest of the workspace (the vendored `serde` stub cannot
//! serialize). Every decoder is total: truncated or inconsistent bytes
//! yield `None`, never a panic — the robustness corpus drives each one
//! through its truncation points.
//!
//! A campaign travels as its FSL *source text* plus structured axes: the
//! daemon re-parses and re-enumerates, which keeps the wire format
//! independent of `Program`'s in-memory shape and reuses the spec
//! validation path for typed `BadSpec` rejections.

use virtualwire::EngineStats;
use vw_campaign::{
    Axis, DigestKey, InstanceOutcome, MetricsDigest, OutcomeDigest, RunConfig, Sampling,
};
use vw_netsim::ControlImpairment;
use vw_obs::Histogram;

/// Typed daemon rejection codes carried by `Error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself failed to decode (also closes the connection).
    BadFrame,
    /// The submission's program or axes failed spec validation.
    BadSpec,
    /// The submission names a setup the daemon has not registered.
    UnknownSetup,
    /// A per-connection or daemon-wide quota was exceeded.
    QuotaExceeded,
    /// An `Attach` named a campaign the daemon does not know.
    UnknownCampaign,
    /// A `Submit` reused the name of a live campaign.
    AlreadyExists,
    /// Unexpected daemon-side failure.
    Internal,
    /// The daemon is stopping and accepts no new work.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire discriminant.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::BadSpec => 2,
            ErrorCode::UnknownSetup => 3,
            ErrorCode::QuotaExceeded => 4,
            ErrorCode::UnknownCampaign => 5,
            ErrorCode::AlreadyExists => 6,
            ErrorCode::Internal => 7,
            ErrorCode::ShuttingDown => 8,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadSpec,
            3 => ErrorCode::UnknownSetup,
            4 => ErrorCode::QuotaExceeded,
            5 => ErrorCode::UnknownCampaign,
            6 => ErrorCode::AlreadyExists,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

/// A campaign submission: everything the daemon needs to re-create the
/// `CampaignSpec` and execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Campaign name — unique among live campaigns, and the handle
    /// `Attach` uses after a reconnect. The daemon accepts
    /// `[A-Za-z0-9_.-]{1,128}` and rejects anything else as `BadSpec`.
    pub campaign: String,
    /// FSL source of the base program.
    pub program: String,
    /// Name of a daemon-registered [`Setup`](vw_campaign::Setup).
    pub setup: String,
    /// Swept axes, outermost first.
    pub axes: Vec<Axis>,
    /// Default seed/impairment where no axis overrides them.
    pub defaults: RunConfig,
    /// Exhaustive or budgeted-random expansion.
    pub sampling: Sampling,
    /// Digest fields defining outcome-class membership.
    pub key: DigestKey,
    /// Per-instance simulated-time deadline in nanoseconds.
    pub deadline_ns: u64,
    /// Requested shard size (`0` = daemon default). Part of the
    /// submission so a resumed campaign re-partitions identically.
    pub shard_size: u32,
}

impl Submission {
    /// Encodes the submission payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_str(&mut w, &self.campaign);
        put_str(&mut w, &self.program);
        put_str(&mut w, &self.setup);
        put_u32(&mut w, self.axes.len() as u32);
        for axis in &self.axes {
            encode_axis(&mut w, axis);
        }
        encode_run_config(&mut w, &self.defaults);
        match self.sampling {
            Sampling::Exhaustive => put_u8(&mut w, 0),
            Sampling::Random { budget, seed } => {
                put_u8(&mut w, 1);
                put_u64(&mut w, budget as u64);
                put_u64(&mut w, seed);
            }
        }
        put_u8(&mut w, encode_key(&self.key));
        put_u64(&mut w, self.deadline_ns);
        put_u32(&mut w, self.shard_size);
        w
    }

    /// Decodes a submission payload.
    pub fn decode(buf: &[u8]) -> Option<Submission> {
        let pos = &mut 0;
        let campaign = get_str(buf, pos)?;
        let program = get_str(buf, pos)?;
        let setup = get_str(buf, pos)?;
        let n_axes = get_u32(buf, pos)?;
        // An axis encoding is ≥ 5 bytes; reject counts the buffer
        // cannot possibly hold before allocating.
        if n_axes as usize > buf.len() {
            return None;
        }
        let mut axes = Vec::with_capacity(n_axes as usize);
        for _ in 0..n_axes {
            axes.push(decode_axis(buf, pos)?);
        }
        let defaults = decode_run_config(buf, pos)?;
        let sampling = match get_u8(buf, pos)? {
            0 => Sampling::Exhaustive,
            1 => Sampling::Random {
                budget: get_u64(buf, pos)? as usize,
                seed: get_u64(buf, pos)?,
            },
            _ => return None,
        };
        let key = decode_key(get_u8(buf, pos)?)?;
        let deadline_ns = get_u64(buf, pos)?;
        let shard_size = get_u32(buf, pos)?;
        (*pos == buf.len()).then_some(Submission {
            campaign,
            program,
            setup,
            axes,
            defaults,
            sampling,
            key,
            deadline_ns,
            shard_size,
        })
    }
}

/// `Accepted` payload: the daemon's acknowledgment of a submit/attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Campaign name.
    pub campaign: String,
    /// Total instances in the enumeration.
    pub total: u64,
    /// Shard count under the effective shard size.
    pub shards: u64,
    /// Instances already final (non-zero when attaching to a resumed or
    /// running campaign).
    pub already_done: u64,
}

impl Accepted {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_str(&mut w, &self.campaign);
        put_u64(&mut w, self.total);
        put_u64(&mut w, self.shards);
        put_u64(&mut w, self.already_done);
        w
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<Accepted> {
        let pos = &mut 0;
        let campaign = get_str(buf, pos)?;
        let total = get_u64(buf, pos)?;
        let shards = get_u64(buf, pos)?;
        let already_done = get_u64(buf, pos)?;
        (*pos == buf.len()).then_some(Accepted {
            campaign,
            total,
            shards,
            already_done,
        })
    }
}

/// Encodes an `Error` payload (code + message).
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut w = Vec::new();
    put_u16(&mut w, code.as_u16());
    put_str(&mut w, message);
    w
}

/// Decodes an `Error` payload.
pub fn decode_error(buf: &[u8]) -> Option<(ErrorCode, String)> {
    let pos = &mut 0;
    let code = ErrorCode::from_u16(get_u16(buf, pos)?)?;
    let message = get_str(buf, pos)?;
    (*pos == buf.len()).then_some((code, message))
}

/// Encodes an `Outcome` payload: instance index + rendered JSONL line.
pub fn encode_outcome_line(instance: u64, line: &str) -> Vec<u8> {
    let mut w = Vec::new();
    put_u64(&mut w, instance);
    put_str(&mut w, line);
    w
}

/// Decodes an `Outcome` payload.
pub fn decode_outcome_line(buf: &[u8]) -> Option<(u64, String)> {
    let pos = &mut 0;
    let instance = get_u64(buf, pos)?;
    let line = get_str(buf, pos)?;
    (*pos == buf.len()).then_some((instance, line))
}

/// `Subscribe` payload: a client's request for a live telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// Minimum milliseconds between [`TelemetryDelta`] ticks. The daemon
    /// clamps unreasonable values (see `DaemonConfig::telemetry`).
    pub interval_ms: u32,
    /// Include the full Prometheus text rendering in every tick (for
    /// scrape bridges; the binary delta is always present).
    pub prometheus_text: bool,
    /// Restrict per-campaign series to this campaign (empty = all).
    pub campaign: String,
    /// Only journal entries at or above this severity ride along.
    pub journal_min_severity: crate::journal::Severity,
}

impl Subscribe {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_u32(&mut w, self.interval_ms);
        put_u8(&mut w, u8::from(self.prometheus_text));
        put_str(&mut w, &self.campaign);
        put_u8(&mut w, self.journal_min_severity.as_u8());
        w
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<Subscribe> {
        let pos = &mut 0;
        let interval_ms = get_u32(buf, pos)?;
        let prometheus_text = match get_u8(buf, pos)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let campaign = get_str(buf, pos)?;
        let journal_min_severity = crate::journal::Severity::from_u8(get_u8(buf, pos)?)?;
        (*pos == buf.len()).then_some(Subscribe {
            interval_ms,
            prometheus_text,
            campaign,
            journal_min_severity,
        })
    }
}

/// `TelemetryDelta` payload: one tick of a live telemetry subscription.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDelta {
    /// Tick ordinal for this subscription (starts at 0, counts sent
    /// ticks only).
    pub seq: u64,
    /// Ticks dropped so far for this subscriber because its outbox was
    /// full. Changes carried by a dropped tick are folded into the next
    /// delivered delta — nothing is lost, only latency.
    pub dropped: u64,
    /// Journal entries since the subscriber's cursor, oldest first.
    pub journal: Vec<crate::journal::JournalEntry>,
    /// Binary registry delta
    /// ([`MetricsRegistry::encode_delta_from`](vw_obs::MetricsRegistry::encode_delta_from))
    /// against the last *delivered* tick; apply in order with
    /// [`MetricsRegistry::apply_delta`](vw_obs::MetricsRegistry::apply_delta).
    pub delta: Vec<u8>,
    /// Full Prometheus text, present only when the subscription asked
    /// for it.
    pub prometheus: String,
}

impl TelemetryDelta {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_u64(&mut w, self.seq);
        put_u64(&mut w, self.dropped);
        put_u32(&mut w, self.journal.len() as u32);
        for entry in &self.journal {
            entry.encode_into(&mut w);
        }
        put_u32(&mut w, self.delta.len() as u32);
        w.extend_from_slice(&self.delta);
        put_str(&mut w, &self.prometheus);
        w
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<TelemetryDelta> {
        let pos = &mut 0;
        let seq = get_u64(buf, pos)?;
        let dropped = get_u64(buf, pos)?;
        // A journal entry is ≥ 18 bytes (seq + t_ms + severity + kind).
        let journal = get_vec(buf, pos, 18, crate::journal::JournalEntry::decode_from)?;
        let delta_len = get_u32(buf, pos)? as usize;
        let delta = buf.get(*pos..pos.checked_add(delta_len)?)?.to_vec();
        *pos += delta_len;
        let prometheus = get_str(buf, pos)?;
        (*pos == buf.len()).then_some(TelemetryDelta {
            seq,
            dropped,
            journal,
            delta,
            prometheus,
        })
    }
}

/// `JournalQuery` payload: a one-shot request for journal entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalQuery {
    /// Return entries with `seq >= since_seq`.
    pub since_seq: u64,
    /// Minimum severity.
    pub min_severity: crate::journal::Severity,
    /// At most this many entries, newest kept (0 = no limit; the daemon
    /// still caps replies to fit a frame).
    pub limit: u32,
}

impl JournalQuery {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_u64(&mut w, self.since_seq);
        put_u8(&mut w, self.min_severity.as_u8());
        put_u32(&mut w, self.limit);
        w
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<JournalQuery> {
        let pos = &mut 0;
        let since_seq = get_u64(buf, pos)?;
        let min_severity = crate::journal::Severity::from_u8(get_u8(buf, pos)?)?;
        let limit = get_u32(buf, pos)?;
        (*pos == buf.len()).then_some(JournalQuery {
            since_seq,
            min_severity,
            limit,
        })
    }
}

/// `JournalReply` payload: the daemon's answer to a [`JournalQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReply {
    /// The sequence number the next journal entry will get — poll from
    /// here to tail the journal without missing or repeating entries.
    pub next_seq: u64,
    /// Oldest sequence number still in the ring; a query older than this
    /// lost `first_seq - since_seq` entries to eviction.
    pub first_seq: u64,
    /// Matching entries, oldest first.
    pub entries: Vec<crate::journal::JournalEntry>,
}

impl JournalReply {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        put_u64(&mut w, self.next_seq);
        put_u64(&mut w, self.first_seq);
        put_u32(&mut w, self.entries.len() as u32);
        for entry in &self.entries {
            entry.encode_into(&mut w);
        }
        w
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<JournalReply> {
        let pos = &mut 0;
        let next_seq = get_u64(buf, pos)?;
        let first_seq = get_u64(buf, pos)?;
        let entries = get_vec(buf, pos, 18, crate::journal::JournalEntry::decode_from)?;
        (*pos == buf.len()).then_some(JournalReply {
            next_seq,
            first_seq,
            entries,
        })
    }
}

/// Encodes an axis.
fn encode_axis(w: &mut Vec<u8>, axis: &Axis) {
    match axis {
        Axis::Threshold {
            counter,
            occurrence,
            values,
        } => {
            put_u8(w, 0);
            put_str(w, counter);
            match occurrence {
                None => put_u8(w, 0),
                Some(n) => {
                    put_u8(w, 1);
                    put_u64(w, *n as u64);
                }
            }
            put_u32(w, values.len() as u32);
            for v in values {
                put_u64(w, *v as u64);
            }
        }
        Axis::DelayNs { values } => {
            put_u8(w, 1);
            put_u32(w, values.len() as u32);
            for v in values {
                put_u64(w, *v);
            }
        }
        Axis::Seed { values } => {
            put_u8(w, 2);
            put_u32(w, values.len() as u32);
            for v in values {
                put_u64(w, *v);
            }
        }
        Axis::Impairment { values } => {
            put_u8(w, 3);
            put_u32(w, values.len() as u32);
            for v in values {
                encode_impairment(w, v);
            }
        }
    }
}

/// Decodes an axis.
fn decode_axis(buf: &[u8], pos: &mut usize) -> Option<Axis> {
    Some(match get_u8(buf, pos)? {
        0 => {
            let counter = get_str(buf, pos)?;
            let occurrence = match get_u8(buf, pos)? {
                0 => None,
                1 => Some(get_u64(buf, pos)? as usize),
                _ => return None,
            };
            let values = get_vec(buf, pos, 8, |b, p| Some(get_u64(b, p)? as i64))?;
            Axis::Threshold {
                counter,
                occurrence,
                values,
            }
        }
        1 => Axis::DelayNs {
            values: get_vec(buf, pos, 8, get_u64)?,
        },
        2 => Axis::Seed {
            values: get_vec(buf, pos, 8, get_u64)?,
        },
        3 => Axis::Impairment {
            values: get_vec(buf, pos, 48, decode_impairment)?,
        },
        _ => return None,
    })
}

fn encode_run_config(w: &mut Vec<u8>, run: &RunConfig) {
    put_u64(w, run.seed);
    encode_impairment(w, &run.impairment);
}

fn decode_run_config(buf: &[u8], pos: &mut usize) -> Option<RunConfig> {
    Some(RunConfig {
        seed: get_u64(buf, pos)?,
        impairment: decode_impairment(buf, pos)?,
    })
}

fn encode_impairment(w: &mut Vec<u8>, imp: &ControlImpairment) {
    put_u64(w, imp.drop.to_bits());
    put_u64(w, imp.dup.to_bits());
    put_u64(w, imp.reorder.to_bits());
    put_u64(w, imp.delay.to_bits());
    put_u64(w, imp.delay_ns);
    put_u64(w, imp.reorder_window_ns);
}

fn decode_impairment(buf: &[u8], pos: &mut usize) -> Option<ControlImpairment> {
    Some(ControlImpairment {
        drop: f64::from_bits(get_u64(buf, pos)?),
        dup: f64::from_bits(get_u64(buf, pos)?),
        reorder: f64::from_bits(get_u64(buf, pos)?),
        delay: f64::from_bits(get_u64(buf, pos)?),
        delay_ns: get_u64(buf, pos)?,
        reorder_window_ns: get_u64(buf, pos)?,
    })
}

/// Packs the key's flags into one byte, bit order matching field order.
fn encode_key(key: &DigestKey) -> u8 {
    // Exhaustive destructuring: a new DigestKey field fails to compile
    // here, forcing the wire format to take a position on it.
    let DigestKey {
        errors,
        stop,
        counters,
        stats,
        metrics,
        conformance,
        durations,
    } = *key;
    u8::from(errors)
        | u8::from(stop) << 1
        | u8::from(counters) << 2
        | u8::from(stats) << 3
        | u8::from(metrics) << 4
        | u8::from(conformance) << 5
        | u8::from(durations) << 6
}

fn decode_key(bits: u8) -> Option<DigestKey> {
    (bits < 0x80).then_some(DigestKey {
        errors: bits & 0x01 != 0,
        stop: bits & 0x02 != 0,
        counters: bits & 0x04 != 0,
        stats: bits & 0x08 != 0,
        metrics: bits & 0x10 != 0,
        conformance: bits & 0x20 != 0,
        durations: bits & 0x40 != 0,
    })
}

/// Encodes one `(outcome, wall_ns)` pair — the checkpoint log's and the
/// result store's unit of persistence.
pub fn encode_timed_outcome(w: &mut Vec<u8>, outcome: &InstanceOutcome, wall_ns: u64) {
    put_u64(w, wall_ns);
    match outcome {
        InstanceOutcome::Completed(d) => {
            put_u8(w, 0);
            encode_digest(w, d);
        }
        InstanceOutcome::Invalid(m) => {
            put_u8(w, 1);
            put_str(w, m);
        }
        InstanceOutcome::SetupFailed(m) => {
            put_u8(w, 2);
            put_str(w, m);
        }
        InstanceOutcome::Crashed(m) => {
            put_u8(w, 3);
            put_str(w, m);
        }
    }
}

/// Decodes one `(outcome, wall_ns)` pair.
pub fn decode_timed_outcome(buf: &[u8], pos: &mut usize) -> Option<(InstanceOutcome, u64)> {
    let wall_ns = get_u64(buf, pos)?;
    let outcome = match get_u8(buf, pos)? {
        0 => InstanceOutcome::Completed(decode_digest(buf, pos)?),
        1 => InstanceOutcome::Invalid(get_str(buf, pos)?),
        2 => InstanceOutcome::SetupFailed(get_str(buf, pos)?),
        3 => InstanceOutcome::Crashed(get_str(buf, pos)?),
        _ => return None,
    };
    Some((outcome, wall_ns))
}

fn encode_digest(w: &mut Vec<u8>, d: &OutcomeDigest) {
    put_u8(w, u8::from(d.passed));
    put_str(w, &d.stop);
    put_u32(w, d.errors.len() as u32);
    for (node, message) in &d.errors {
        put_str(w, node);
        put_str(w, message);
    }
    put_u32(w, d.counters.len() as u32);
    for (node, counter, value) in &d.counters {
        put_str(w, node);
        put_str(w, counter);
        put_u64(w, *value as u64);
    }
    put_u32(w, d.stats.len() as u32);
    for (node, stats) in &d.stats {
        put_str(w, node);
        encode_engine_stats(w, stats);
    }
    put_u32(w, d.metrics.counters.len() as u32);
    for (name, value) in &d.metrics.counters {
        put_str(w, name);
        put_u64(w, *value);
    }
    put_u32(w, d.metrics.histograms.len() as u32);
    for (name, h) in &d.metrics.histograms {
        put_str(w, name);
        h.encode_into(w);
    }
    put_u32(w, d.conformance.len() as u32);
    for (model, node, verdict) in &d.conformance {
        put_str(w, model);
        put_str(w, node);
        put_str(w, verdict);
    }
}

fn decode_digest(buf: &[u8], pos: &mut usize) -> Option<OutcomeDigest> {
    let passed = match get_u8(buf, pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let stop = get_str(buf, pos)?;
    let errors = get_vec(buf, pos, 8, |b, p| Some((get_str(b, p)?, get_str(b, p)?)))?;
    let counters = get_vec(buf, pos, 16, |b, p| {
        Some((get_str(b, p)?, get_str(b, p)?, get_u64(b, p)? as i64))
    })?;
    let stats = get_vec(buf, pos, 8, |b, p| {
        Some((get_str(b, p)?, decode_engine_stats(b, p)?))
    })?;
    let m_counters = get_vec(buf, pos, 12, |b, p| Some((get_str(b, p)?, get_u64(b, p)?)))?;
    let m_histograms = get_vec(buf, pos, 8, |b, p| {
        Some((get_str(b, p)?, Histogram::decode_from(b, p)?))
    })?;
    let conformance = get_vec(buf, pos, 12, |b, p| {
        Some((get_str(b, p)?, get_str(b, p)?, get_str(b, p)?))
    })?;
    Some(OutcomeDigest {
        passed,
        stop,
        errors,
        counters,
        stats,
        metrics: MetricsDigest {
            counters: m_counters,
            histograms: m_histograms,
        },
        conformance,
    })
}

// One `u64` per field, in `EngineStats::fields` order.
fn encode_engine_stats(w: &mut Vec<u8>, stats: &EngineStats) {
    for (_, value, _) in stats.fields() {
        put_u64(w, value);
    }
}

fn decode_engine_stats(buf: &[u8], pos: &mut usize) -> Option<EngineStats> {
    EngineStats::from_values(std::iter::from_fn(|| get_u64(buf, pos)))
}

// ---- little-endian primitive helpers ----

pub(crate) fn put_u8(w: &mut Vec<u8>, v: u8) {
    w.push(v);
}

pub(crate) fn put_u16(w: &mut Vec<u8>, v: u16) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(w: &mut Vec<u8>, s: &str) {
    put_u32(w, s.len() as u32);
    w.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let v = *buf.get(*pos)?;
    *pos += 1;
    Some(v)
}

pub(crate) fn get_u16(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let bytes = buf.get(*pos..*pos + 2)?;
    *pos += 2;
    Some(u16::from_le_bytes(bytes.try_into().unwrap()))
}

pub(crate) fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes.try_into().unwrap()))
}

pub(crate) fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

pub(crate) fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_u32(buf, pos)? as usize;
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Length-prefixed vector decode with a per-element minimum size, so a
/// corrupt count can't trigger a huge allocation before the buffer runs
/// dry.
fn get_vec<T>(
    buf: &[u8],
    pos: &mut usize,
    min_elem: usize,
    mut elem: impl FnMut(&[u8], &mut usize) -> Option<T>,
) -> Option<Vec<T>> {
    let n = get_u32(buf, pos)? as usize;
    if n.checked_mul(min_elem.max(1))? > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(elem(buf, pos)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_submission() -> Submission {
        Submission {
            campaign: "udp-sweep".into(),
            program: "SCENARIO X 1sec\nEND".into(),
            setup: "udp_flood".into(),
            axes: vec![
                Axis::threshold_at("Sent", 1, vec![-3, 5, 40]),
                Axis::delay_ns(vec![0, 1_000_000]),
                Axis::seeds(vec![1, 2, 3]),
                Axis::impairments(vec![
                    ControlImpairment::none(),
                    ControlImpairment::dropping(0.25),
                ]),
            ],
            defaults: RunConfig {
                seed: 7,
                impairment: ControlImpairment::none(),
            },
            sampling: Sampling::Random {
                budget: 10,
                seed: 0xFEED,
            },
            key: DigestKey {
                metrics: true,
                ..DigestKey::default()
            },
            deadline_ns: 2_000_000_000,
            shard_size: 4,
        }
    }

    pub(crate) fn sample_digest() -> OutcomeDigest {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(70_000);
        OutcomeDigest {
            passed: false,
            stop: "inactivity timeout".into(),
            errors: vec![("node1".into(), "double fault".into())],
            counters: vec![("node2".into(), "Rcvd".into(), -28)],
            stats: vec![(
                "node1".into(),
                EngineStats {
                    classified: 123,
                    max_cascade_depth: 4,
                    ..EngineStats::default()
                },
            )],
            metrics: MetricsDigest {
                counters: vec![("drops".into(), 2)],
                histograms: vec![("cascade_depth".into(), h)],
            },
            conformance: vec![("tcp".into(), "node1".into(), "ok".into())],
        }
    }

    #[test]
    fn submission_round_trips() {
        let sub = sample_submission();
        let bytes = sub.encode();
        assert_eq!(Submission::decode(&bytes), Some(sub));
        // Trailing garbage is rejected (strict framing).
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(Submission::decode(&extra), None);
    }

    #[test]
    fn submission_truncation_never_panics() {
        let bytes = sample_submission().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Submission::decode(&bytes[..cut]),
                None,
                "truncated at {cut}/{}",
                bytes.len()
            );
        }
    }

    fn sample_telemetry_delta() -> TelemetryDelta {
        use crate::journal::{JournalEntry, JournalEvent, Severity};
        let mut reg = vw_obs::MetricsRegistry::new();
        reg.add_counter("serve.instances_completed", 16);
        reg.set_gauge("serve.workers_busy", 2);
        reg.observe("serve.instance_wall_ns", 1_500_000);
        TelemetryDelta {
            seq: 3,
            dropped: 1,
            journal: vec![
                JournalEntry {
                    seq: 10,
                    t_ms: 1234,
                    severity: Severity::Info,
                    event: JournalEvent::CampaignSubmitted {
                        campaign: "sweep".into(),
                        total: 16,
                    },
                },
                JournalEntry {
                    seq: 11,
                    t_ms: 1300,
                    severity: Severity::Warn,
                    event: JournalEvent::CampaignPaused {
                        campaign: "sweep".into(),
                    },
                },
            ],
            delta: reg.encode_delta_from(&vw_obs::MetricsRegistry::new()),
            prometheus: "# TYPE x counter\nx 1\n".into(),
        }
    }

    #[test]
    fn subscribe_round_trips_and_rejects_garbage() {
        use crate::journal::Severity;
        let sub = Subscribe {
            interval_ms: 250,
            prometheus_text: true,
            campaign: "sweep".into(),
            journal_min_severity: Severity::Warn,
        };
        let bytes = sub.encode();
        assert_eq!(Subscribe::decode(&bytes), Some(sub.clone()));
        for cut in 0..bytes.len() {
            assert_eq!(Subscribe::decode(&bytes[..cut]), None, "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(Subscribe::decode(&extra), None);
        // Non-boolean prometheus flag and bad severity are typed rejections.
        let mut bad_flag = bytes.clone();
        bad_flag[4] = 2;
        assert_eq!(Subscribe::decode(&bad_flag), None);
        let mut bad_sev = bytes.clone();
        *bad_sev.last_mut().unwrap() = 9;
        assert_eq!(Subscribe::decode(&bad_sev), None);
    }

    #[test]
    fn telemetry_delta_round_trips() {
        let delta = sample_telemetry_delta();
        let bytes = delta.encode();
        let back = TelemetryDelta::decode(&bytes).expect("decodes");
        assert_eq!(back, delta);
        // The embedded registry delta still applies.
        let mut reg = vw_obs::MetricsRegistry::new();
        reg.apply_delta(&back.delta).expect("applies");
        assert_eq!(reg.counter("serve.instances_completed"), Some(16));
        for cut in 0..bytes.len() {
            assert_eq!(TelemetryDelta::decode(&bytes[..cut]), None, "cut {cut}");
        }
        let mut extra = bytes;
        extra.push(0);
        assert_eq!(TelemetryDelta::decode(&extra), None);
    }

    #[test]
    fn journal_query_and_reply_round_trip() {
        use crate::journal::Severity;
        let query = JournalQuery {
            since_seq: 42,
            min_severity: Severity::Error,
            limit: 100,
        };
        let bytes = query.encode();
        assert_eq!(JournalQuery::decode(&bytes), Some(query));
        for cut in 0..bytes.len() {
            assert_eq!(JournalQuery::decode(&bytes[..cut]), None, "cut {cut}");
        }

        let reply = JournalReply {
            next_seq: 12,
            first_seq: 3,
            entries: sample_telemetry_delta().journal,
        };
        let bytes = reply.encode();
        assert_eq!(JournalReply::decode(&bytes), Some(reply.clone()));
        for cut in 0..bytes.len() {
            assert_eq!(JournalReply::decode(&bytes[..cut]), None, "cut {cut}");
        }
        // A corrupt entry count can't drive a huge allocation.
        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(JournalReply::decode(&bad), None);
    }

    #[test]
    fn timed_outcomes_round_trip_every_variant() {
        let variants = vec![
            (InstanceOutcome::Completed(sample_digest()), 123_456u64),
            (InstanceOutcome::Invalid("no scenario".into()), 0),
            (InstanceOutcome::SetupFailed("node1 missing".into()), 9),
            (InstanceOutcome::Crashed("probe seed 3".into()), u64::MAX),
        ];
        for (outcome, wall_ns) in variants {
            let mut w = Vec::new();
            encode_timed_outcome(&mut w, &outcome, wall_ns);
            let pos = &mut 0;
            let decoded = decode_timed_outcome(&w, pos).expect("round trip");
            assert_eq!(decoded, (outcome, wall_ns));
            assert_eq!(*pos, w.len());
        }
    }

    #[test]
    fn error_and_outcome_payloads_round_trip() {
        let bytes = encode_error(ErrorCode::QuotaExceeded, "limit 4");
        assert_eq!(
            decode_error(&bytes),
            Some((ErrorCode::QuotaExceeded, "limit 4".into()))
        );
        let bytes = encode_outcome_line(42, "{\"instance\":42}");
        assert_eq!(
            decode_outcome_line(&bytes),
            Some((42, "{\"instance\":42}".into()))
        );
        let acc = Accepted {
            campaign: "c".into(),
            total: 100,
            shards: 13,
            already_done: 24,
        };
        assert_eq!(Accepted::decode(&acc.encode()), Some(acc));
    }

    #[test]
    fn digest_key_bits_round_trip_all_combinations() {
        for bits in 0u8..0x80 {
            let key = decode_key(bits).unwrap();
            assert_eq!(encode_key(&key), bits);
        }
        assert_eq!(decode_key(0x80), None);
    }
}

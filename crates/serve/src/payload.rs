//! Binary payload codecs for the frame types in [`frame`](crate::frame).
//!
//! Little-endian through [`vw_packet::codec`] (the vendored `serde` stub
//! cannot serialize); this format's own rules are `u32` length and count
//! prefixes and "a payload is exactly one value". Every decoder is total:
//! truncated or inconsistent bytes yield `None`, never a panic — the
//! robustness corpus drives each one through its truncation points.
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
use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;

use crate::journal::{JournalEntry, Severity};

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
    /// Requested size of every shard after the one-instance first
    /// ([`vw_campaign::ShardPlan`]; `0` = daemon default). Part of the
    /// submission so a resumed campaign re-partitions identically.
    pub shard_size: u32,
}

/// Builds one payload: `fill` writes it little-endian.
fn write_payload(fill: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::new();
    fill(&mut Writer::le(&mut out));
    out
}

/// Decodes a payload that must be exactly one value.
fn read_payload<'a, T>(
    buf: &'a [u8],
    value: impl FnOnce(&mut Reader<'a>) -> Result<T, ParseError>,
) -> Option<T> {
    Reader::le(buf).whole(value).ok()
}

/// The error for a discriminant outside its enum.
fn bad(what: &str) -> ParseError {
    ParseError::new(format!("bad {what}"))
}

impl Submission {
    /// Encodes the submission payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.str32(&self.campaign);
            w.str32(&self.program);
            w.str32(&self.setup);
            w.list32(&self.axes, encode_axis);
            encode_run_config(w, &self.defaults);
            match self.sampling {
                Sampling::Exhaustive => w.u8(0),
                Sampling::Random { budget, seed } => {
                    w.u8(1);
                    w.u64(budget as u64);
                    w.u64(seed);
                }
            }
            w.u8(encode_key(&self.key));
            w.u64(self.deadline_ns);
            w.u32(self.shard_size);
        })
    }

    /// Decodes a submission payload.
    pub fn decode(buf: &[u8]) -> Option<Submission> {
        read_payload(buf, |r| {
            Ok(Submission {
                campaign: r.str32()?,
                program: r.str32()?,
                setup: r.str32()?,
                // The smallest axis is a tag and an empty value list.
                axes: r.list32(5, decode_axis)?,
                defaults: decode_run_config(r)?,
                sampling: match r.u8()? {
                    0 => Sampling::Exhaustive,
                    1 => Sampling::Random {
                        budget: r.u64()? as usize,
                        seed: r.u64()?,
                    },
                    _ => return Err(bad("sampling tag")),
                },
                key: decode_key(r.u8()?).ok_or_else(|| bad("digest key"))?,
                deadline_ns: r.u64()?,
                shard_size: r.u32()?,
            })
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
    /// Shard count of the campaign's [`vw_campaign::ShardPlan`]: the
    /// one-instance first shard, then shards of the effective size.
    pub shards: u64,
    /// Instances already final (non-zero when attaching to a resumed or
    /// running campaign).
    pub already_done: u64,
}

impl Accepted {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.str32(&self.campaign);
            w.u64(self.total);
            w.u64(self.shards);
            w.u64(self.already_done);
        })
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<Accepted> {
        read_payload(buf, |r| {
            Ok(Accepted {
                campaign: r.str32()?,
                total: r.u64()?,
                shards: r.u64()?,
                already_done: r.u64()?,
            })
        })
    }
}

/// Encodes a payload that is one string: `Attach`'s campaign name,
/// `StatsReply`'s Prometheus text.
pub fn encode_text(text: &str) -> Vec<u8> {
    write_payload(|w| w.str32(text))
}

/// Decodes a one-string payload.
pub fn decode_text(buf: &[u8]) -> Option<String> {
    read_payload(buf, Reader::str32)
}

/// Encodes an `Error` payload (code + message).
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    write_payload(|w| {
        w.u16(code.as_u16());
        w.str32(message);
    })
}

/// Decodes an `Error` payload.
pub fn decode_error(buf: &[u8]) -> Option<(ErrorCode, String)> {
    read_payload(buf, |r| {
        let code = ErrorCode::from_u16(r.u16()?).ok_or_else(|| bad("error code"))?;
        Ok((code, r.str32()?))
    })
}

/// Encodes an `Outcome` payload: instance index + rendered JSONL line.
pub fn encode_outcome_line(instance: u64, line: &str) -> Vec<u8> {
    write_payload(|w| {
        w.u64(instance);
        w.str32(line);
    })
}

/// Decodes an `Outcome` payload.
pub fn decode_outcome_line(buf: &[u8]) -> Option<(u64, String)> {
    read_payload(buf, |r| Ok((r.u64()?, r.str32()?)))
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
    pub journal_min_severity: Severity,
}

impl Subscribe {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.u32(self.interval_ms);
            w.bool(self.prometheus_text);
            w.str32(&self.campaign);
            w.u8(self.journal_min_severity.as_u8());
        })
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<Subscribe> {
        read_payload(buf, |r| {
            Ok(Subscribe {
                interval_ms: r.u32()?,
                prometheus_text: r.bool()?,
                campaign: r.str32()?,
                journal_min_severity: Severity::decode_from(r)?,
            })
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
    pub journal: Vec<JournalEntry>,
    /// Binary registry delta
    /// ([`MetricsRegistry::encode_delta_from`](vw_obs::MetricsRegistry::encode_delta_from))
    /// against the last *delivered* tick; apply in order with
    /// [`MetricsRegistry::apply_delta`](vw_obs::MetricsRegistry::apply_delta).
    pub delta: Vec<u8>,
    /// Full Prometheus text, present only when the subscription asked
    /// for it.
    pub prometheus: String,
}

/// A journal entry's smallest encoding: seq + t_ms + severity + kind.
const MIN_JOURNAL_ENTRY: usize = 18;

/// A digest `stats` entry's smallest encoding: an empty node name plus
/// one `u64` per [`EngineStats`] field.
const MIN_STATS_ENTRY: usize = 4 + 8 * EngineStats::FIELDS;

/// A digest metrics-histogram entry's smallest encoding: an empty name
/// plus the histogram's fixed prefix (count, sum, min, max and the
/// bucket count).
const MIN_HISTOGRAM_ENTRY: usize = 4 + 8 + 16 + 8 + 8 + 1;

impl TelemetryDelta {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.u64(self.seq);
            w.u64(self.dropped);
            w.list32(&self.journal, |w, entry| entry.encode_into(w));
            w.bytes32(&self.delta);
            w.str32(&self.prometheus);
        })
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<TelemetryDelta> {
        read_payload(buf, |r| {
            Ok(TelemetryDelta {
                seq: r.u64()?,
                dropped: r.u64()?,
                journal: r.list32(MIN_JOURNAL_ENTRY, JournalEntry::decode_from)?,
                delta: r.bytes32()?.to_vec(),
                prometheus: r.str32()?,
            })
        })
    }
}

/// `JournalQuery` payload: a one-shot request for journal entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalQuery {
    /// Return entries with `seq >= since_seq`.
    pub since_seq: u64,
    /// Minimum severity.
    pub min_severity: Severity,
    /// At most this many entries, newest kept (0 = no limit; the daemon
    /// still caps replies to fit a frame).
    pub limit: u32,
}

impl JournalQuery {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.u64(self.since_seq);
            w.u8(self.min_severity.as_u8());
            w.u32(self.limit);
        })
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<JournalQuery> {
        read_payload(buf, |r| {
            Ok(JournalQuery {
                since_seq: r.u64()?,
                min_severity: Severity::decode_from(r)?,
                limit: r.u32()?,
            })
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
    pub entries: Vec<JournalEntry>,
}

impl JournalReply {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        write_payload(|w| {
            w.u64(self.next_seq);
            w.u64(self.first_seq);
            w.list32(&self.entries, |w, entry| entry.encode_into(w));
        })
    }

    /// Decodes the payload.
    pub fn decode(buf: &[u8]) -> Option<JournalReply> {
        read_payload(buf, |r| {
            Ok(JournalReply {
                next_seq: r.u64()?,
                first_seq: r.u64()?,
                entries: r.list32(MIN_JOURNAL_ENTRY, JournalEntry::decode_from)?,
            })
        })
    }
}

fn encode_axis(w: &mut Writer<'_>, axis: &Axis) {
    match axis {
        Axis::Threshold {
            counter,
            occurrence,
            values,
        } => {
            w.u8(0);
            w.str32(counter);
            w.opt(*occurrence, |w, n| w.u64(n as u64));
            w.list32(values, |w, v| w.i64(*v));
        }
        Axis::DelayNs { values } => {
            w.u8(1);
            w.list32(values, |w, v| w.u64(*v));
        }
        Axis::Seed { values } => {
            w.u8(2);
            w.list32(values, |w, v| w.u64(*v));
        }
        Axis::Impairment { values } => {
            w.u8(3);
            w.list32(values, encode_impairment);
        }
    }
}

fn decode_axis(r: &mut Reader<'_>) -> Result<Axis, ParseError> {
    Ok(match r.u8()? {
        0 => Axis::Threshold {
            counter: r.str32()?,
            occurrence: r.opt(|r| Ok(r.u64()? as usize))?,
            values: r.list32(8, Reader::i64)?,
        },
        1 => Axis::DelayNs {
            values: r.list32(8, Reader::u64)?,
        },
        2 => Axis::Seed {
            values: r.list32(8, Reader::u64)?,
        },
        3 => Axis::Impairment {
            values: r.list32(48, decode_impairment)?,
        },
        _ => return Err(bad("axis tag")),
    })
}

fn encode_run_config(w: &mut Writer<'_>, run: &RunConfig) {
    w.u64(run.seed);
    encode_impairment(w, &run.impairment);
}

fn decode_run_config(r: &mut Reader<'_>) -> Result<RunConfig, ParseError> {
    Ok(RunConfig {
        seed: r.u64()?,
        impairment: decode_impairment(r)?,
    })
}

fn encode_impairment(w: &mut Writer<'_>, imp: &ControlImpairment) {
    w.u64(imp.drop.to_bits());
    w.u64(imp.dup.to_bits());
    w.u64(imp.reorder.to_bits());
    w.u64(imp.delay.to_bits());
    w.u64(imp.delay_ns);
    w.u64(imp.reorder_window_ns);
}

fn decode_impairment(r: &mut Reader<'_>) -> Result<ControlImpairment, ParseError> {
    Ok(ControlImpairment {
        drop: f64::from_bits(r.u64()?),
        dup: f64::from_bits(r.u64()?),
        reorder: f64::from_bits(r.u64()?),
        delay: f64::from_bits(r.u64()?),
        delay_ns: r.u64()?,
        reorder_window_ns: r.u64()?,
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
pub fn encode_timed_outcome(w: &mut Writer<'_>, (outcome, wall_ns): &(InstanceOutcome, u64)) {
    w.u64(*wall_ns);
    match outcome {
        InstanceOutcome::Completed(d) => {
            w.u8(0);
            encode_digest(w, d);
        }
        InstanceOutcome::Invalid(m) => {
            w.u8(1);
            w.str32(m);
        }
        InstanceOutcome::SetupFailed(m) => {
            w.u8(2);
            w.str32(m);
        }
        InstanceOutcome::Crashed(m) => {
            w.u8(3);
            w.str32(m);
        }
    }
}

/// Decodes one `(outcome, wall_ns)` pair.
pub fn decode_timed_outcome(r: &mut Reader<'_>) -> Result<(InstanceOutcome, u64), ParseError> {
    let wall_ns = r.u64()?;
    let outcome = match r.u8()? {
        0 => InstanceOutcome::Completed(decode_digest(r)?),
        1 => InstanceOutcome::Invalid(r.str32()?),
        2 => InstanceOutcome::SetupFailed(r.str32()?),
        3 => InstanceOutcome::Crashed(r.str32()?),
        _ => return Err(bad("outcome tag")),
    };
    Ok((outcome, wall_ns))
}

fn encode_digest(w: &mut Writer<'_>, d: &OutcomeDigest) {
    w.bool(d.passed);
    w.str32(&d.stop);
    w.list32(&d.errors, |w, (node, message)| {
        w.str32(node);
        w.str32(message);
    });
    w.list32(&d.counters, |w, (node, counter, value)| {
        w.str32(node);
        w.str32(counter);
        w.i64(*value);
    });
    w.list32(&d.stats, |w, (node, stats)| {
        w.str32(node);
        // One `u64` per field, in `EngineStats::fields` order.
        for (_, value, _) in stats.fields() {
            w.u64(value);
        }
    });
    w.list32(&d.metrics.counters, |w, (name, value)| {
        w.str32(name);
        w.u64(*value);
    });
    w.list32(&d.metrics.histograms, |w, (name, h)| {
        w.str32(name);
        h.encode_into(w);
    });
    w.list32(&d.conformance, |w, (model, node, verdict)| {
        w.str32(model);
        w.str32(node);
        w.str32(verdict);
    });
}

// Each `list32` minimum counts the element's empty strings' prefixes
// plus its fixed-width fields.
fn decode_digest(r: &mut Reader<'_>) -> Result<OutcomeDigest, ParseError> {
    Ok(OutcomeDigest {
        passed: r.bool()?,
        stop: r.str32()?,
        errors: r.list32(8, |r| Ok((r.str32()?, r.str32()?)))?,
        counters: r.list32(16, |r| Ok((r.str32()?, r.str32()?, r.i64()?)))?,
        stats: r.list32(MIN_STATS_ENTRY, |r| {
            let node = r.str32()?;
            let stats = EngineStats::from_values(std::iter::from_fn(|| r.u64().ok()));
            Ok((node, stats.ok_or_else(|| bad("engine stats"))?))
        })?,
        metrics: MetricsDigest {
            counters: r.list32(12, |r| Ok((r.str32()?.into(), r.u64()?)))?,
            histograms: r.list32(MIN_HISTOGRAM_ENTRY, |r| {
                Ok((r.str32()?.into(), Histogram::decode_from(r)?))
            })?,
        },
        conformance: r.list32(12, |r| Ok((r.str32()?, r.str32()?, r.str32()?)))?,
    })
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
        for timed in variants {
            let bytes = write_payload(|w| encode_timed_outcome(w, &timed));
            assert_eq!(read_payload(&bytes, decode_timed_outcome), Some(timed));
        }
    }

    /// A finished report carrying a value in every field a digest keeps:
    /// an error, counters, stats, filled histograms and one passing and
    /// one failing conformance record.
    fn rich_report() -> virtualwire::Report {
        use virtualwire::{ConformanceRecord, FlaggedError, NodeDistributions, StopReason};

        let symbols = virtualwire::compile_script(
            "FILTER_TABLE
            p: (12 2 0x4242)
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 10.0.0.1
            node2 02:00:00:00:00:02 10.0.0.2
            END
            SCENARIO rich 100msec
            Rcvd: (p, node1, node2, RECV)
            ((Rcvd = 3)) >> STOP;
            END",
        )
        .expect("compiles");
        let mut cascade_depth = Histogram::new();
        cascade_depth.observe(2);
        cascade_depth.observe(5);
        let mut classify_to_action_ns = Histogram::new();
        classify_to_action_ns.observe(1_500);
        let stats = EngineStats {
            classified: 40,
            drops: 2,
            dups: 1,
            control_retransmits: 3,
            ..EngineStats::default()
        };
        virtualwire::Report {
            stop: StopReason::StopAction("ring \"healed\"".into()),
            errors: vec![FlaggedError {
                node: vw_fsl::NodeId(1),
                node_name: "node2".into(),
                condition: None,
                message: "token lost twice".into(),
                time: vw_netsim::SimTime::from_nanos(9_000),
            }],
            counters: vec![
                ("node2".into(), "Rcvd".into(), 3),
                ("node1".into(), "Sent".into(), -4),
            ],
            duration: vw_netsim::SimDuration::from_millis(3),
            stats: vec![("node1".into(), stats), ("node2".into(), stats)],
            events: Vec::new(),
            symbols,
            distributions: vec![
                NodeDistributions {
                    filter_hits: vec![7],
                    cascade_depth,
                    classify_to_action_ns,
                },
                NodeDistributions::default(),
            ],
            conformance: vec![
                ConformanceRecord {
                    model: "tcp".into(),
                    node: "node1".into(),
                    passed: true,
                    violations: Vec::new(),
                },
                ConformanceRecord {
                    model: "rether".into(),
                    node: "node2".into(),
                    passed: false,
                    violations: vec!["two holders".into(), "token regenerated".into()],
                },
            ],
        }
    }

    #[test]
    fn owned_and_borrowed_digests_agree_in_bytes_and_lines() {
        let report = rich_report();
        let borrowed = OutcomeDigest::from_report(&report);
        let owned = OutcomeDigest::from_owned_report(report);
        assert_eq!(owned, borrowed);
        assert_eq!(owned.errors.len(), 1);
        assert_eq!(owned.metrics.histograms.len(), 2, "both histograms filled");
        assert_eq!(owned.conformance[1].2, "two holders; token regenerated");

        let (owned, borrowed) = (
            (InstanceOutcome::Completed(owned), 77),
            (InstanceOutcome::Completed(borrowed), 77),
        );
        let bytes = write_payload(|w| encode_timed_outcome(w, &owned));
        assert_eq!(bytes, write_payload(|w| encode_timed_outcome(w, &borrowed)));

        let key = DigestKey {
            stats: true,
            metrics: true,
            conformance: true,
            ..DigestKey::default()
        };
        let labels = vec![("seed".into(), "1".into())];
        let line = vw_campaign::instance_jsonl_line(3, &labels, &owned.0, &key);
        assert_eq!(
            line,
            vw_campaign::instance_jsonl_line(3, &labels, &borrowed.0, &key)
        );
        let decoded = read_payload(&bytes, decode_timed_outcome).expect("decodes");
        assert_eq!(
            vw_campaign::instance_jsonl_line(3, &labels, &decoded.0, &key),
            line
        );
    }

    /// A completed outcome whose first `empty` digest lists are empty and
    /// whose next list claims `count` entries over `count * 8` zero bytes:
    /// room enough at 8 bytes an entry.
    fn digest_claiming(empty: usize, count: u32) -> Vec<u8> {
        write_payload(|w| {
            w.u64(0);
            w.u8(0);
            w.bool(true);
            w.str32("");
            for _ in 0..empty {
                w.u32(0);
            }
            w.u32(count);
            w.bytes(&vec![0; count as usize * 8]);
        })
    }

    /// The error decoding `bytes` as one timed outcome.
    fn refusal(bytes: &[u8]) -> String {
        let err = Reader::le(bytes)
            .whole(decode_timed_outcome)
            .expect_err("refused");
        err.message().to_string()
    }

    #[test]
    fn a_stats_count_must_fit_at_the_full_entry_size() {
        // Errors and counters come first.
        let err = refusal(&digest_claiming(2, 64));
        assert!(err.contains("cannot fit"), "{err}");
        assert!(
            err.contains(&format!("at least {MIN_STATS_ENTRY} bytes")),
            "{err}"
        );
    }

    #[test]
    fn a_histogram_count_must_fit_at_the_full_entry_size() {
        // Errors, counters, stats and metric counters come first.
        let err = refusal(&digest_claiming(4, 64));
        assert!(err.contains("cannot fit"), "{err}");
        assert!(
            err.contains(&format!("at least {MIN_HISTOGRAM_ENTRY} bytes")),
            "{err}"
        );
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

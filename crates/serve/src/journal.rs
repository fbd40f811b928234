//! Structured daemon journal: typed lifecycle events with severity and
//! monotone sequence numbers.
//!
//! The daemon's stderr was the only record of *why* anything happened —
//! useless to a remote operator and gone on restart. The journal keeps a
//! bounded in-memory ring of typed [`JournalEvent`]s (connection
//! lifecycle, campaign state transitions, quota bounces, stalled
//! workers, frame errors), each stamped with a [`Severity`] and a
//! sequence number that keeps counting across eviction, so a client can
//! ask "everything since seq N" and *know* whether it missed events.
//! The daemon appends every entry's JSONL line to `journal.jsonl` in its
//! state directory for post-mortems; that file keeps what the ring evicts.
//!
//! Entries also travel over the wire (inside `TelemetryDelta` and
//! `JournalReply` frames) via an exact binary codec; like every other
//! payload codec in this crate, the decoder is total — truncation or
//! garbage yields `None`, never a panic.

use std::collections::VecDeque;

use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;

/// How loudly a journal entry matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine lifecycle (connections, submissions, checkpoints).
    Info = 0,
    /// Something degraded but self-healing (quota bounce, stall, pause).
    Warn = 1,
    /// A client or frame fault the daemon survived.
    Error = 2,
}

impl Severity {
    /// Wire byte for this severity.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Severity::as_u8`].
    pub fn from_u8(byte: u8) -> Option<Severity> {
        match byte {
            0 => Some(Severity::Info),
            1 => Some(Severity::Warn),
            2 => Some(Severity::Error),
            _ => None,
        }
    }

    /// Reads the one-byte wire form; a byte [`Severity::from_u8`] does
    /// not know is malformed.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Severity, ParseError> {
        Severity::from_u8(r.u8()?).ok_or_else(|| ParseError::new("bad severity"))
    }

    /// Lowercase label (`info` / `warn` / `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One typed daemon lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// A client connection was accepted (connection ordinal).
    ConnAccepted {
        /// Daemon-wide connection ordinal.
        conn: u64,
    },
    /// A client connection closed (either side).
    ConnClosed {
        /// Daemon-wide connection ordinal.
        conn: u64,
    },
    /// A campaign was accepted for execution.
    CampaignSubmitted {
        /// Campaign name.
        campaign: String,
        /// Total instances in the sweep.
        total: u64,
    },
    /// A campaign hit subscriber backpressure and stopped being
    /// scheduled until its outbox drains.
    CampaignPaused {
        /// Campaign name.
        campaign: String,
    },
    /// A paused campaign's outbox drained; scheduling resumed.
    CampaignResumed {
        /// Campaign name.
        campaign: String,
    },
    /// A shard finished and was appended to the checkpoint log.
    CampaignCheckpointed {
        /// Campaign name.
        campaign: String,
        /// Shard ordinal that landed.
        shard: u64,
    },
    /// A campaign completed all instances.
    CampaignDone {
        /// Campaign name.
        campaign: String,
    },
    /// A submission was rejected by quota.
    QuotaBounced {
        /// Campaign name that was rejected.
        campaign: String,
        /// Which quota tripped, e.g. `max_active_campaigns`.
        reason: String,
    },
    /// A worker's shard has been running suspiciously long.
    WorkerStalled {
        /// Worker ordinal.
        worker: u64,
        /// Campaign the slow shard belongs to.
        campaign: String,
        /// How long the shard has been running, milliseconds.
        running_ms: u64,
    },
    /// A connection sent bytes that failed frame decoding.
    FrameError {
        /// Daemon-wide connection ordinal.
        conn: u64,
        /// The typed decode error, rendered.
        detail: String,
    },
}

impl JournalEvent {
    /// Default severity for this event kind.
    pub fn severity(&self) -> Severity {
        match self {
            JournalEvent::ConnAccepted { .. }
            | JournalEvent::ConnClosed { .. }
            | JournalEvent::CampaignSubmitted { .. }
            | JournalEvent::CampaignCheckpointed { .. }
            | JournalEvent::CampaignResumed { .. }
            | JournalEvent::CampaignDone { .. } => Severity::Info,
            JournalEvent::CampaignPaused { .. }
            | JournalEvent::QuotaBounced { .. }
            | JournalEvent::WorkerStalled { .. } => Severity::Warn,
            JournalEvent::FrameError { .. } => Severity::Error,
        }
    }

    /// Stable kind tag (also the wire discriminant index).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::ConnAccepted { .. } => "conn_accepted",
            JournalEvent::ConnClosed { .. } => "conn_closed",
            JournalEvent::CampaignSubmitted { .. } => "campaign_submitted",
            JournalEvent::CampaignPaused { .. } => "campaign_paused",
            JournalEvent::CampaignResumed { .. } => "campaign_resumed",
            JournalEvent::CampaignCheckpointed { .. } => "campaign_checkpointed",
            JournalEvent::CampaignDone { .. } => "campaign_done",
            JournalEvent::QuotaBounced { .. } => "quota_bounced",
            JournalEvent::WorkerStalled { .. } => "worker_stalled",
            JournalEvent::FrameError { .. } => "frame_error",
        }
    }

    /// One-line human rendering (used by `vw-serve top` and the JSONL
    /// sink's `text` field).
    pub fn render(&self) -> String {
        match self {
            JournalEvent::ConnAccepted { conn } => format!("conn #{conn} accepted"),
            JournalEvent::ConnClosed { conn } => format!("conn #{conn} closed"),
            JournalEvent::CampaignSubmitted { campaign, total } => {
                format!("campaign {campaign:?} submitted ({total} instances)")
            }
            JournalEvent::CampaignPaused { campaign } => {
                format!("campaign {campaign:?} paused (subscriber backpressure)")
            }
            JournalEvent::CampaignResumed { campaign } => {
                format!("campaign {campaign:?} resumed")
            }
            JournalEvent::CampaignCheckpointed { campaign, shard } => {
                format!("campaign {campaign:?} checkpointed shard {shard}")
            }
            JournalEvent::CampaignDone { campaign } => format!("campaign {campaign:?} done"),
            JournalEvent::QuotaBounced { campaign, reason } => {
                format!("campaign {campaign:?} bounced by quota: {reason}")
            }
            JournalEvent::WorkerStalled {
                worker,
                campaign,
                running_ms,
            } => format!("worker {worker} stalled on {campaign:?} for {running_ms} ms"),
            JournalEvent::FrameError { conn, detail } => {
                format!("conn #{conn} frame error: {detail}")
            }
        }
    }
}

/// A journal event plus its position and timing in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotone sequence number, never reused, survives ring eviction.
    pub seq: u64,
    /// Milliseconds since the daemon started.
    pub t_ms: u64,
    /// Entry severity.
    pub severity: Severity,
    /// The typed event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// Appends the wire encoding of this entry: `seq u64, t_ms u64,
    /// severity u8, kind u8`, then kind-specific fields (strings as in
    /// [`payload`](crate::payload)).
    pub fn encode_into(&self, w: &mut Writer<'_>) {
        w.u64(self.seq);
        w.u64(self.t_ms);
        w.u8(self.severity.as_u8());
        match &self.event {
            JournalEvent::ConnAccepted { conn } => {
                w.u8(0);
                w.u64(*conn);
            }
            JournalEvent::ConnClosed { conn } => {
                w.u8(1);
                w.u64(*conn);
            }
            JournalEvent::CampaignSubmitted { campaign, total } => {
                w.u8(2);
                w.str32(campaign);
                w.u64(*total);
            }
            JournalEvent::CampaignPaused { campaign } => {
                w.u8(3);
                w.str32(campaign);
            }
            JournalEvent::CampaignResumed { campaign } => {
                w.u8(4);
                w.str32(campaign);
            }
            JournalEvent::CampaignCheckpointed { campaign, shard } => {
                w.u8(5);
                w.str32(campaign);
                w.u64(*shard);
            }
            JournalEvent::CampaignDone { campaign } => {
                w.u8(6);
                w.str32(campaign);
            }
            JournalEvent::QuotaBounced { campaign, reason } => {
                w.u8(7);
                w.str32(campaign);
                w.str32(reason);
            }
            JournalEvent::WorkerStalled {
                worker,
                campaign,
                running_ms,
            } => {
                w.u8(8);
                w.u64(*worker);
                w.str32(campaign);
                w.u64(*running_ms);
            }
            JournalEvent::FrameError { conn, detail } => {
                w.u8(9);
                w.u64(*conn);
                w.str32(detail);
            }
        }
    }

    /// Decodes an entry written by [`JournalEntry::encode_into`].
    ///
    /// # Errors
    ///
    /// On truncation, an unknown kind or an unknown severity.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<JournalEntry, ParseError> {
        let seq = r.u64()?;
        let t_ms = r.u64()?;
        let severity = Severity::decode_from(r)?;
        let event = match r.u8()? {
            0 => JournalEvent::ConnAccepted { conn: r.u64()? },
            1 => JournalEvent::ConnClosed { conn: r.u64()? },
            2 => JournalEvent::CampaignSubmitted {
                campaign: r.str32()?,
                total: r.u64()?,
            },
            3 => JournalEvent::CampaignPaused {
                campaign: r.str32()?,
            },
            4 => JournalEvent::CampaignResumed {
                campaign: r.str32()?,
            },
            5 => JournalEvent::CampaignCheckpointed {
                campaign: r.str32()?,
                shard: r.u64()?,
            },
            6 => JournalEvent::CampaignDone {
                campaign: r.str32()?,
            },
            7 => JournalEvent::QuotaBounced {
                campaign: r.str32()?,
                reason: r.str32()?,
            },
            8 => JournalEvent::WorkerStalled {
                worker: r.u64()?,
                campaign: r.str32()?,
                running_ms: r.u64()?,
            },
            9 => JournalEvent::FrameError {
                conn: r.u64()?,
                detail: r.str32()?,
            },
            kind => return Err(ParseError::new(format!("bad journal kind {kind}"))),
        };
        Ok(JournalEntry {
            seq,
            t_ms,
            severity,
            event,
        })
    }

    /// One JSONL record for this entry (hand-rolled, same dialect as the
    /// campaign JSONL).
    pub fn to_jsonl(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"t_ms\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"text\":",
            self.seq,
            self.t_ms,
            self.severity.as_str(),
            self.event.kind(),
        );
        vw_trace::json_string(&mut line, &self.event.render());
        line.push_str("}\n");
        line
    }
}

/// A bounded ring of journal entries, owned by the daemon's scheduler.
///
/// Sequence numbers are assigned at record time and keep counting as the
/// ring evicts: `first_seq()..next_seq()` is always exactly what a query
/// can still see, so a reader comparing its cursor against `first_seq`
/// knows how many entries it lost. The journal reads no clock: an entry
/// is stamped with the time last given to [`Journal::set_now_ms`].
pub struct Journal {
    ring: VecDeque<JournalEntry>,
    capacity: usize,
    next_seq: u64,
    now_ms: u64,
}

impl Journal {
    /// An in-memory journal holding at most `capacity` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Journal {
        Journal {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next_seq: 0,
            now_ms: 0,
        }
    }

    /// Sets the time, in milliseconds since the daemon started, that
    /// entries recorded from now on carry.
    pub fn set_now_ms(&mut self, now_ms: u64) {
        self.now_ms = now_ms;
    }

    /// Records `event`, assigning the next sequence number. Returns the
    /// entry as recorded.
    pub fn record(&mut self, event: JournalEvent) -> &JournalEntry {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(JournalEntry {
            seq,
            t_ms: self.now_ms,
            severity: event.severity(),
            event,
        });
        &self.ring[self.ring.len() - 1]
    }

    /// The sequence number the next entry will get (equivalently, total
    /// entries ever recorded).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The oldest sequence number still held, or `next_seq` when empty.
    pub fn first_seq(&self) -> u64 {
        self.ring.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Entries with `seq >= since_seq` and `severity >= min_severity`,
    /// oldest first, at most `limit` (0 means no limit). Evicted entries
    /// are silently absent — compare the first returned seq against the
    /// request to detect loss.
    pub fn query(&self, since_seq: u64, min_severity: Severity, limit: usize) -> Vec<JournalEntry> {
        let mut out: Vec<JournalEntry> = self
            .ring
            .iter()
            .filter(|e| e.seq >= since_seq && e.severity >= min_severity)
            .cloned()
            .collect();
        if limit > 0 && out.len() > limit {
            // Keep the *newest* `limit` entries: a tail query wants the
            // most recent picture, not the oldest survivors.
            out.drain(..out.len() - limit);
        }
        out
    }

    /// The newest `n` entries, oldest first.
    pub fn tail(&self, n: usize) -> Vec<JournalEntry> {
        self.query(0, Severity::Info, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(c: u64) -> JournalEvent {
        JournalEvent::ConnAccepted { conn: c }
    }

    #[test]
    fn seq_is_monotone_and_survives_eviction() {
        let mut journal = Journal::new(4);
        for i in 0..10 {
            assert_eq!(journal.record(conn(i)).seq, i);
        }
        assert_eq!(journal.next_seq(), 10);
        // Ring holds the last 4 entries; seq picks up where eviction left.
        assert_eq!(journal.first_seq(), 6);
        let all = journal.query(0, Severity::Info, 0);
        assert_eq!(all.len(), 4);
        let seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "seq continuity broken");
    }

    #[test]
    fn wraparound_preserves_order_and_capacity() {
        let mut journal = Journal::new(3);
        for i in 0..100 {
            journal.record(conn(i));
        }
        let all = journal.tail(10);
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(all.last().unwrap().seq, 99);
    }

    #[test]
    fn query_filters_by_severity_and_since_seq() {
        let mut journal = Journal::new(64);
        journal.record(conn(1)); // seq 0, info
        journal.record(JournalEvent::QuotaBounced {
            campaign: "c".into(),
            reason: "max_active".into(),
        }); // seq 1, warn
        journal.record(JournalEvent::FrameError {
            conn: 1,
            detail: "bad magic".into(),
        }); // seq 2, error
        journal.record(conn(2)); // seq 3, info

        assert_eq!(journal.query(0, Severity::Info, 0).len(), 4);
        let warns = journal.query(0, Severity::Warn, 0);
        assert_eq!(warns.len(), 2);
        assert_eq!(warns[0].seq, 1);
        let errors = journal.query(0, Severity::Error, 0);
        assert_eq!(errors.len(), 1);
        assert!(matches!(errors[0].event, JournalEvent::FrameError { .. }));
        // since_seq is inclusive.
        assert_eq!(journal.query(2, Severity::Info, 0).len(), 2);
        assert_eq!(journal.query(4, Severity::Info, 0).len(), 0);
    }

    #[test]
    fn limit_keeps_the_newest_entries() {
        let mut journal = Journal::new(64);
        for i in 0..10 {
            journal.record(conn(i));
        }
        let tail = journal.query(0, Severity::Info, 3);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn empty_journal_edges() {
        let journal = Journal::new(8);
        assert_eq!(journal.next_seq(), 0);
        assert_eq!(journal.first_seq(), 0);
        assert!(journal.query(0, Severity::Info, 0).is_empty());
        assert!(journal.tail(5).is_empty());
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = vec![
            JournalEvent::ConnAccepted { conn: 7 },
            JournalEvent::ConnClosed { conn: 7 },
            JournalEvent::CampaignSubmitted {
                campaign: "sweep".into(),
                total: 4096,
            },
            JournalEvent::CampaignPaused {
                campaign: "sweep".into(),
            },
            JournalEvent::CampaignResumed {
                campaign: "sweep".into(),
            },
            JournalEvent::CampaignCheckpointed {
                campaign: "sweep".into(),
                shard: 12,
            },
            JournalEvent::CampaignDone {
                campaign: "sweep".into(),
            },
            JournalEvent::QuotaBounced {
                campaign: "other".into(),
                reason: "max_total_instances".into(),
            },
            JournalEvent::WorkerStalled {
                worker: 3,
                campaign: "sweep".into(),
                running_ms: 9000,
            },
            JournalEvent::FrameError {
                conn: 2,
                detail: "bad magic 0xdead".into(),
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let entry = JournalEntry {
                seq: i as u64,
                t_ms: 1000 + i as u64,
                severity: event.severity(),
                event,
            };
            let mut buf = Vec::new();
            entry.encode_into(&mut Writer::le(&mut buf));
            let back = Reader::le(&buf).whole(JournalEntry::decode_from);
            assert_eq!(back, Ok(entry), "strict framing");
            // Truncations are total.
            for cut in 0..buf.len() {
                assert!(JournalEntry::decode_from(&mut Reader::le(&buf[..cut])).is_err());
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_kind_and_severity() {
        let entry = JournalEntry {
            seq: 0,
            t_ms: 0,
            severity: Severity::Info,
            event: JournalEvent::ConnAccepted { conn: 1 },
        };
        let mut buf = Vec::new();
        entry.encode_into(&mut Writer::le(&mut buf));
        let mut bad_kind = buf.clone();
        bad_kind[17] = 0xEE; // kind byte after seq(8) + t_ms(8) + severity(1)
        assert!(JournalEntry::decode_from(&mut Reader::le(&bad_kind)).is_err());
        let mut bad_sev = buf.clone();
        bad_sev[16] = 9;
        assert!(JournalEntry::decode_from(&mut Reader::le(&bad_sev)).is_err());
    }

    #[test]
    fn jsonl_lines_parse_and_escape() {
        let mut journal = Journal::new(8);
        journal.record(JournalEvent::QuotaBounced {
            campaign: "we\"ird".into(),
            reason: "r".into(),
        });
        let entry = &journal.tail(1)[0];
        let line = entry.to_jsonl();
        let doc = vw_trace::Json::parse(line.trim()).expect("parses");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["kind"].as_str().unwrap(), "quota_bounced");
        assert_eq!(obj["severity"].as_str().unwrap(), "warn");
        // render() Debug-quotes the name, so the decoded text holds a
        // literal backslash-escaped quote.
        assert!(obj["text"].as_str().unwrap().contains("we\\\"ird"));
    }

    #[test]
    fn jsonl_text_round_trips_control_characters() {
        // `render()` Debug-quotes the campaign name but prints `reason`
        // and `detail` as they are: only the escaper stands between a
        // control character there and the line.
        let mut journal = Journal::new(8);
        journal.record(JournalEvent::QuotaBounced {
            campaign: "a\tb\r\u{1}".into(),
            reason: "c\td\r\u{1}".into(),
        });
        let entry = &journal.tail(1)[0];
        let line = entry.to_jsonl();
        let record = line.strip_suffix('\n').expect("one record, one line");
        assert!(!record.contains(char::is_control), "{record:?}");
        let doc = vw_trace::Json::parse(record).expect("parses");
        assert_eq!(
            doc.as_obj().unwrap()["text"].as_str().unwrap(),
            entry.event.render()
        );
    }
}

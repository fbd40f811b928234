//! The append-only checkpoint log that lets a killed daemon resume a
//! sweep exactly where it left off.
//!
//! One log per campaign, living under the daemon's state directory as
//! `<name>.vwlog`. Records are appended and synced as shards complete:
//!
//! ```text
//!   [len u32][type u8][crc32 u32][payload; len bytes]
//!
//!   type 1  header    the full Submission (spec re-created on resume)
//!   type 4  shard     shard index + every (outcome, wall_ns) in it
//!   type 3  complete  campaign finished (summary is derivable)
//! ```
//!
//! Shard indices follow [`vw_campaign::ShardPlan`], whose first shard
//! holds one instance. Type 2 was the shard record of the earlier plan of
//! equal shards, whose shard k ≥ 1 has the same length at a different
//! start; a reader takes it for an unknown type and stops there, so such
//! a log resumes from its header and its shards run again.
//!
//! Because shards carry their *full* outcomes — not just watermarks — a
//! resumed daemon never re-runs completed work, and the final report is
//! byte-identical by construction: it is built by the same
//! `CampaignResult::build` over the same per-instance values,
//! whether those values came from execution or from the log. A SIGKILL
//! can leave a torn record at the tail; the reader stops at the first
//! short or CRC-failing record, and the scheduler cuts the log back to
//! the records before it and re-runs that shard.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use vw_campaign::{fnv1a64, InstanceOutcome};
use vw_packet::codec::{Reader, Writer};
use vw_packet::ParseError;

use crate::frame::crc32;
use crate::payload::{decode_timed_outcome, encode_timed_outcome, Submission};

const REC_HEADER: u8 = 1;
const REC_SHARD: u8 = 4;
const REC_COMPLETE: u8 = 3;

/// Everything a checkpoint log held when it was read back.
#[derive(Debug, Default)]
pub struct LogContents {
    /// The campaign submission, if the header record survived.
    pub submission: Option<Submission>,
    /// Completed shards: shard index → that shard's timed outcomes.
    pub shards: BTreeMap<u64, Vec<(InstanceOutcome, u64)>>,
    /// Whether a completion record was seen.
    pub complete: bool,
    /// Length of the bytes those records span. A reader accepts nothing
    /// past it (a torn record, say), so whoever appends to the log cuts the
    /// file back to here first ([`CheckpointWriter::reopen`]).
    pub valid_len: u64,
}

/// Appends checkpoint records for one campaign. A record survives a
/// SIGKILL once [`sync`](CheckpointWriter::sync) has returned after its
/// write; the `append_*` methods do both, the `write_*` methods leave the
/// sync to a caller that has more records to put behind one.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
}

impl CheckpointWriter {
    /// Opens (or creates) the log at `path` for appending.
    pub fn open(path: &Path) -> io::Result<CheckpointWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(CheckpointWriter { file })
    }

    /// Opens the log at `path` to continue it after [`read_log`] returned
    /// `valid_len`: the bytes past it are cut off first, so what is
    /// appended next follows the last record a reader accepts.
    pub(crate) fn reopen(path: &Path, valid_len: u64) -> io::Result<CheckpointWriter> {
        let writer = CheckpointWriter::open(path)?;
        writer.file.set_len(valid_len)?;
        Ok(writer)
    }

    /// Writes and syncs the campaign-header record (once, at submission).
    pub fn append_header(&mut self, submission: &Submission) -> io::Result<()> {
        self.write(REC_HEADER, &submission.encode())?;
        self.sync()
    }

    /// Writes and syncs one completed shard's outcomes.
    pub fn append_shard(
        &mut self,
        shard: u64,
        outcomes: &[(InstanceOutcome, u64)],
    ) -> io::Result<()> {
        self.write_shard(shard, outcomes)?;
        self.sync()
    }

    /// Writes one completed shard's outcomes, not yet durable.
    pub fn write_shard(
        &mut self,
        shard: u64,
        outcomes: &[(InstanceOutcome, u64)],
    ) -> io::Result<()> {
        let _span = vw_trace::span("serve.checkpoint", vw_trace::Category::Serve);
        let mut payload = Vec::new();
        let mut w = Writer::le(&mut payload);
        w.u64(shard);
        w.list64(outcomes, encode_timed_outcome);
        self.write(REC_SHARD, &payload)
    }

    /// Writes the completion marker, not yet durable.
    pub fn write_complete(&mut self) -> io::Result<()> {
        self.write(REC_COMPLETE, &[])
    }

    /// Makes every record written so far durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn write(&mut self, rec_type: u8, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(9 + payload.len());
        let mut w = Writer::le(&mut record);
        w.len32(payload.len());
        w.u8(rec_type);
        w.u32(crc32(payload));
        w.bytes(payload);
        self.file.write_all(&record)
    }
}

/// Reads a checkpoint log back, tolerating a torn tail: the first
/// record that is short, CRC-corrupt, or undecodable ends the scan, and
/// everything before it is returned.
pub fn read_log(path: &Path) -> io::Result<LogContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(parse_log(&bytes))
}

/// [`read_log`] over in-memory bytes (exposed for tests).
pub fn parse_log(bytes: &[u8]) -> LogContents {
    let mut contents = LogContents::default();
    let mut r = Reader::le(bytes);
    // The end of the log and a torn tail both read as a record that
    // fails to parse.
    while parse_record(&mut r, &mut contents).is_ok() {
        contents.valid_len = r.position() as u64;
    }
    contents
}

/// Folds the next record into `contents`. A record that is short, fails
/// its CRC, does not decode or has an unknown type is an error: the
/// caller stops there and does not guess at what follows.
fn parse_record(r: &mut Reader<'_>, contents: &mut LogContents) -> Result<(), ParseError> {
    let (len, rec_type, crc) = (r.u32()?, r.u8()?, r.u32()?);
    let payload = r.take(len as usize)?;
    if crc32(payload) != crc {
        return Err(ParseError::new("record body is partial or corrupt"));
    }
    match rec_type {
        REC_HEADER => {
            let submission = Submission::decode(payload);
            contents.submission = Some(submission.ok_or_else(|| ParseError::new("bad header"))?);
        }
        REC_SHARD => {
            // The smallest outcome is a wall time, a tag and an empty
            // message.
            let shard = |r: &mut Reader<'_>| Ok((r.u64()?, r.list64(13, decode_timed_outcome)?));
            let (shard, outcomes) = Reader::le(payload).whole(shard)?;
            contents.shards.insert(shard, outcomes);
        }
        REC_COMPLETE => contents.complete = true,
        _ => return Err(ParseError::new("unknown record type")),
    }
    Ok(())
}

/// The log filename for a campaign, with the name sanitized so client
/// input can't traverse outside the state directory.
pub fn log_file_name(campaign: &str) -> String {
    let mut sanitized: String = campaign
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if sanitized.is_empty() || sanitized.starts_with('.') {
        sanitized.insert(0, '_');
    }
    // Distinct raw names must land on distinct files even after
    // sanitization folds characters together.
    format!("{}-{:016x}.vwlog", sanitized, fnv1a64(campaign.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_campaign::{Axis, DigestKey, InstanceOutcome, RunConfig, Sampling};

    fn sample_submission() -> Submission {
        Submission {
            campaign: "ckpt".into(),
            program: "SCENARIO X 1sec\nEND".into(),
            setup: "udp_flood".into(),
            axes: vec![Axis::seeds(vec![1, 2, 3])],
            defaults: RunConfig::default(),
            sampling: Sampling::Exhaustive,
            key: DigestKey::default(),
            deadline_ns: 1_000_000_000,
            shard_size: 2,
        }
    }

    fn shard(tag: &str) -> Vec<(InstanceOutcome, u64)> {
        vec![
            (InstanceOutcome::Crashed(format!("probe {tag}")), 10),
            (InstanceOutcome::Invalid(format!("bad {tag}")), 20),
        ]
    }

    #[test]
    fn log_round_trips_header_shards_and_completion() {
        let dir = std::env::temp_dir().join(format!("vwlog-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(log_file_name("ckpt"));
        let _ = std::fs::remove_file(&path);
        let sub = sample_submission();
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.append_header(&sub).unwrap();
        w.append_shard(0, &shard("a")).unwrap();
        w.append_shard(2, &shard("c")).unwrap();
        let mid = read_log(&path).unwrap();
        assert_eq!(mid.submission, Some(sub.clone()));
        assert_eq!(mid.shards.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!mid.complete);
        w.append_shard(1, &shard("b")).unwrap();
        w.write_complete().and_then(|()| w.sync()).unwrap();
        let done = read_log(&path).unwrap();
        assert_eq!(done.shards.len(), 3);
        assert_eq!(done.shards[&1], shard("b"));
        assert!(done.complete);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("vwlog-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(log_file_name("torn"));
        let _ = std::fs::remove_file(&path);
        let mut w = CheckpointWriter::open(&path).unwrap();
        w.append_header(&sample_submission()).unwrap();
        w.append_shard(0, &shard("a")).unwrap();
        let intact = std::fs::read(&path).unwrap();
        w.append_shard(1, &shard("b")).unwrap();
        let full = std::fs::read(&path).unwrap();
        drop(w);
        // Every torn prefix of the second record keeps the first intact.
        for cut in intact.len()..full.len() {
            let contents = parse_log(&full[..cut]);
            assert_eq!(
                contents.shards.keys().copied().collect::<Vec<_>>(),
                vec![0],
                "cut at {cut}"
            );
            assert!(contents.submission.is_some());
            assert_eq!(contents.valid_len, intact.len() as u64, "cut at {cut}");
        }
        // Reopened at the valid length, the log drops the torn bytes and
        // what is appended next is read back.
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let torn = read_log(&path).unwrap();
        let mut w = CheckpointWriter::reopen(&path, torn.valid_len).unwrap();
        w.append_shard(1, &shard("b")).unwrap();
        w.write_complete().and_then(|()| w.sync()).unwrap();
        let healed = read_log(&path).unwrap();
        assert_eq!(healed.shards.len(), 2);
        assert!(healed.complete);
        assert_eq!(healed.valid_len, std::fs::metadata(&path).unwrap().len());
        // And flipping a payload byte in the middle drops that record
        // and everything after it.
        let mut corrupt = full.clone();
        let flip = intact.len() + 20;
        corrupt[flip] ^= 0xFF;
        assert_eq!(parse_log(&corrupt).shards.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_names_are_sanitized_and_collision_free() {
        let a = log_file_name("../escape");
        assert!(!a.contains('/'));
        assert!(a.ends_with(".vwlog"));
        // Same sanitized text, different raw names → different files.
        assert_ne!(log_file_name("a/b"), log_file_name("a_b"));
        assert_ne!(log_file_name(""), log_file_name("_"));
    }
}

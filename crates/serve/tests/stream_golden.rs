//! What one campaign looks like from outside the daemon, as golden text:
//! the frames its connection receives in order, what its `.vwlog` holds
//! once the daemon has stopped, and the campaign events the journal
//! recorded in order. One worker, so nothing here depends on scheduling.
//!
//! A campaign cannot enumerate to zero instances (`CampaignSpec::enumerate`
//! refuses an empty axis and no axes at all is one instance), so the
//! second case pins what such a submission gets instead: a typed
//! rejection, no log, no journal entry.

mod common;

use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use vw_campaign::{Axis, InstanceRecord};
use vw_serve::checkpoint::{log_file_name, read_log};
use vw_serve::frame::{DecodeBuffer, Frame, FrameType};
use vw_serve::payload::{decode_error, decode_outcome_line};
use vw_serve::{Accepted, Daemon, DaemonConfig, JournalQuery, SetupRegistry, Severity, Submission};

/// Submits `sub` on a raw connection to a fresh one-worker daemon and
/// renders everything observable about it.
fn observe(sub: &Submission) -> String {
    let dir = common::scratch_dir(&format!("golden-{}", sub.campaign));
    let state = dir.join("state");
    let config = DaemonConfig {
        state_dir: state.clone(),
        workers: 1,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    let mut out = String::new();
    let mut conn = UnixStream::connect(&sock).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    conn.write_all(&Frame::new(FrameType::Submit, 7, sub.encode()).encode())
        .expect("send Submit");
    let mut decoder = DecodeBuffer::new();
    let mut chunk = [0u8; 4096];
    out.push_str("frames:\n");
    'frames: loop {
        while let Some(frame) = decoder.next_frame().expect("daemon frames decode") {
            assert_eq!(frame.request_id, 7);
            let _ = write!(out, "  {:?}", frame.frame_type);
            match frame.frame_type {
                FrameType::Accepted => {
                    let a = Accepted::decode(&frame.payload).expect("Accepted decodes");
                    let _ = write!(
                        out,
                        " total={} shards={} already_done={}",
                        a.total, a.shards, a.already_done
                    );
                }
                FrameType::Outcome | FrameType::Done => {
                    let (n, text) = decode_outcome_line(&frame.payload).expect("line decodes");
                    // The summary is several lines; keep them under `Done`.
                    let _ = write!(out, " {n} {}", text.trim_end().replace('\n', "\n    "));
                }
                FrameType::Error => {
                    let (code, _) = decode_error(&frame.payload).expect("Error decodes");
                    let _ = write!(out, " {code:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
            out.push('\n');
            if matches!(frame.frame_type, FrameType::Done | FrameType::Error) {
                break 'frames;
            }
        }
        let n = conn.read(&mut chunk).expect("read");
        assert!(n > 0, "daemon closed the connection");
        decoder.feed(&chunk[..n]);
    }

    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    let journal = client
        .journal_query(&JournalQuery {
            since_seq: 0,
            min_severity: Severity::Info,
            limit: 0,
        })
        .expect("journal query");
    out.push_str("journal:");
    for kind in journal.entries.iter().map(|e| e.event.kind()) {
        if kind.starts_with("campaign_") || kind == "quota_bounced" {
            let _ = write!(out, " {kind}");
        }
    }
    out.push('\n');

    // Stopped, the daemon has nothing left to write.
    daemon.stop();
    out.push_str("log:");
    match read_log(&state.join(log_file_name(&sub.campaign))) {
        Ok(log) => {
            let _ = writeln!(
                out,
                " header={} shards={:?} complete={}",
                log.submission.as_ref() == Some(sub),
                log.shards.keys().collect::<Vec<_>>(),
                log.complete
            );
            for (shard, outcomes) in &log.shards {
                for (offset, (outcome, _wall_ns)) in outcomes.iter().enumerate() {
                    let record = InstanceRecord {
                        index: offset,
                        labels: Vec::new(),
                        outcome: outcome.clone(),
                        wall_ns: None,
                    };
                    let _ = writeln!(out, "  shard {shard}: {}", record.to_jsonl_line(&sub.key));
                }
            }
        }
        Err(e) => {
            let _ = writeln!(out, " {:?}", e.kind());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn three_shards_stream_in_order_and_land_in_the_log() {
    let mut sub = common::submission("golden-two", 2);
    sub.axes.truncate(2); // 2 x 2 = 4 instances in shards of 1, 2 and 1
    assert_eq!(observe(&sub), THREE_SHARDS);
}

#[test]
fn a_campaign_that_would_hold_no_instance_is_refused_and_leaves_nothing() {
    let mut sub = common::submission("golden-none", 2);
    sub.axes = vec![Axis::seeds(Vec::new())];
    assert_eq!(observe(&sub), NO_INSTANCE);
}

const THREE_SHARDS: &str = r##"frames:
  Accepted total=4 shards=3 already_done=0
  Outcome 0 {"instance":0,"labels":{"threshold.Sent#0":"5","threshold.Sent#1":"15"},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"double fault"}],"counters":{"node1.Sent":30,"node2.Rcvd":27,"node1.Drops":2}}
  Outcome 1 {"instance":1,"labels":{"threshold.Sent#0":"5","threshold.Sent#1":"45"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":28,"node1.Drops":1}}
  Outcome 2 {"instance":2,"labels":{"threshold.Sent#0":"40","threshold.Sent#1":"15"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":28,"node1.Drops":1}}
  Outcome 3 {"instance":3,"labels":{"threshold.Sent#0":"40","threshold.Sent#1":"45"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":29,"node1.Drops":0}}
  Done 4 {"campaign":"golden-two","instances":4,"classes":3,"completed":4,"invalid":0,"setup_failed":0,"crashed":0}
    {"class":0,"digest":"dc263903174d8981","members":1,"representative":0,"labels":{"threshold.Sent#0":"5","threshold.Sent#1":"15"},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"double fault"}],"counters":{"node1.Sent":30,"node2.Rcvd":27,"node1.Drops":2}}
    {"class":1,"digest":"20a130891a87dcab","members":2,"representative":1,"labels":{"threshold.Sent#0":"5","threshold.Sent#1":"45"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":28,"node1.Drops":1}}
    {"class":2,"digest":"b4154a2471adf7db","members":1,"representative":3,"labels":{"threshold.Sent#0":"40","threshold.Sent#1":"45"},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":29,"node1.Drops":0}}
journal: campaign_submitted campaign_checkpointed campaign_checkpointed campaign_checkpointed campaign_done
log: header=true shards=[0, 1, 2] complete=true
  shard 0: {"instance":0,"labels":{},"kind":"completed","passed":false,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[{"node":"node1","message":"double fault"}],"counters":{"node1.Sent":30,"node2.Rcvd":27,"node1.Drops":2}}
  shard 1: {"instance":0,"labels":{},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":28,"node1.Drops":1}}
  shard 1: {"instance":1,"labels":{},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":28,"node1.Drops":1}}
  shard 2: {"instance":0,"labels":{},"kind":"completed","passed":true,"stop":"stopped: STOP fired at node1 (condition 4)","errors":[],"counters":{"node1.Sent":30,"node2.Rcvd":29,"node1.Drops":0}}
"##;

const NO_INSTANCE: &str = r##"frames:
  Error BadSpec
journal:
log: NotFound
"##;

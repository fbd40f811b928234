//! One client's session with a one-worker daemon, seen from the daemon's
//! side as golden text: a 4-instance campaign streamed to `Done`, the same
//! name submitted again, and a 16-instance submission over an 8-instance
//! quota. Pinned are the `serve_*` counters `Daemon::metrics_text` reports
//! before the stop and every record `state_dir/journal.jsonl` holds after
//! it.
//!
//! Left out, because they depend on timing rather than on the session:
//! `serve_bytes_out` (the count lands after the write, so the client can
//! read the bytes before it does), gauges and histograms, each record's
//! `t_ms`, and the `conn_*` records (the connection's close races the stop).
//! The journal file keeps every record from seq 0, contiguously, whatever
//! the in-memory ring has evicted.

mod common;

use std::fmt::Write as _;
use std::time::Duration;

use vw_serve::{ClientError, Daemon, DaemonConfig, ErrorCode, QuotaConfig, SetupRegistry};
use vw_trace::Json;

fn expect_server_error<T: std::fmt::Debug>(result: Result<T, ClientError>, want: ErrorCode) {
    match result {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
        other => panic!("expected typed {want:?} rejection, got {other:?}"),
    }
}

/// The counter lines of a Prometheus text, `serve_bytes_out` left out.
fn serve_counters(text: &str) -> String {
    let families: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .filter(|name| name.starts_with("serve_") && *name != "serve_bytes_out")
        .collect();
    let mut out = String::new();
    for line in text.lines() {
        if line
            .split_once(' ')
            .is_some_and(|(name, _)| families.contains(&name))
        {
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// `seq kind text` per journal record but the `conn_*` ones, asserting that
/// the records run from seq 0 with no gap. A record the stop raced is cut
/// at the last newline.
fn journal_records(text: &str) -> String {
    let whole = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
    let mut out = String::new();
    for (n, line) in whole.lines().enumerate() {
        let record = Json::parse(line).expect("a journal record parses");
        let field = |name: &str| record.as_obj().expect("an object")[name].clone();
        let seq = field("seq").as_num().expect("seq is a number");
        assert_eq!(seq, n as f64, "journal seqs are contiguous from 0");
        let kind = field("kind");
        let kind = kind.as_str().expect("kind is a string");
        if !kind.starts_with("conn_") {
            let text = field("text");
            let _ = writeln!(out, "{seq} {kind} {}", text.as_str().expect("text"));
        }
    }
    out
}

#[test]
fn a_campaign_a_duplicate_and_an_over_quota_submission_pin_counters_and_journal() {
    let dir = common::scratch_dir("daemon-golden");
    let state = dir.join("state");
    let config = DaemonConfig {
        state_dir: state.clone(),
        workers: 1,
        quota: QuotaConfig {
            max_instances_per_campaign: 8,
            ..QuotaConfig::default()
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));

    let mut sub = common::submission("golden-two", 2);
    sub.axes.truncate(2); // 2 x 2 = 4 instances in 2 shards
    client.submit(&sub).expect("submit");
    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 4);
    assert_eq!(summary, common::direct_summary(&sub));
    expect_server_error(client.submit(&sub), ErrorCode::AlreadyExists);
    expect_server_error(
        client.submit(&common::submission("golden-big", 2)),
        ErrorCode::QuotaExceeded,
    );

    let counters = serve_counters(&daemon.metrics_text());
    daemon.stop();
    let journal = std::fs::read_to_string(state.join("journal.jsonl")).expect("journal reads");
    drop(client);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(counters, COUNTERS);
    assert_eq!(journal_records(&journal), JOURNAL);
}

const COUNTERS: &str = "\
serve_backpressure_pauses 0
serve_bad_frames 0
serve_bytes_in 2519
serve_campaigns_completed 1
serve_campaigns_resumed 0
serve_campaigns_submitted 1
serve_frames_decoded 3
serve_instances_completed 4
serve_lines_streamed 4
serve_quota_rejections 1
serve_shards_completed 2
serve_telemetry_dropped 0
serve_telemetry_ticks 0
serve_worker_stalls 0
";

const JOURNAL: &str = r#"1 campaign_submitted campaign "golden-two" submitted (4 instances)
2 campaign_checkpointed campaign "golden-two" checkpointed shard 0
3 campaign_checkpointed campaign "golden-two" checkpointed shard 1
4 campaign_done campaign "golden-two" done
5 quota_bounced campaign "golden-big" bounced by quota: max_instances_per_campaign
"#;

//! Daemon service semantics over live sockets: typed rejections, quota
//! enforcement, backpressure on slow readers, subscriber detach on
//! disconnect, and the stats surface.

mod common;

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vw_campaign::ShardPlan;
use vw_serve::checkpoint::{log_file_name, read_log, CheckpointWriter};
use vw_serve::{
    Accepted, Client, ClientError, Daemon, DaemonConfig, ErrorCode, QuotaConfig, SetupRegistry,
    Severity, Submission, Subscribe,
};

fn expect_server_error<T: std::fmt::Debug>(result: Result<T, ClientError>, want: ErrorCode) {
    match result {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, want),
        other => panic!("expected typed {want:?} rejection, got {other:?}"),
    }
}

#[test]
fn ping_stats_and_typed_rejections_over_tcp() {
    let dir = common::scratch_dir("service-tcp");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let addr = daemon.bind_tcp("127.0.0.1:0").expect("bind tcp");

    let mut client = Client::connect_tcp(&addr.to_string()).expect("connect");
    client.ping().expect("ping");

    let stats = client.stats().expect("stats");
    for metric in [
        "serve_campaigns_submitted",
        "serve_active_campaigns",
        "serve_known_campaigns",
        "serve_subscribers",
    ] {
        assert!(stats.contains(metric), "missing {metric} in:\n{stats}");
    }

    // Unknown setup name.
    let mut sub = common::submission("svc-unknown-setup", 0);
    sub.setup = "no_such_setup".into();
    expect_server_error(client.submit(&sub), ErrorCode::UnknownSetup);

    // Unparseable FSL program.
    let mut sub = common::submission("svc-bad-spec", 0);
    sub.program = "SCENARIO broken".into();
    expect_server_error(client.submit(&sub), ErrorCode::BadSpec);

    // Names that would break a metric label, a journal line or a path.
    for name in ["", "a,b=c", "a|b", "tab\tbed", "../up", &"n".repeat(129)] {
        expect_server_error(
            client.submit(&common::submission(name, 0)),
            ErrorCode::BadSpec,
        );
    }
    // Four 65,536-seed axes: a 2 MiB payload whose cross-product (2^64)
    // no usize can count. Refused before anything is enumerated.
    let mut sub = common::submission("svc-overflow", 0);
    sub.axes = vec![vw_campaign::Axis::seeds((0..1 << 16).collect()); 4];
    expect_server_error(client.submit(&sub), ErrorCode::BadSpec);
    let stats = client
        .stats()
        .expect("the connection survives the rejections");
    assert!(
        !stats.contains("a,b=c"),
        "no series for a refused name:\n{stats}"
    );

    // Attach to a campaign that does not exist.
    expect_server_error(client.attach("ghost"), ErrorCode::UnknownCampaign);

    // Submit, drain, then resubmit under the same name.
    let sub = common::submission("svc-dup", 4);
    client.submit(&sub).expect("first submit");
    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 16);
    assert_eq!(summary, common::direct_summary(&sub));
    expect_server_error(client.submit(&sub), ErrorCode::AlreadyExists);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quotas_reject_with_typed_errors_and_count() {
    let dir = common::scratch_dir("service-quota");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        quota: QuotaConfig {
            max_active_campaigns: 32,
            max_campaigns_per_conn: 1,
            max_instances_per_campaign: 8,
        },
        ..DaemonConfig::default()
    };
    // Each instance of the first campaign waits here until the test lets
    // it build, so that campaign is still live when the second arrives.
    let (gate, waiting) = std::sync::mpsc::channel::<()>();
    let waiting = std::sync::Mutex::new(waiting);
    let mut registry = SetupRegistry::builtin();
    registry.register(
        "gated_flood",
        move |tables: &vw_fsl::TableSet, run: &vw_campaign::RunConfig| {
            let _ = waiting.lock().unwrap().recv();
            common::flood_setup(tables, run)
        },
    );
    let daemon = Daemon::start(config, registry).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));

    // 16 instances > the 8-instance quota.
    expect_server_error(
        client.submit(&common::submission("svc-too-big", 0)),
        ErrorCode::QuotaExceeded,
    );

    // An under-quota sweep (one axis pinned by dropping the last two
    // axes' alternatives) is accepted...
    let mut small = common::submission("svc-small", 2);
    small.axes.truncate(2); // 2 x 2 = 4 instances
    small.setup = "gated_flood".to_string();
    client.submit(&small).expect("within quota");

    // ...but a second live campaign on the same connection trips the
    // per-connection cap.
    let mut second = common::submission("svc-second", 2);
    second.axes.truncate(2);
    expect_server_error(client.submit(&second), ErrorCode::QuotaExceeded);

    for _ in 0..4 {
        gate.send(()).expect("an instance released");
    }
    let (lines, _) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 4);

    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("serve_quota_rejections 2"),
        "quota rejections not counted:\n{stats}"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request made while a campaign streams on the same connection: the
/// campaign's `Outcome` frames are in the connection's outbox ahead of the
/// reply (`serve_lines_streamed` counts them once they are), so the client
/// must read past them to its reply — and then hand them to `stream`, none
/// lost, in order.
#[test]
fn a_reply_behind_stream_frames_is_matched_and_the_stream_survives() {
    let dir = common::scratch_dir("service-interleave");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
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

    let mut streaming = common::submission("svc-streaming", 2);
    streaming.axes.truncate(2); // 2 x 2 = 4 instances
    client.submit(&streaming).expect("within quota");

    let mut probe = common::connect_unix_retry(&sock, Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(60);
    while probe
        .stats()
        .expect("stats")
        .contains("serve_lines_streamed 0\n")
    {
        assert!(Instant::now() < deadline, "no outcome was ever streamed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // 16 instances > the 8-instance quota, whatever the first campaign
    // is doing by now.
    expect_server_error(
        client.submit(&common::submission("svc-too-big", 0)),
        ErrorCode::QuotaExceeded,
    );
    client.ping().expect("and a second reply behind the stream");

    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 4);
    assert_eq!(summary, common::direct_summary(&streaming));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign streaming on a connection that also holds a telemetry
/// subscription: `next_telemetry` reads past `Outcome` frames to reach
/// each delta, and must keep them for `stream` — all 48 lines and `Done`.
#[test]
fn stream_frames_met_while_waiting_for_telemetry_reach_the_stream() {
    let dir = common::scratch_dir("service-telemetry-park");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        workers: 1,
        telemetry_min_interval_ms: 10,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client
        .subscribe(&Subscribe {
            interval_ms: 20,
            prometheus_text: false,
            campaign: String::new(),
            journal_min_severity: Severity::Info,
        })
        .expect("subscribe");

    let sub = common::padded_submission("svc-tele-stream", 48, 8);
    client.submit(&sub).expect("submit");

    // A delta that counts all 48 instances complete was built after the
    // last `Outcome` entered this connection's FIFO outbox: by the time it
    // is read here, every line has been met on the way to some delta.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "the campaign never completed");
        let update = client.next_telemetry().expect("telemetry delta");
        let completed = "serve.campaign.completed|campaign=svc-tele-stream";
        if update.metrics.gauge(completed) == Some(48) {
            break;
        }
    }

    // With a line lost, `stream` would wait for it for as long as deltas
    // keep the connection busy: fail, don't hang.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(common::stream_all(&mut client)));
    let (lines, summary) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the stream completes");
    assert_eq!(lines.len(), 48);
    assert_eq!(summary, common::direct_summary(&sub));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stalls must pause the campaign (bounded daemon memory)
/// rather than buffer unboundedly — and the sweep must still finish,
/// bytes intact, once the reader drains. The writer thread hands the
/// socket everything its outbox holds in one write and reports one drain
/// for it: the paused campaign must resume from that one report, a pause
/// must still cost a shard (so `n` shards pause at most `n` times), and a
/// telemetry subscriber that keeps reading beside it loses no tick.
#[test]
fn slow_reader_triggers_backpressure_then_completes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = common::scratch_dir("service-backpressure");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        // Tiny windows so the pause engages as soon as the stalled
        // reader's socket buffer fills.
        outbox_frames: 4,
        max_unsent_instances: 16,
        shard_size: 8,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    let mut watcher = common::connect_unix_retry(&sock, Duration::from_secs(5));
    watcher
        .subscribe(&Subscribe {
            interval_ms: 20,
            prometheus_text: false,
            campaign: String::new(),
            journal_min_severity: Severity::Info,
        })
        .expect("subscribe");
    let watching = Arc::new(AtomicBool::new(true));
    let watch = {
        let watching = Arc::clone(&watching);
        std::thread::spawn(move || {
            let mut dropped = 0;
            while watching.load(Ordering::SeqCst) {
                dropped += watcher.next_telemetry().expect("telemetry").dropped;
            }
            dropped
        })
    };

    // ~600 KiB of outcome lines — far more than a kernel socket buffer
    // plus the outbox can absorb while the client refuses to read.
    let sub = common::padded_submission("svc-slow", 1024, 8);
    let shards = ShardPlan::new(1024, 8).count() as u64;
    let mut slow = common::connect_unix_retry(&sock, Duration::from_secs(5));
    slow.submit(&sub).expect("submit");

    // Stall without reading: once the stalled socket fills, the unsent
    // backlog exceeds the window and the campaign must sit durably in
    // the paused state (transient pause/resume cycles can flip the
    // counter earlier, while the kernel buffer still has room — only
    // the gauge proves a pause that sticks).
    let mut probe = common::connect_unix_retry(&sock, Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.contains("serve_paused_campaigns 1") {
            assert!(
                !stats.contains("serve_backpressure_pauses 0"),
                "paused campaign without a counted pause:\n{stats}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure never engaged:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Now drain: the stream must complete with the exact direct-run
    // summary despite the pause/resume cycling.
    let (lines, summary) = common::stream_all(&mut slow);
    assert_eq!(lines.len(), 1024);
    assert_eq!(summary, common::direct_summary(&sub));

    watching.store(false, Ordering::SeqCst);
    let seen_dropped = watch.join().expect("watcher thread");
    let stats = probe.stats().expect("stats");
    assert_eq!(stat(&stats, "serve_paused_campaigns"), 0, "{stats}");
    let pauses = stat(&stats, "serve_backpressure_pauses");
    assert!((1..=shards).contains(&pauses), "{pauses} pauses:\n{stats}");
    assert_eq!(stat(&stats, "serve_telemetry_dropped"), 0, "{stats}");
    assert_eq!(seen_dropped, 0);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of an unlabelled series in the daemon's Prometheus text.
fn stat(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` series in:\n{stats}"))
}

/// Losing the submitting connection detaches the subscriber but does not
/// cancel the campaign: it keeps executing and checkpointing, and a
/// later attach replays everything.
#[test]
fn disconnect_detaches_subscriber_but_campaign_finishes() {
    let dir = common::scratch_dir("service-detach");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        shard_size: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    let sub = common::submission("svc-detach", 2);
    {
        let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
        client.submit(&sub).expect("submit");
        // Drop without reading a single outcome.
    }

    // Poll until the daemon reports the campaign finished.
    let mut probe = common::connect_unix_retry(&sock, Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.contains("serve_campaigns_completed 1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never completed after disconnect:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let accepted = probe.attach(&sub.campaign).expect("attach");
    assert_eq!(accepted.total, 16);
    assert_eq!(accepted.already_done, 16);
    let (lines, summary) = common::stream_all(&mut probe);
    assert_eq!(lines.len(), 16);
    assert_eq!(summary, common::direct_summary(&sub));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both clients submit at once (a barrier, then the socket write).
fn race(clients: &mut [Client; 2], subs: [&Submission; 2]) -> [Result<Accepted, ClientError>; 2] {
    let barrier = Barrier::new(2);
    let [a, b] = clients;
    std::thread::scope(|s| {
        let first = s.spawn(|| {
            barrier.wait();
            a.submit(subs[0])
        });
        let second = s.spawn(|| {
            barrier.wait();
            b.submit(subs[1])
        });
        [first.join().unwrap(), second.join().unwrap()]
    })
}

/// 50 rounds of two racing submissions: each round exactly one is
/// accepted and the other gets `loser`. The winner's instances wait at a
/// gate until both answers are in, so it cannot finish (and free its
/// slot) under the loser's feet; then it streams to `Done`.
fn race_rounds(tag: &str, quota: QuotaConfig, same_name: bool, loser: ErrorCode) {
    let dir = common::scratch_dir(tag);
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        quota,
        ..DaemonConfig::default()
    };
    let (gate, waiting) = std::sync::mpsc::channel::<()>();
    let waiting = std::sync::Mutex::new(waiting);
    let mut registry = SetupRegistry::builtin();
    registry.register(
        "gated_flood",
        move |tables: &vw_fsl::TableSet, run: &vw_campaign::RunConfig| {
            let _ = waiting.lock().unwrap().recv();
            common::flood_setup(tables, run)
        },
    );
    let daemon = Daemon::start(config, registry).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut clients = [
        common::connect_unix_retry(&sock, Duration::from_secs(5)),
        common::connect_unix_retry(&sock, Duration::from_secs(5)),
    ];
    for round in 0..50 {
        let mut first = common::padded_submission(&format!("{tag}-{round}-a"), 2, 2);
        first.setup = "gated_flood".to_string();
        let mut second = first.clone();
        if !same_name {
            second.campaign = format!("{tag}-{round}-b");
        }
        let results = race(&mut clients, [&first, &second]);
        let winners: Vec<usize> = (0..2).filter(|&i| results[i].is_ok()).collect();
        assert_eq!(winners.len(), 1, "round {round}: {results:?}");
        let [a, b] = results;
        expect_server_error(if winners[0] == 0 { b } else { a }, loser);
        gate.send(()).expect("first instance released");
        gate.send(()).expect("second instance released");
        let (lines, _) = common::stream_all(&mut clients[winners[0]]);
        assert_eq!(lines.len(), 2);
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `submit` writes its header with the scheduler lock released; the name
/// is reserved across that window.
#[test]
fn two_connections_racing_one_name_get_one_accepted_and_one_already_exists() {
    race_rounds(
        "svc-race-name",
        QuotaConfig::default(),
        true,
        ErrorCode::AlreadyExists,
    );
}

/// ...and so is the `active` slot.
#[test]
fn two_submissions_racing_the_last_active_slot_get_one_accepted_and_one_quota_exceeded() {
    let quota = QuotaConfig {
        max_active_campaigns: 1,
        ..QuotaConfig::default()
    };
    race_rounds("svc-race-quota", quota, false, ErrorCode::QuotaExceeded);
}

/// A submission whose header cannot be written answers `Internal` and
/// gives its name and its quota slot back.
#[test]
fn a_header_that_cannot_be_written_is_internal_and_releases_the_reservation() {
    let dir = common::scratch_dir("service-header-fails");
    let state = dir.join("state");
    let config = DaemonConfig {
        state_dir: state.clone(),
        quota: QuotaConfig {
            max_active_campaigns: 1,
            ..QuotaConfig::default()
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));

    // The log opens and every write to it fails.
    let sub = common::padded_submission("svc-full-disk", 2, 2);
    let log = state.join(log_file_name(&sub.campaign));
    std::os::unix::fs::symlink("/dev/full", &log).expect("symlink");
    expect_server_error(client.submit(&sub), ErrorCode::Internal);

    std::fs::remove_file(&log).expect("remove symlink");
    client
        .submit(&sub)
        .expect("the name and the only slot are free again");
    assert_eq!(common::stream_all(&mut client).0.len(), 2);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line reaches the client only once its shard's record is in the log.
#[test]
fn every_streamed_line_is_already_in_the_log() {
    let dir = common::scratch_dir("service-durable-first");
    let state = dir.join("state");
    let config = DaemonConfig {
        state_dir: state.clone(),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));

    let sub = common::submission("svc-durable", 2);
    let plan = ShardPlan::new(16, 2);
    let log = state.join(log_file_name(&sub.campaign));
    client.submit(&sub).expect("submit");
    let mut lines = 0;
    client
        .stream(|index, _| {
            let on_disk = read_log(&log).expect("log reads");
            let (shard, _) = plan.locate(index as usize);
            assert!(
                on_disk.shards.contains_key(&(shard as u64)),
                "line {index} ahead of its record: {:?}",
                on_disk.shards.keys()
            );
            lines += 1;
        })
        .expect("stream to completion");
    assert_eq!(lines, 16);
    assert_eq!(read_log(&log).expect("log reads").shards.len(), 9);

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `[len u32][type u8][crc u32][payload]` records of a log file: each
/// one's type and the offset it ends at.
fn records(log: &Path) -> Vec<(u8, usize)> {
    let bytes = std::fs::read(log).expect("log reads");
    let mut records = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let rec_type = bytes[at + 4];
        at += 9 + len as usize;
        records.push((rec_type, at));
    }
    assert_eq!(at, bytes.len(), "torn tail");
    records
}

/// Eight workers hand 64 one-instance shards to the one log writer: each
/// is written once, announced once and streamed in order.
#[test]
fn sixty_four_shards_from_eight_workers_are_each_logged_once() {
    let dir = common::scratch_dir("service-64-shards");
    let state = dir.join("state");
    let config = DaemonConfig {
        state_dir: state.clone(),
        workers: 8,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));

    let sub = common::padded_submission("svc-64", 64, 1);
    client.submit(&sub).expect("submit");
    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 64);
    assert_eq!(summary, common::direct_summary(&sub));
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "serve_shards_completed"), 64, "{stats}");

    // Stopped, the log writer has written the marker too.
    daemon.stop();
    let mut expected = vec![4u8; 64];
    expected.insert(0, 1);
    expected.push(3);
    let log = state.join(log_file_name(&sub.campaign));
    let types: Vec<u8> = records(&log).iter().map(|&(t, _)| t).collect();
    assert_eq!(types, expected);
    assert_eq!(read_log(&log).expect("log reads").shards.len(), 64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Daemon::stop` leaves no finished shard unlogged: stopped as the last
/// line arrives, then restarted on the same state directory, the daemon
/// runs nothing again.
#[test]
fn a_stop_at_the_last_line_leaves_nothing_to_re_run() {
    let dir = common::scratch_dir("service-stop-at-done");
    let state = dir.join("state");
    let built = Arc::new(AtomicUsize::new(0));
    let start = |sock: &Path| {
        let built = Arc::clone(&built);
        let mut registry = SetupRegistry::builtin();
        registry.register(
            "counted_flood",
            move |tables: &vw_fsl::TableSet, run: &vw_campaign::RunConfig| {
                built.fetch_add(1, Ordering::SeqCst);
                common::flood_setup(tables, run)
            },
        );
        let config = DaemonConfig {
            state_dir: state.clone(),
            shard_size: 2,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(config, registry).expect("daemon starts");
        daemon.bind_unix(sock).expect("bind");
        daemon
    };

    let mut sub = common::submission("svc-stop-at-done", 2);
    sub.setup = "counted_flood".to_string();
    let sock = dir.join("one.sock");
    let daemon = start(&sock);
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client.submit(&sub).expect("submit");
    let mut lines = Vec::new();
    let summary = client
        .stream(|index, line| {
            lines.push(line.to_string());
            if index == 15 {
                daemon.stop();
            }
        })
        .expect("`Done` was queued with the last line");
    assert_eq!(built.load(Ordering::SeqCst), 16);
    let log = read_log(&state.join(log_file_name(&sub.campaign))).expect("log reads");
    assert_eq!(log.shards.len(), 9);
    assert!(
        log.complete,
        "the marker was still queued when stop returned"
    );

    let sock = dir.join("two.sock");
    let daemon = start(&sock);
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    let accepted = client.attach(&sub.campaign).expect("attach after restart");
    assert_eq!(accepted.already_done, 16);
    let (again, summary_again) = common::stream_all(&mut client);
    assert_eq!(again, lines);
    assert_eq!(summary_again, summary);
    assert_eq!(built.load(Ordering::SeqCst), 16, "an instance ran again");
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon on `state` with one worker, 2-instance shards, and a
/// `counted_flood` setup that counts the worlds it builds in `built`.
/// With a `gate`, every setup first waits until the gate's sender is
/// dropped.
fn counted_daemon(
    state: &Path,
    sock: &Path,
    built: &Arc<AtomicUsize>,
    gate: Option<std::sync::mpsc::Receiver<()>>,
) -> Daemon {
    let built = Arc::clone(built);
    let gate = gate.map(std::sync::Mutex::new);
    let mut registry = SetupRegistry::builtin();
    registry.register(
        "counted_flood",
        move |tables: &vw_fsl::TableSet, run: &vw_campaign::RunConfig| {
            if let Some(gate) = &gate {
                let _ = gate.lock().unwrap().recv();
            }
            built.fetch_add(1, Ordering::SeqCst);
            common::flood_setup(tables, run)
        },
    );
    let config = DaemonConfig {
        state_dir: state.to_path_buf(),
        workers: 1,
        shard_size: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, registry).expect("daemon starts");
    daemon.bind_unix(sock).expect("bind");
    daemon
}

/// A campaign whose log was torn inside its second shard record finishes
/// once after the restart that resumes it: the resumed daemon cuts the
/// torn bytes before it appends, so the next restart reads every shard
/// and the completion marker, and runs nothing. (At the parent the
/// resumed records sat behind the torn ones, invisible to every reader.)
#[test]
fn a_campaign_resumed_after_a_torn_tail_is_complete_on_the_next_restart() {
    let dir = common::scratch_dir("service-torn-tail");
    let state = dir.join("state");
    let built = Arc::new(AtomicUsize::new(0));
    let mut sub = common::submission("svc-torn-tail", 2);
    sub.setup = "counted_flood".to_string();
    let log = state.join(log_file_name(&sub.campaign));

    let sock = dir.join("one.sock");
    let daemon = counted_daemon(&state, &sock, &built, None);
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client.submit(&sub).expect("submit");
    let (lines, summary) = common::stream_all(&mut client);
    daemon.stop();
    assert_eq!(built.load(Ordering::SeqCst), 16);

    // Keep the header, shard 0 (one instance) and half of shard 1.
    let ends: Vec<usize> = records(&log).iter().map(|&(_, end)| end).collect();
    let bytes = std::fs::read(&log).expect("log reads");
    std::fs::write(&log, &bytes[..(ends[1] + ends[2]) / 2]).expect("tear the log");
    let torn = read_log(&log).expect("log reads");
    assert_eq!(torn.shards.keys().copied().collect::<Vec<_>>(), vec![0]);
    assert!(!torn.complete);

    let sock = dir.join("two.sock");
    let daemon = counted_daemon(&state, &sock, &built, None);
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client.attach(&sub.campaign).expect("attach");
    assert_eq!(
        common::stream_all(&mut client),
        (lines.clone(), summary.clone())
    );
    daemon.stop();
    assert_eq!(
        built.load(Ordering::SeqCst),
        16 + 15,
        "shards 1 to 8 ran again"
    );
    let resumed = read_log(&log).expect("log reads");
    assert_eq!(resumed.shards.len(), 9);
    assert!(resumed.complete);

    let sock = dir.join("three.sock");
    let daemon = counted_daemon(&state, &sock, &built, None);
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    assert_eq!(
        client.attach(&sub.campaign).expect("attach").already_done,
        16
    );
    assert_eq!(common::stream_all(&mut client), (lines, summary));
    daemon.stop();
    assert_eq!(built.load(Ordering::SeqCst), 31, "an instance ran again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log written under the earlier plan of equal shards is never resumed
/// in the wrong place: its shard k ≥ 1 has the same length as the current
/// plan's at a different start, so its shard records carry type 2, which a
/// reader takes for unknown. The resumed daemon runs every instance again
/// and streams `run_campaign`'s lines and summary byte for byte.
#[test]
fn a_log_of_equal_shards_resumes_from_its_header_and_matches_a_direct_run() {
    let dir = common::scratch_dir("service-equal-shards");
    let state = dir.join("state");
    let built = Arc::new(AtomicUsize::new(0));
    let mut sub = common::submission("svc-equal-shards", 2);
    sub.setup = "counted_flood".to_string();
    let direct = common::direct_result(&sub);
    let lines: Vec<String> = direct
        .instances
        .iter()
        .map(|record| record.to_jsonl_line(&sub.key))
        .collect();

    // The whole campaign in the equal shards of 2 the log used to hold,
    // each record retyped from the current shard type to 2, then the
    // completion marker.
    std::fs::create_dir_all(&state).expect("state dir");
    let log = state.join(log_file_name(&sub.campaign));
    let mut writer = CheckpointWriter::open(&log).expect("log opens");
    writer.append_header(&sub).expect("header");
    for (shard, chunk) in direct.instances.chunks(2).enumerate() {
        let outcomes: Vec<_> = chunk.iter().map(|r| (r.outcome.clone(), 0)).collect();
        writer.append_shard(shard as u64, &outcomes).expect("shard");
    }
    writer
        .write_complete()
        .and_then(|()| writer.sync())
        .expect("marker");
    drop(writer);
    let mut bytes = std::fs::read(&log).expect("log reads");
    // Each record starts where the one before it ends.
    let starts: Vec<usize> = records(&log).iter().map(|&(_, end)| end).collect();
    for &start in &starts[..8] {
        assert_eq!(bytes[start + 4], 4, "a shard record");
        bytes[start + 4] = 2;
    }
    std::fs::write(&log, &bytes).expect("log writes");
    let old = read_log(&log).expect("log reads");
    assert_eq!(old.submission.as_ref(), Some(&sub));
    assert!(old.shards.is_empty() && !old.complete);

    // The resumed daemon builds no world before the client has attached,
    // so no shard is done by then.
    let sock = dir.join("vw.sock");
    let (open, gate) = std::sync::mpsc::channel();
    let daemon = counted_daemon(&state, &sock, &built, Some(gate));
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    assert_eq!(
        client.attach(&sub.campaign).expect("attach").already_done,
        0
    );
    drop(open);
    assert_eq!(common::stream_all(&mut client), (lines, direct.to_jsonl()));
    daemon.stop();
    assert_eq!(built.load(Ordering::SeqCst), 16, "every instance ran again");
    let resumed = read_log(&log).expect("log reads");
    assert_eq!(resumed.shards.len(), 9);
    assert!(resumed.complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends that start failing mid-campaign cost durability, not the
/// campaign: the real binary under a file-size limit (`EFBIG` once the
/// log reaches it, `SIGXFSZ` ignored) still streams every line and the
/// exact summary, with a log that holds the header and only some shards.
#[test]
fn appends_failing_mid_campaign_still_stream_to_done() {
    let dir = common::scratch_dir("service-efbig");
    let state = dir.join("state");
    let sock = dir.join("vw.sock");
    // `ulimit -f` counts 512-byte blocks in dash and 1024-byte ones in
    // bash: 4 or 8 KiB, above the 1.2 KiB header and far below the 40 KiB
    // the 33 shard records come to.
    let mut child = std::process::Command::new("sh")
        .arg("-c")
        .arg("trap '' XFSZ; ulimit -f 8; exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_vw-serve"))
        .arg("--unix")
        .arg(&sock)
        .arg("--state-dir")
        .arg(&state)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn vw-serve under a file-size limit");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(10));

    let sub = common::padded_submission("svc-efbig", 64, 2);
    client.submit(&sub).expect("the header fits");
    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 64);
    assert_eq!(summary, common::direct_summary(&sub));

    let log = read_log(&state.join(log_file_name(&sub.campaign))).expect("log reads");
    assert_eq!(log.submission, Some(sub));
    assert!(
        (1..33).contains(&log.shards.len()),
        "the limit never bit: {} shards on disk",
        log.shards.len()
    );
    assert!(!log.complete);

    child.kill().expect("kill");
    child.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Live telemetry plane, end to end over real sockets: streaming
//! subscriptions during multi-campaign runs, journal delivery and
//! queries, slow-subscriber drop semantics, and the determinism pins
//! with a subscriber attached.

mod common;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use vw_serve::{
    Client, Daemon, DaemonConfig, JournalEvent, JournalQuery, SetupRegistry, Severity, Subscribe,
};

fn subscribe_all(client: &mut Client, interval_ms: u32) {
    client
        .subscribe(&Subscribe {
            interval_ms,
            prometheus_text: false,
            campaign: String::new(),
            journal_min_severity: Severity::Info,
        })
        .expect("subscribe");
}

/// The flagship end-to-end scenario: two campaigns run concurrently
/// while a telemetry subscriber watches. The stream must surface
/// per-campaign progress and rates, worker utilization, and journal
/// lifecycle events — and a direct journal query must agree.
#[test]
fn live_subscription_reports_campaigns_workers_and_journal() {
    let dir = common::scratch_dir("telemetry-live");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        workers: 2,
        telemetry_min_interval_ms: 10,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    let mut watcher = common::connect_unix_retry(&sock, Duration::from_secs(5));
    subscribe_all(&mut watcher, 20);

    // Two campaigns on two connections: a long one (256 fast instances)
    // and the canonical 16-instance sweep, streamed concurrently.
    let slow_sub = common::padded_submission("tele-a", 256, 8);
    let fast_sub = common::submission("tele-b", 4);
    let sock_a = sock.clone();
    let sub_a = slow_sub.clone();
    let runner_a = std::thread::spawn(move || {
        let mut client = common::connect_unix_retry(&sock_a, Duration::from_secs(5));
        client.submit(&sub_a).expect("submit tele-a");
        common::stream_all(&mut client)
    });
    let sock_b = sock.clone();
    let sub_b = fast_sub.clone();
    let runner_b = std::thread::spawn(move || {
        let mut client = common::connect_unix_retry(&sock_b, Duration::from_secs(5));
        client.submit(&sub_b).expect("submit tele-b");
        common::stream_all(&mut client)
    });

    // Watch deltas until both campaigns report complete, collecting
    // evidence along the way.
    let gauge = |m: &vw_obs::MetricsRegistry, name: &str| m.gauge(name).unwrap_or(-1);
    let mut saw_rate_a = false;
    let mut kinds: BTreeSet<String> = BTreeSet::new();
    let mut last_journal_seq: Option<u64> = None;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(Instant::now() < deadline, "campaigns never completed");
        let update = watcher.next_telemetry().expect("telemetry delta");
        for entry in &update.journal {
            // Journal delivery over the subscription never repeats and
            // never goes backwards.
            if let Some(last) = last_journal_seq {
                assert!(entry.seq > last, "journal seq regressed");
            }
            last_journal_seq = Some(entry.seq);
            kinds.insert(entry.event.kind().to_string());
        }
        let m = &update.metrics;
        assert_eq!(gauge(m, "serve.workers"), 2);
        assert!((0..=2).contains(&gauge(m, "serve.workers_busy")));
        if gauge(m, "serve.campaign.inst_per_sec_milli|campaign=tele-a") > 0 {
            saw_rate_a = true;
        }
        let done_a = gauge(m, "serve.campaign.completed|campaign=tele-a");
        let done_b = gauge(m, "serve.campaign.completed|campaign=tele-b");
        if done_a == 256 && done_b == 16 {
            assert_eq!(gauge(m, "serve.campaign.total|campaign=tele-a"), 256);
            assert_eq!(gauge(m, "serve.campaign.state|campaign=tele-a"), 2);
            assert_eq!(gauge(m, "serve.campaign.state|campaign=tele-b"), 2);
            // Counters rode along with the gauges in the same delta.
            assert_eq!(m.counter("serve.instances_completed"), Some(256 + 16));
            // Worker utilization as a cumulative fact, which this delta
            // must carry (a `serve.workers_busy` sample above zero is luck
            // at 20 ms ticks over a 70 ms run): (1 + 32) + (1 + 4) shards
            // were timed, each campaign's one-instance first shard among
            // them.
            let busy = m
                .histogram("serve.shard_wall_us")
                .expect("shard wall times");
            assert_eq!(busy.count(), (1 + 32) + (1 + 4));
            assert!(busy.sum() > 0, "workers were never busy");
            break;
        }
    }
    assert!(saw_rate_a, "per-campaign rate never observed");
    for kind in [
        "conn_accepted",
        "campaign_submitted",
        "campaign_checkpointed",
        "campaign_done",
    ] {
        assert!(
            kinds.contains(kind),
            "journal kind {kind} missing: {kinds:?}"
        );
    }

    // Both streams completed with the exact direct-run bytes.
    let (lines_a, summary_a) = runner_a.join().expect("tele-a thread");
    assert_eq!(lines_a.len(), 256);
    assert_eq!(summary_a, common::direct_summary(&slow_sub));
    let (lines_b, summary_b) = runner_b.join().expect("tele-b thread");
    assert_eq!(lines_b.len(), 16);
    assert_eq!(summary_b, common::direct_summary(&fast_sub));

    // A direct journal query sees the same history the stream did.
    let reply = watcher
        .journal_query(&JournalQuery {
            since_seq: 0,
            min_severity: Severity::Info,
            limit: 0,
        })
        .expect("journal query");
    assert!(reply.next_seq > 0);
    assert!(reply.first_seq <= reply.entries.first().map_or(0, |e| e.seq));
    assert!(
        reply.entries.windows(2).all(|w| w[0].seq < w[1].seq),
        "query entries out of order"
    );
    let query_kinds: BTreeSet<&str> = reply.entries.iter().map(|e| e.event.kind()).collect();
    assert!(query_kinds.contains("campaign_submitted"));
    assert!(query_kinds.contains("campaign_done"));

    // Severity filtering: at Error there is nothing (this run was clean).
    let errors = watcher
        .journal_query(&JournalQuery {
            since_seq: 0,
            min_severity: Severity::Error,
            limit: 0,
        })
        .expect("journal query");
    assert!(
        errors.entries.is_empty(),
        "unexpected errors: {:?}",
        errors.entries
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A telemetry subscriber that stops reading must cost only its own
/// ticks: the daemon drops deltas (counted) while campaigns keep
/// running at full speed and the connection stays usable.
#[test]
fn slow_subscriber_drops_ticks_without_pausing_campaigns() {
    let dir = common::scratch_dir("telemetry-slow");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        workers: 2,
        // A tiny outbox and a fast tick make the drop path trip quickly
        // once the stalled subscriber's socket buffer fills.
        outbox_frames: 2,
        telemetry_min_interval_ms: 5,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    // Subscribe with full Prometheus text per tick (big frames fill the
    // socket buffer fast), then stop reading.
    let mut stalled = common::connect_unix_retry(&sock, Duration::from_secs(5));
    stalled
        .subscribe(&Subscribe {
            interval_ms: 5,
            prometheus_text: true,
            campaign: String::new(),
            journal_min_severity: Severity::Info,
        })
        .expect("subscribe");

    // Campaigns are unaffected while the subscriber sits stalled: the
    // sweep completes with byte-exact output.
    let sub = common::submission("tele-slow", 4);
    let mut runner = common::connect_unix_retry(&sock, Duration::from_secs(5));
    runner.submit(&sub).expect("submit");
    let (lines, summary) = common::stream_all(&mut runner);
    assert_eq!(lines.len(), 16);
    assert_eq!(summary, common::direct_summary(&sub));

    // The drop counter must start climbing while the subscriber stays
    // stalled; campaigns stay unpaused throughout.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = runner.stats().expect("stats");
        assert!(
            stats.contains("serve_paused_campaigns 0"),
            "telemetry subscriber paused a campaign:\n{stats}"
        );
        if !stats.contains("serve_telemetry_dropped 0") && stats.contains("serve_telemetry_dropped")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "telemetry drops never counted:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The stalled connection is still healthy: draining it yields a
    // delta that admits how many ticks were dropped.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let update = stalled.next_telemetry().expect("stalled client drains");
        if update.dropped > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "drop count never reached client");
    }
    stalled.ping().expect("stalled connection still answers");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism pins survive a live subscriber: 1, 2, and 8 workers
/// with telemetry attached all produce byte-identical streams and the
/// exact direct-run summary.
#[test]
fn determinism_pins_hold_with_live_subscriber() {
    let mut reference: Option<(Vec<String>, String)> = None;
    for workers in [1usize, 2, 8] {
        let dir = common::scratch_dir(&format!("telemetry-det-{workers}"));
        let config = DaemonConfig {
            state_dir: dir.join("state"),
            workers,
            shard_size: 4,
            telemetry_min_interval_ms: 5,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::start(config, SetupRegistry::builtin()).expect("daemon starts");
        let sock = dir.join("vw.sock");
        daemon.bind_unix(&sock).expect("bind");

        let mut watcher = common::connect_unix_retry(&sock, Duration::from_secs(5));
        subscribe_all(&mut watcher, 5);
        // Consume at least one delta so the subscription is live, not
        // merely queued, while the campaign runs.
        watcher.next_telemetry().expect("first delta");

        let sub = common::submission("tele-det", 4);
        let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
        client.submit(&sub).expect("submit");
        let (lines, summary) = common::stream_all(&mut client);
        assert_eq!(summary, common::direct_summary(&sub));
        match &reference {
            None => reference = Some((lines, summary)),
            Some((ref_lines, ref_summary)) => {
                assert_eq!(&lines, ref_lines, "streams differ at {workers} workers");
                assert_eq!(&summary, ref_summary);
            }
        }
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Stall detection, end to end: a shard that outlives `stall_warn_ms`
/// journals one `WorkerStalled` however many ticks pass while it runs,
/// counts it, and still completes with the direct-run bytes.
#[test]
fn a_shard_past_the_stall_threshold_is_journaled_once_and_completes() {
    let dir = common::scratch_dir("telemetry-stall");
    let config = DaemonConfig {
        state_dir: dir.join("state"),
        workers: 1,
        stall_warn_ms: 1,
        ..DaemonConfig::default()
    };
    // Each instance sleeps through several 20 ms ticker passes.
    let mut registry = SetupRegistry::builtin();
    registry.register(
        "slow_flood",
        |tables: &vw_fsl::TableSet, run: &vw_campaign::RunConfig| {
            std::thread::sleep(Duration::from_millis(60));
            common::flood_setup(tables, run)
        },
    );
    let daemon = Daemon::start(config, registry).expect("daemon starts");
    let sock = dir.join("vw.sock");
    daemon.bind_unix(&sock).expect("bind");

    // Two instances in two shards: the one-instance first shard and one
    // more.
    let mut sub = common::padded_submission("tele-stall", 2, 8);
    sub.setup = "slow_flood".to_string();
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client.submit(&sub).expect("submit");
    let (lines, summary) = common::stream_all(&mut client);
    assert_eq!(lines.len(), 2);
    assert_eq!(summary, common::direct_summary(&sub));

    let warnings = client
        .journal_query(&JournalQuery {
            since_seq: 0,
            min_severity: Severity::Warn,
            limit: 0,
        })
        .expect("journal query");
    let stalls: Vec<&JournalEvent> = warnings.entries.iter().map(|e| &e.event).collect();
    assert!(
        matches!(
            stalls[..],
            [
                JournalEvent::WorkerStalled { worker: 0, campaign: first, .. },
                JournalEvent::WorkerStalled { worker: 0, campaign: second, .. },
            ] if first == "tele-stall" && second == "tele-stall"
        ),
        "one per shard: {stalls:?}"
    );
    let stats = client.stats().expect("stats");
    assert!(stats.contains("serve_worker_stalls 2\n"), "{stats}");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

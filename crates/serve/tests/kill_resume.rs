//! Checkpoint/resume determinism: a daemon stopped mid-sweep and
//! restarted on the same state directory streams exactly the bytes an
//! uninterrupted daemon streams, and its final summary matches a direct
//! in-process `run_campaign` — at 1, 2, and 8 worker threads.

mod common;

use std::time::Duration;

use vw_serve::{Daemon, DaemonConfig, SetupRegistry};

fn daemon_config(state_dir: std::path::PathBuf, workers: usize) -> DaemonConfig {
    DaemonConfig {
        workers,
        // Small shards (8 per shard would be half the sweep) so a stop
        // mid-sweep actually lands between checkpoints: the one-instance
        // first shard, then seven of 2 and one of 1.
        shard_size: 2,
        state_dir,
        ..DaemonConfig::default()
    }
}

/// One uninterrupted daemon run of `sub`: returns (lines, summary).
fn uninterrupted(
    dir: &std::path::Path,
    workers: usize,
    sub: &vw_serve::Submission,
) -> (Vec<String>, String) {
    let daemon = Daemon::start(
        daemon_config(dir.join("state-uninterrupted"), workers),
        SetupRegistry::builtin(),
    )
    .expect("daemon starts");
    let sock = dir.join("u.sock");
    daemon.bind_unix(&sock).expect("bind");
    let mut client = common::connect_unix_retry(&sock, Duration::from_secs(5));
    client.submit(sub).expect("submit");
    let result = common::stream_all(&mut client);
    daemon.stop();
    result
}

/// Stop a daemon partway through `sub`, restart it on the same state
/// directory, attach, and return the full re-streamed (lines, summary).
fn interrupted(
    dir: &std::path::Path,
    workers: usize,
    sub: &vw_serve::Submission,
) -> (Vec<String>, String) {
    let state = dir.join("state-interrupted");
    let sock1 = dir.join("i1.sock");
    {
        let daemon = Daemon::start(
            daemon_config(state.clone(), workers),
            SetupRegistry::builtin(),
        )
        .expect("daemon starts");
        daemon.bind_unix(&sock1).expect("bind");
        let mut client = common::connect_unix_retry(&sock1, Duration::from_secs(5));
        client.submit(sub).expect("submit");
        // Let a few shards land, then stop. Whether zero, some, or all
        // shards completed by now, the resumed output must not change.
        std::thread::sleep(Duration::from_millis(40));
        daemon.stop();
    }

    let daemon = Daemon::start(daemon_config(state, workers), SetupRegistry::builtin())
        .expect("daemon restarts");
    let sock2 = dir.join("i2.sock");
    daemon.bind_unix(&sock2).expect("bind");
    let mut client = common::connect_unix_retry(&sock2, Duration::from_secs(5));
    let accepted = client.attach(&sub.campaign).expect("attach after restart");
    assert_eq!(accepted.total, 16);
    assert_eq!(accepted.shards, 9);
    let result = common::stream_all(&mut client);

    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("serve_campaigns_resumed 1"),
        "resume not counted:\n{stats}"
    );
    daemon.stop();
    result
}

fn check_workers(workers: usize) {
    let dir = common::scratch_dir(&format!("resume-w{workers}"));
    let sub = common::submission(&format!("resume-w{workers}"), 2);
    let expected_summary = common::direct_summary(&sub);

    let (base_lines, base_summary) = uninterrupted(&dir, workers, &sub);
    assert_eq!(base_lines.len(), 16);
    assert_eq!(
        base_summary, expected_summary,
        "daemon summary diverges from direct run_campaign"
    );

    let (resumed_lines, resumed_summary) = interrupted(&dir, workers, &sub);
    assert_eq!(
        resumed_lines, base_lines,
        "stop/restart changed the streamed instance lines"
    );
    assert_eq!(
        resumed_summary, expected_summary,
        "stop/restart changed the final summary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_is_byte_identical_one_worker() {
    check_workers(1);
}

#[test]
fn resume_is_byte_identical_two_workers() {
    check_workers(2);
}

#[test]
fn resume_is_byte_identical_eight_workers() {
    check_workers(8);
}

//! The measuring loops: the end-to-end pass (tracing off) and the traced
//! pass (spans, counts, probes).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::probes;
use crate::report::{Metric, RunResult, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::Samples;
use crate::workloads::{self, Outcome, Rep, Segment, Size, Workload};

/// Golden outcome digests for seed 1, `workload size digest` per line.
const GOLDEN: &str = include_str!("../golden/seed1.txt");

/// A fixed arithmetic loop: how fast this host is right now. Returns the
/// p10 and the median of 20 rounds, in milliseconds.
pub fn host_spin() -> (f64, f64) {
    let rounds: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let x = (0..400_000u64).fold(0u64, |acc, i| {
                acc.rotate_left(5) ^ std::hint::black_box(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let s = Samples::new(rounds);
    (s.p10(), s.median())
}

/// Repeats the workload for `seconds` (at least three repetitions).
fn repeat(workload: &mut dyn Workload, seconds: f64, reps: &mut Vec<Rep>) {
    let started = Instant::now();
    let floor = reps.len() + 3;
    while reps.len() < floor || started.elapsed().as_secs_f64() < seconds {
        reps.push(workload.rep(&mut Spans::new(false)));
    }
}

/// Discarded warm-up: two repetitions or 5% of the run, whichever is more.
fn warm_up(workload: &mut dyn Workload, seconds: f64) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < 2 || started.elapsed().as_secs_f64() < seconds * 0.05 {
        workload.rep(&mut Spans::new(false));
        reps += 1;
    }
}

/// The end-to-end pass: spans and `vw_trace` off.
pub fn end_to_end(name: &str, seed: u64, seconds: f64, size: Size) -> RunResult {
    let mut workload = workloads::make(name, seed, size).expect("known workload");
    warm_up(workload.as_mut(), seconds);
    let before = host_spin().0;
    let mut reps = Vec::new();
    repeat(workload.as_mut(), seconds, &mut reps);
    let after = host_spin().0;
    eprintln!("host.spin_p10_ms before {before:.4} after {after:.4}");
    // The host changed speed under the run: measure a third as long again
    // and pool, so the estimator has more repetitions to find quiet ones
    // in. (Pooling, because a discarded first part may have held the
    // only quiet stretch; a third, because every run of the driver's 136
    // may need it and they share one hour.)
    if (after / before - 1.0).abs() > 0.10 {
        eprintln!("host speed drifted by more than 10%: extending the run once");
        repeat(workload.as_mut(), seconds / 3.0, &mut reps);
    }
    let mut result = summarize(&reps);
    check_outputs(name, seed, size, &reps, &mut result);
    result
}

/// The gated value of a host-time quantity: for each segment of the
/// repetition, its fastest sample over all repetitions (the one the host
/// disturbed least; see README.md, "Estimator"). Callers sum the segments
/// (a total) or take their median (a typical one).
fn quiet(reps: &[Rep], f: impl Fn(&Segment) -> f64) -> Vec<f64> {
    (0..reps[0].segments.len())
        .map(|k| {
            reps.iter()
                .map(|r| f(&r.segments[k]))
                .fold(f64::MAX, f64::min)
        })
        .collect()
}

/// Per-repetition totals of a per-segment quantity, as samples.
fn totals(reps: &[Rep], f: impl Fn(&Segment) -> f64) -> Samples {
    Samples::new(
        reps.iter()
            .map(|r| r.segments.iter().map(&f).sum())
            .collect(),
    )
}

/// `(median, highest supported percentile, its value, n)` of `samples`,
/// mapped through `f` (a scale for times, `count / t` for rates).
fn spread(samples: &Samples, f: impl Fn(f64) -> f64) -> Option<(f64, f64, f64, usize)> {
    let (pct, high) = samples.high_percentile();
    Some((f(samples.median()), pct, f(high), samples.n()))
}

fn summarize(reps: &[Rep]) -> RunResult {
    let first = &reps[0].out;
    let run = totals(reps, |s| s.run_s);
    let run_s: f64 = quiet(reps, |s| s.run_s).iter().sum();
    let frames = first.frames as f64;
    let events = first.events as f64;
    let rate = |name, unit, count: f64| Metric {
        name,
        unit,
        value: count / run_s,
        spread: spread(&run, |t| count / t),
    };
    let exact = |name, unit, value| Metric {
        name,
        unit,
        value,
        spread: None,
    };
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| match name {
            "setup_s" => Metric {
                name,
                unit,
                value: quiet(reps, |s| s.setup_s).iter().sum(),
                spread: spread(&totals(reps, |s| s.setup_s), |t| t),
            },
            "frames_per_s" => rate(name, unit, frames),
            "events_per_s" => rate(name, unit, events),
            "sim_ms_per_host_ms" => rate(name, unit, first.sim_ns as f64 / 1e9),
            "instances_per_s" => rate(name, unit, first.instances as f64),
            // A typical segment's time to its first verdict.
            "first_outcome_ms" => Metric {
                name,
                unit,
                value: Samples::new(quiet(reps, |s| s.first_outcome_s)).median() * 1e3,
                spread: spread(
                    &Samples::new(
                        reps.iter()
                            .flat_map(|r| r.segments.iter().map(|s| s.first_outcome_s))
                            .collect(),
                    ),
                    |t| t * 1e3,
                ),
            },
            "events_per_frame" => exact(name, unit, events / frames),
            "allocs_per_frame" => exact(
                name,
                unit,
                totals(reps, |s| s.run_allocs as f64).median() / frames,
            ),
            // The 90th percentile over repetitions: identical to any other
            // for the single-threaded workloads, and for the daemon, where
            // a 1.6 MB allocation lands inside about half the repetitions
            // depending on thread timing, the one that does not flip.
            "peak_heap_bytes" => exact(
                name,
                unit,
                Samples::new(reps.iter().map(|r| r.peak_heap as f64).collect()).quantile(0.9),
            ),
            _ => unreachable!("the metric table and this match agree"),
        })
        .collect();
    RunResult {
        correct: true,
        why_incorrect: String::new(),
        attempted: reps.iter().map(|r| r.out.attempted).sum(),
        failed: reps.iter().map(|r| r.out.failed).sum(),
        metrics,
    }
}

/// What must be identical between two repetitions of one workload.
fn simulated(out: &Outcome) -> (u64, u64, u64, u64) {
    (out.digest, out.frames, out.events, out.sim_ns)
}

/// Output checks: every repetition simulated exactly what the first did,
/// no operation failed, and for seed 1 the outcome digest is the pinned
/// one.
fn check_outputs(name: &str, seed: u64, size: Size, reps: &[Rep], result: &mut RunResult) {
    let first = &reps[0].out;
    let size = format!("{size:?}").to_lowercase();
    eprintln!("digest {name} {size} {:016x}", first.digest);
    for (i, rep) in reps.iter().enumerate() {
        if simulated(&rep.out) != simulated(first) {
            result.failed += 1;
            result.fail(format!(
                "repetition {i} simulated something else than repetition 0"
            ));
        }
    }
    if result.failed > 0 {
        result.fail(format!(
            "{} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    if seed == 1 {
        let pinned = GOLDEN.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(name) && words.next() == Some(&size))
                .then(|| words.next())
                .flatten()
        });
        let digest = format!("{:016x}", first.digest);
        if pinned != Some(digest.as_str()) {
            result.failed += 1;
            result.fail(format!(
                "seed-1 outcome digest {digest} is not the pinned {pinned:?}"
            ));
        }
    }
}

/// The traced pass: the workload alternately untraced and traced (the
/// benchmark's spans plus `vw_trace`), then the layer probes.
pub fn traced(name: &str, seed: u64, seconds: f64, size: Size, trace_dir: &str) -> RunResult {
    let mut workload = workloads::make(name, seed, size).expect("known workload");
    warm_up(workload.as_mut(), seconds / 2.0);
    let spin = host_spin();
    let mut spans = Spans::new(true);
    let mut plain = Vec::new();
    let mut traced: Vec<(f64, Rep)> = Vec::new();
    let mut breakdown = vw_trace::PhaseBreakdown::default();
    let started = Instant::now();
    while traced.len() < 3 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let t = Instant::now();
        let rep = workload.rep(&mut Spans::new(false));
        plain.push((t.elapsed().as_secs_f64(), rep));
        spans.set_rep(traced.len() as u32);
        vw_trace::enable(1 << 19);
        let t = Instant::now();
        let rep = {
            // The root every in-program span nests under: its self time
            // is what no in-program category covers.
            let _run = vw_trace::span("run", vw_trace::Category::Run);
            workload.rep(&mut spans)
        };
        let wall = t.elapsed().as_secs_f64();
        let trace = vw_trace::disable();
        if traced.is_empty() {
            breakdown = trace.phase_breakdown();
        }
        traced.push((wall, rep));
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let fastest = |v: &[(f64, Rep)]| v.iter().map(|(wall, _)| *wall).fold(f64::MAX, f64::min);
    values.insert(
        "trace.overhead_pct",
        (fastest(&traced) / fastest(&plain) - 1.0) * 100.0,
    );
    let self_total = breakdown.total_self_ns().max(1) as f64;
    for (name, category) in [
        ("trace.event_self_share", vw_trace::Category::Event),
        ("trace.run_self_share", vw_trace::Category::Run),
        ("trace.classify_self_share", vw_trace::Category::Classify),
        ("trace.cascade_self_share", vw_trace::Category::Cascade),
        ("trace.action_self_share", vw_trace::Category::Action),
        ("trace.tcp_self_share", vw_trace::Category::Tcp),
    ] {
        let self_ns = breakdown.get(category).map_or(0, |s| s.self_ns);
        values.insert(name, self_ns as f64 / self_total);
    }

    // Phase self times: per repetition, summed by span name; the median
    // over repetitions is reported. `rep` is the root: its self time is
    // what no named phase covers.
    let by_rep = spans.self_by_rep();
    let phase = |name: &str| {
        Samples::new(
            by_rep
                .values()
                .map(|m| m.get(name).copied().unwrap_or(0) as f64 / 1e3)
                .collect(),
        )
        .median()
    };
    let mut named_us = 0.0;
    for &(name, _) in &PER_LAYER {
        if let Some(span) = name
            .strip_prefix("phase.")
            .and_then(|n| n.strip_suffix("_us"))
        {
            let us = phase(span);
            named_us += us;
            values.insert(name, us);
        }
    }
    let attributed = named_us / (named_us + phase("rep"));
    values.insert("phase.attributed_share", attributed);

    values.extend(traced[0].1.out.counts.iter().copied());
    values.extend([("host.spin_p10_ms", spin.0), ("host.spin_p50_ms", spin.1)]);
    values.extend(probes::run_all(seed, size));

    let reps: Vec<Rep> = plain
        .into_iter()
        .chain(traced)
        .map(|(_, rep)| rep)
        .collect();
    let mut result = RunResult {
        correct: true,
        why_incorrect: String::new(),
        attempted: reps.iter().map(|r| r.out.attempted).sum(),
        failed: reps.iter().map(|r| r.out.failed).sum(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values.remove(name).unwrap_or(0.0),
                spread: None,
            })
            .collect(),
    };
    assert!(
        values.is_empty(),
        "values without a PER_LAYER row: {values:?}"
    );
    // Traced and untraced repetitions must simulate the same thing.
    check_outputs(name, seed, size, &reps, &mut result);
    if attributed < 0.95 {
        result.fail("less than 95% of the repetition is attributed to named phases");
    }

    let path = std::path::Path::new(trace_dir).join(format!("{name}.trace.json"));
    let written = std::fs::create_dir_all(trace_dir)
        .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => result.fail(format!("cannot write {}: {e}", path.display())),
    }
    result
}

//! Metric names and units, and the result line.
//!
//! The two tables below are the benchmark's vocabulary; `BENCHMARK.json`
//! lists the same names (a test compares them) with direction and bound.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("events_per_s", "events/s"),
    ("events_per_frame", "count"),
    ("allocs_per_frame", "count"),
    ("peak_heap_bytes", "B"),
    ("sim_ms_per_host_ms", "ratio"),
    ("instances_per_s", "inst/s"),
    ("first_outcome_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. Rows
/// of a layer the traced workload does not use read 0.
pub const PER_LAYER: [(&str, &str); 78] = [
    // The benchmark's own spans: self time per repetition, by phase.
    ("phase.rehearse_us", "us"),
    ("phase.compile_us", "us"),
    ("phase.build_world_us", "us"),
    ("phase.install_us", "us"),
    ("phase.settle_us", "us"),
    ("phase.attach_us", "us"),
    ("phase.run_us", "us"),
    ("phase.submit_us", "us"),
    ("phase.stream_us", "us"),
    ("phase.report_us", "us"),
    ("phase.attributed_share", "ratio"),
    // Traced against untraced repetitions, and vw_trace's categories.
    ("trace.overhead_pct", "%"),
    ("trace.event_self_share", "ratio"),
    ("trace.run_self_share", "ratio"),
    ("trace.classify_self_share", "ratio"),
    ("trace.cascade_self_share", "ratio"),
    ("trace.action_self_share", "ratio"),
    ("trace.tcp_self_share", "ratio"),
    // packet
    ("packet.build_udp64_ns", "ns"),
    ("packet.build_tcp1400_ns", "ns"),
    ("packet.parse_ns", "ns"),
    ("packet.arena_cycle_ns", "ns"),
    ("packet.allocs_per_build", "count"),
    // netsim
    ("netsim.timer_event_ns", "ns"),
    ("netsim.link_hop_ns", "ns"),
    ("netsim.events_per_hop", "count"),
    ("netsim.hook_chain8_ns", "ns"),
    ("netsim.scale16_events_per_s", "events/s"),
    ("netsim.scale256_events_per_s", "events/s"),
    ("netsim.scale_flatness", "ratio"),
    // rll
    ("rll.window_cycle_ns", "ns"),
    ("rll.frame_cycle_ns", "ns"),
    ("rll.acks_per_data", "ratio"),
    ("rll.retransmits", "count"),
    // rether
    ("rether.token_hop_ns", "ns"),
    ("rether.token_hops", "count"),
    ("rether.regens", "count"),
    // tcpstack
    ("tcpstack.segment_ns", "ns"),
    ("tcpstack.retransmits", "count"),
    ("tcpstack.acks_per_segment", "ratio"),
    // fsl
    ("fsl.parse_us", "us"),
    ("fsl.compile_us", "us"),
    ("fsl.print_us", "us"),
    // core
    ("core.classify_indexed_ns", "ns"),
    ("core.classify_linear25_ns", "ns"),
    ("core.rules_scanned_per_frame", "count"),
    ("core.engine_pass_ns", "ns"),
    ("core.cascade_action25_ns", "ns"),
    ("core.fault_action_ns", "ns"),
    ("core.control_frames", "count"),
    ("core.control_retransmits", "count"),
    ("core.max_cascade_depth", "count"),
    ("core.wire_codec_ns", "ns"),
    // campaign
    ("campaign.enumerate_us", "us"),
    ("campaign.instance_setup_us", "us"),
    ("campaign.instance_run_us", "us"),
    ("campaign.digest_jsonl_us", "us"),
    ("campaign.scale_2t_over_1t", "ratio"),
    // serve
    ("serve.frame_encode_ns", "ns"),
    ("serve.frame_decode_ns", "ns"),
    ("serve.crc32_mb_s", "MB/s"),
    ("serve.checkpoint_append_us", "us"),
    ("serve.checkpoint_appends", "count"),
    ("serve.ping_rtt_us", "us"),
    ("serve.daemon_overhead_pct", "%"),
    ("serve.telemetry_overhead_pct", "%"),
    ("serve.rate_last_over_first", "ratio"),
    ("serve.first_outcome_p95_ms", "ms"),
    ("serve.campaign_p50_ms", "ms"),
    ("serve.backpressure_pauses", "count"),
    ("serve.telemetry_dropped", "count"),
    // obs
    ("obs.faults_overhead_pct", "%"),
    ("obs.full_overhead_pct", "%"),
    ("obs.delta_encode_us", "us"),
    // The paper's own overhead points (simulated; also output-checked).
    ("paper.fig7_loss_pct", "%"),
    ("paper.fig8_rtt_overhead_pct", "%"),
    // Noisy-host sentinel.
    ("host.spin_p10_ms", "ms"),
    ("host.spin_p50_ms", "ms"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from one of the tables above.
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The gated value.
    pub value: f64,
    /// For timings: `(median, high percentile, its value, samples)`.
    pub spread: Option<(f64, f64, f64, usize)>,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// First failed check, for the operator.
    pub why_incorrect: String,
    /// Operations attempted (repetitions' own counts, summed).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

/// A finite number with all its digits; non-finite values (a bug) read
/// as 0 so the line stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl RunResult {
    /// Fails the run (keeps the first reason).
    pub fn fail(&mut self, why: impl Into<String>) {
        if self.correct {
            self.why_incorrect = why.into();
        }
        self.correct = false;
    }

    fn head(&self) -> String {
        format!(
            "\"correct\":{},\"attempted\":{},\"failed\":{}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The result line the benchmark contract asks for.
    pub fn to_json_line(&self) -> String {
        let mut s = format!("{{{},\"metrics\":{{", self.head());
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{comma}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The `--out` record: the result line plus workload, seed, and for
    /// each timing its median, highest supported percentile and `n`.
    pub fn to_record(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},{},\"metrics\":{{",
            self.head()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                s,
                "{comma}\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                num(m.value),
                m.unit
            );
            if let Some((median, pct, high, n)) = m.spread {
                let _ = write!(
                    s,
                    ",\"median\":{},\"p{}\":{},\"n\":{n}",
                    num(median),
                    num(pct),
                    num(high)
                );
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

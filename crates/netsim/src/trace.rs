//! Packet trace capture — the simulator's tcpdump.
//!
//! Every interesting frame event in a [`World`](crate::World) is appended to
//! a [`TraceSink`]. VirtualWire's Fault Analysis Engine works *online* (it
//! counts packets as they pass), but the trace remains invaluable for test
//! assertions and for the kind of manual inspection the paper's introduction
//! complains about having to do before VirtualWire existed.

use std::fmt;

use vw_packet::Frame;

use crate::id::DeviceId;
use crate::time::SimTime;

/// What happened to a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A host's stack handed the frame to the wire-side machinery.
    HostSend,
    /// A frame was delivered up to a host's protocol stack.
    HostRecv,
    /// The frame never reached the far end of its link: the link lost it,
    /// the control-plane impairment dropped it, or the port it was sent
    /// on has no link at all (note `port not connected`).
    LinkLoss,
    /// The physical link flipped bits in the frame.
    LinkCorrupt,
    /// A bounded transmit queue overflowed and dropped the frame.
    QueueDrop,
    /// A hook consumed the frame (e.g. an injected DROP fault).
    HookConsume,
    /// A hook emitted a frame (e.g. an injected DUP copy or a control
    /// message).
    HookEmit,
    /// A host's address filter refused a frame addressed to another host.
    /// A copy from a link is refused where it crosses into the host,
    /// without an arrival event, so this record is captured up to one
    /// hop's delay ahead of its stamp, the time the frame arrives; a run
    /// cut short can hold one stamped past the cut.
    AddrFilterDrop,
    /// A switch dropped a frame whose destination it learned on the port
    /// the frame came in on.
    SwitchFilter,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::HostSend => "host-send",
            TraceKind::HostRecv => "host-recv",
            TraceKind::LinkLoss => "link-loss",
            TraceKind::LinkCorrupt => "link-corrupt",
            TraceKind::QueueDrop => "queue-drop",
            TraceKind::HookConsume => "hook-consume",
            TraceKind::HookEmit => "hook-emit",
            TraceKind::AddrFilterDrop => "addr-filter-drop",
            TraceKind::SwitchFilter => "switch-filter",
        };
        f.write_str(s)
    }
}

/// One record in the packet trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// The device at which it happened.
    pub device: DeviceId,
    /// What happened.
    pub kind: TraceKind,
    /// The frame involved, if any ([`TraceKind::HookConsume`] records may
    /// omit it).
    pub frame: Option<Frame>,
    /// Free-form annotation (hook name, drop reason, ...).
    pub note: String,
}

/// An append-only capture of trace records with query helpers. A new
/// sink captures; [`World::render_trace`](crate::World::render_trace)
/// renders it with the world's device names.
///
/// Records are kept in capture order, which is time order except for
/// [`TraceKind::AddrFilterDrop`]: such a record is captured when its frame
/// leaves the last link, up to one hop's delay before the time it carries.
///
/// ```
/// use vw_netsim::TraceSink;
/// let sink = TraceSink::default();
/// assert!(sink.is_enabled());
/// assert!(sink.records().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    disabled: bool,
}

impl TraceSink {
    /// Whether records are being captured at all.
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Enables or disables capture.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    /// Appends a record. When disabled this is a no-op: `note` does not
    /// run and the frame is not cloned, so a call site pays for neither.
    pub fn record(
        &mut self,
        time: SimTime,
        device: DeviceId,
        kind: TraceKind,
        frame: Option<&Frame>,
        note: impl FnOnce() -> String,
    ) {
        if self.disabled {
            return;
        }
        self.records.push(TraceRecord {
            time,
            device,
            kind,
            frame: frame.cloned(),
            note: note(),
        });
    }

    /// All records, in capture order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Discards all captured records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Frame-carrying records as `(time, frame)` pairs, in capture order
    /// (the shape pcap exporters and timeline tools want).
    pub fn frames(&self) -> impl Iterator<Item = (SimTime, &Frame)> {
        self.records
            .iter()
            .filter_map(|r| r.frame.as_ref().map(|f| (r.time, f)))
    }

    /// Records of a given kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_packet::{EtherType, EthernetBuilder, MacAddr};

    fn frame(src: u32) -> Frame {
        EthernetBuilder::new()
            .src(MacAddr::from_index(src))
            .dst(MacAddr::BROADCAST)
            .ethertype(EtherType::RETHER)
            .build()
    }

    fn record(sink: &mut TraceSink, kind: TraceKind, frame: Option<&Frame>, note: &str) {
        let at = DeviceId::from_index(0);
        sink.record(SimTime::ZERO, at, kind, frame, || note.into());
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut sink = TraceSink::default();
        for i in 0..5 {
            sink.record(
                SimTime::from_nanos(i),
                DeviceId::from_index(0),
                TraceKind::HostSend,
                Some(&frame(1)),
                || "t".into(),
            );
        }
        assert_eq!(sink.len(), 5);
        assert!(sink.records().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn toggling_enabled() {
        let mut sink = TraceSink::default();
        assert!(sink.is_enabled());
        sink.set_enabled(false);
        assert!(!sink.is_enabled());
        record(&mut sink, TraceKind::HookConsume, None, "x");
        sink.set_enabled(true);
        record(&mut sink, TraceKind::HookConsume, None, "y");
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.records()[0].note, "y");
    }

    #[test]
    fn queries_by_kind() {
        let mut sink = TraceSink::default();
        record(&mut sink, TraceKind::HostSend, Some(&frame(1)), "");
        record(&mut sink, TraceKind::QueueDrop, Some(&frame(1)), "");
        assert_eq!(sink.of_kind(TraceKind::QueueDrop).count(), 1);
        assert_eq!(sink.frames().count(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }
}

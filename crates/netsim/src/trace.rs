//! Packet trace capture — the simulator's tcpdump.
//!
//! Every interesting frame event in a [`World`](crate::World) is appended to
//! a [`TraceSink`]. VirtualWire's Fault Analysis Engine works *online* (it
//! counts packets as they pass), but the trace remains invaluable for test
//! assertions and for the kind of manual inspection the paper's introduction
//! complains about having to do before VirtualWire existed.

use std::fmt;
use std::rc::Rc;

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
    /// Free-form annotation from a hook or protocol.
    Note,
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
            TraceKind::Note => "note",
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
    /// The frame involved, if any ([`TraceKind::Note`] records may omit it).
    pub frame: Option<Frame>,
    /// Free-form annotation (hook name, drop reason, ...).
    pub note: String,
}

impl TraceRecord {
    /// One-line rendering in a loosely tcpdump-flavored format, with the
    /// device shown by its raw id (`dev3`). Prefer
    /// [`TraceSink::render_record`], which resolves registered names.
    pub fn render(&self) -> String {
        self.render_as(&self.device.to_string())
    }

    /// Like [`render`](Self::render) but with a caller-resolved device
    /// label (a topology name such as `node2` instead of `dev3`).
    fn render_as(&self, device: &str) -> String {
        match &self.frame {
            Some(f) => format!(
                "{} {} {} {} > {} type {} len {} {}",
                self.time,
                device,
                self.kind,
                f.src(),
                f.dst(),
                f.ethertype(),
                f.len(),
                self.note
            ),
            None => format!("{} {} {} {}", self.time, device, self.kind, self.note),
        }
    }
}

/// An append-only capture of trace records with query helpers.
///
/// Records are kept in capture order, which is time order except for
/// [`TraceKind::AddrFilterDrop`]: such a record is captured when its frame
/// leaves the last link, up to one hop's delay before the time it carries.
///
/// ```
/// use vw_netsim::{TraceSink, TraceKind};
/// let sink = TraceSink::new();
/// assert_eq!(sink.len(), 0);
/// assert!(sink.records().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    enabled: bool,
    /// Topology names indexed by [`DeviceId`] index, shared with the
    /// devices that carry them; `None` = unregistered.
    names: Vec<Option<Rc<str>>>,
}

impl TraceSink {
    /// Creates an enabled sink that captures full frame bytes.
    pub fn new() -> Self {
        TraceSink {
            records: Vec::new(),
            enabled: true,
            names: Vec::new(),
        }
    }

    /// Registers a stable topology name for a device, so renders and
    /// downstream analysis identify it as e.g. `node2` rather than the
    /// construction-order-dependent `dev3`. Identity metadata is kept even
    /// when capture is disabled and survives [`clear`](Self::clear). A
    /// name passed as `Rc<str>` is shared, not copied.
    pub fn register_device(&mut self, device: DeviceId, name: impl Into<Rc<str>>) {
        let index = device.index();
        if self.names.len() <= index {
            self.names.resize(index + 1, None);
        }
        self.names[index] = Some(name.into());
    }

    /// The registered name of a device, if any.
    pub fn device_name(&self, device: DeviceId) -> Option<&str> {
        self.names
            .get(device.index())?
            .as_deref()
            .filter(|n| !n.is_empty())
    }

    /// The display label for a device: its registered topology name, or
    /// the raw `dev{N}` id when none was registered.
    fn device_label(&self, device: DeviceId) -> String {
        match self.device_name(device) {
            Some(name) => name.to_string(),
            None => device.to_string(),
        }
    }

    /// Renders one record with its device resolved to a registered name.
    pub fn render_record(&self, record: &TraceRecord) -> String {
        record.render_as(&self.device_label(record.device))
    }

    /// Whether records are being captured at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables capture.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
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
        if !self.enabled {
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

    /// Renders the whole capture as text, one record per line, resolving
    /// device ids to registered topology names.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&self.render_record(r));
            out.push('\n');
        }
        out
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

    #[test]
    fn records_accumulate_in_order() {
        let mut sink = TraceSink::new();
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
        let mut sink = TraceSink::new();
        sink.set_enabled(false);
        assert!(!sink.is_enabled());
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(0),
            TraceKind::Note,
            None,
            || "x".into(),
        );
        sink.set_enabled(true);
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(0),
            TraceKind::Note,
            None,
            || "y".into(),
        );
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.records()[0].note, "y");
    }

    #[test]
    fn render_produces_one_line_per_record() {
        let mut sink = TraceSink::new();
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(2),
            TraceKind::LinkLoss,
            Some(&frame(1)),
            || "unlucky".into(),
        );
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(2),
            TraceKind::Note,
            None,
            || "hello".into(),
        );
        let text = sink.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("link-loss"));
        assert!(text.contains("unlucky"));
        assert!(text.contains("hello"));
    }

    #[test]
    fn registered_names_resolve_in_renders() {
        let mut sink = TraceSink::new();
        sink.register_device(DeviceId::from_index(2), "node2");
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(2),
            TraceKind::Note,
            None,
            || "named".into(),
        );
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(5),
            TraceKind::Note,
            None,
            || "anon".into(),
        );
        assert_eq!(sink.device_name(DeviceId::from_index(2)), Some("node2"));
        assert_eq!(sink.device_name(DeviceId::from_index(5)), None);
        assert_eq!(sink.device_label(DeviceId::from_index(5)), "dev5");
        let text = sink.render();
        assert!(text.contains("node2 note named"));
        assert!(text.contains("dev5 note anon"));
        // The raw per-record render keeps the id-based fallback.
        assert!(sink.records()[0].render().contains("dev2"));
    }

    #[test]
    fn names_survive_clear_and_disabled_capture() {
        let mut sink = TraceSink::new();
        sink.set_enabled(false);
        sink.register_device(DeviceId::from_index(0), "node1");
        sink.clear();
        assert_eq!(sink.device_name(DeviceId::from_index(0)), Some("node1"));
    }

    #[test]
    fn queries_by_kind() {
        let mut sink = TraceSink::new();
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(0),
            TraceKind::HostSend,
            Some(&frame(1)),
            String::new,
        );
        sink.record(
            SimTime::ZERO,
            DeviceId::from_index(1),
            TraceKind::QueueDrop,
            Some(&frame(1)),
            String::new,
        );
        assert_eq!(sink.of_kind(TraceKind::QueueDrop).count(), 1);
        sink.clear();
        assert!(sink.is_empty());
    }
}

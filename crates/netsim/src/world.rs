//! The simulation world: topology, event loop, and dispatch.

use std::any::Any;
use std::fmt;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vw_packet::{EtherType, Frame, MacAddr, MacMap};

use crate::context::{Context, Effect};
use crate::device::{Device, Host, Port, PortStats, Switch};
use crate::event::{EventKind, EventQueue, Hop};
use crate::hook::{Hook, Verdict};
use crate::id::{DeviceId, HandlerRef, HookId, LinkId, PortRef, ProtocolId};
use crate::link::{Link, LinkConfig};
use crate::protocol::{Binding, Protocol};
use crate::time::{multiplied_serialization_time, ns_per_byte, serialization_time};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceKind, TraceRecord, TraceSink};

/// Per-frame on-the-wire overhead: preamble (8) + FCS (4) + inter-frame gap
/// (12 byte-times), charged during serialization for realistic throughput.
pub const WIRE_OVERHEAD_BYTES: usize = 24;

/// Minimum Ethernet frame size (before overhead); shorter frames are padded
/// on the wire.
pub const MIN_FRAME_BYTES: usize = 60;

/// A deterministic discrete-event simulation of a LAN testbed.
///
/// The `World` owns every device, link, handler and the event queue. Build
/// a topology with [`add_host`](World::add_host),
/// [`add_switch`](World::add_switch), [`add_hub`](World::add_hub) and
/// [`connect`](World::connect); install protocol handlers and hooks; then
/// drive time with [`run_until`](World::run_until) /
/// [`run_for`](World::run_for) / [`step`](World::step).
///
/// Runs are exactly reproducible: the same seed and the same sequence of
/// calls produce the same trace.
///
/// # Examples
///
/// ```
/// use vw_netsim::{LinkConfig, SimDuration, World};
///
/// let mut world = World::new(42);
/// let a = world.add_host("node1");
/// let b = world.add_host("node2");
/// let sw = world.add_switch("sw0", 4);
/// world.connect(a, sw, LinkConfig::fast_ethernet());
/// world.connect(b, sw, LinkConfig::fast_ethernet());
/// world.run_for(SimDuration::from_millis(1));
/// assert_eq!(world.now().as_nanos(), 1_000_000);
/// ```
pub struct World {
    devices: Vec<Device>,
    links: Vec<Link>,
    queue: EventQueue,
    now: SimTime,
    rng: StdRng,
    trace: TraceSink,
    stop_reason: Option<String>,
    /// Impairment applied to VirtualWire control frames (`0x88B5`) on
    /// their final hop to a host; inert by default.
    control_impairment: crate::error_model::ControlImpairment,
    host_count: u32,
    work: WorkCounts,
    /// Effects queued by the handlers being dispatched, as a stack: a
    /// dispatch remembers the length it found, its handler pushes above
    /// that, and the effects are applied from there up — each taken out of
    /// its slot first, since applying one may dispatch again — before the
    /// stack is cut back. Empty between events.
    effects: Vec<Option<Effect>>,
}

/// Exact counts of the event path's work, read through [`World::work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Pops by kind: arrivals, ends of transmission, timers, starts, hops.
    pub pops: [u64; 5],
    /// Pops due at the time the clock already read: ties, FIFO by push.
    pub same_tick_pops: u64,
    /// Keys written to a slot of the heap.
    pub moves: u64,
    /// Armed timers a cancel took out of the queue.
    pub cancels: u64,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("devices", &self.devices.len())
            .field("links", &self.links.len())
            .field("pending_events", &self.queue.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

impl World {
    /// Creates an empty world with a seeded deterministic RNG and a
    /// control-plane impairment in one step — the shape campaign sweeps
    /// need, where both knobs are axes of the explored fault space.
    pub fn with_impairment(seed: u64, impairment: crate::error_model::ControlImpairment) -> Self {
        let mut world = Self::new(seed);
        world.set_control_impairment(impairment);
        world
    }

    /// Creates an empty world with a seeded deterministic RNG.
    pub fn new(seed: u64) -> Self {
        World {
            devices: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            trace: TraceSink::default(),
            stop_reason: None,
            control_impairment: crate::error_model::ControlImpairment::none(),
            host_count: 0,
            work: WorkCounts::default(),
            effects: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Adds a host with an automatically assigned MAC (`02:00:…`) and IP
    /// (`192.168.1.x`).
    pub fn add_host(&mut self, name: &str) -> DeviceId {
        self.host_count += 1;
        let n = self.host_count;
        self.add_host_with(
            name,
            MacAddr::from_index(n),
            Ipv4Addr::new(192, 168, 1, (n % 250 + 1) as u8),
        )
    }

    /// Adds a host with explicit addresses.
    pub fn add_host_with(&mut self, name: &str, mac: MacAddr, ip: Ipv4Addr) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len());
        self.devices.push(Device::Host(Host {
            name: name.into(),
            mac,
            ip,
            port: Port::new(),
            hooks: Vec::new(),
            protocols: Vec::new(),
            failed: false,
        }));
        id
    }

    /// Adds a store-and-forward learning switch with `ports` ports.
    pub fn add_switch(&mut self, name: &str, ports: usize) -> DeviceId {
        self.push_switch(name, ports, Some(MacMap::default()))
    }

    /// Adds a hub with `ports` ports: every inbound frame is repeated on
    /// all other ports.
    ///
    /// This approximates a shared bus as a star of dedicated links; each
    /// output port serializes independently, so simultaneous senders are
    /// queued rather than collided. Rether's token discipline means at
    /// most one station transmits at a time anyway, making the
    /// approximation exact in its intended use.
    pub fn add_hub(&mut self, name: &str, ports: usize) -> DeviceId {
        self.push_switch(name, ports, None)
    }

    /// Adds a switch, or a hub when it has no learning table.
    fn push_switch(&mut self, name: &str, ports: usize, fdb: Option<MacMap<u16>>) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len());
        self.devices.push(Device::Switch(Switch {
            name: name.into(),
            ports: (0..ports).map(|_| Port::new()).collect(),
            fdb,
        }));
        id
    }

    /// Connects the first free port of `a` to the first free port of `b`.
    ///
    /// # Panics
    ///
    /// Panics if either device has no free port or an id is invalid.
    pub fn connect(&mut self, a: DeviceId, b: DeviceId, config: LinkConfig) -> LinkId {
        let pa = self.devices[a.index()]
            .free_port()
            .unwrap_or_else(|| panic!("{} has no free port", self.devices[a.index()].name()));
        let pb = self.devices[b.index()]
            .free_port()
            .unwrap_or_else(|| panic!("{} has no free port", self.devices[b.index()].name()));
        self.connect_ports(PortRef::new(a, pa), PortRef::new(b, pb), config)
    }

    /// Connects two explicit ports.
    ///
    /// # Panics
    ///
    /// Panics if a port does not exist or is already connected.
    pub fn connect_ports(&mut self, a: PortRef, b: PortRef, config: LinkConfig) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        for p in [a, b] {
            let port = self.devices[p.device.index()]
                .port_mut(p.port)
                .unwrap_or_else(|| panic!("no port {p}"));
            assert!(port.link.is_none(), "port {p} already connected");
            port.link = Some(id);
            port.ns_per_byte = ns_per_byte(config.rate_bps);
        }
        self.links.push(Link { a, b, config });
        id
    }

    // ------------------------------------------------------------------
    // Handler installation
    // ------------------------------------------------------------------

    /// Installs a protocol handler on `node` and schedules its `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host.
    pub fn add_protocol(
        &mut self,
        node: DeviceId,
        binding: Binding,
        protocol: Box<dyn Protocol>,
    ) -> ProtocolId {
        let host = self.devices[node.index()]
            .as_host_mut()
            .expect("protocols attach to hosts");
        host.protocols.push((binding, protocol));
        let id = ProtocolId::from_index(host.protocols.len() - 1);
        self.queue.push(
            self.now,
            EventKind::Start {
                node,
                handler: HandlerRef::Protocol(id),
            },
        );
        id
    }

    /// Appends a hook at the wire end of `node`'s chain (the first hook
    /// added is closest to the protocol stack) and schedules its
    /// `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host.
    pub fn add_hook(&mut self, node: DeviceId, hook: Box<dyn Hook>) -> HookId {
        let host = self.devices[node.index()]
            .as_host_mut()
            .expect("hooks attach to hosts");
        host.hooks.push(hook);
        let id = HookId::from_index(host.hooks.len() - 1);
        self.queue.push(
            self.now,
            EventKind::Start {
                node,
                handler: HandlerRef::Hook(id),
            },
        );
        id
    }

    /// Mutable access to an installed protocol, downcast to its concrete
    /// type. Returns `None` if the id or type does not match.
    pub fn protocol_mut<T: Protocol>(&mut self, node: DeviceId, id: ProtocolId) -> Option<&mut T> {
        let host = self.devices.get_mut(node.index())?.as_host_mut()?;
        let any: &mut dyn Any = host.protocols.get_mut(id.index())?.1.as_mut();
        any.downcast_mut::<T>()
    }

    /// Shared access to an installed protocol, downcast to its concrete
    /// type.
    pub fn protocol<T: Protocol>(&self, node: DeviceId, id: ProtocolId) -> Option<&T> {
        let host = self.devices.get(node.index())?.as_host()?;
        let any: &dyn Any = host.protocols.get(id.index())?.1.as_ref();
        any.downcast_ref::<T>()
    }

    /// Mutable access to an installed hook, downcast to its concrete type.
    pub fn hook_mut<T: Hook>(&mut self, node: DeviceId, id: HookId) -> Option<&mut T> {
        let host = self.devices.get_mut(node.index())?.as_host_mut()?;
        let any: &mut dyn Any = host.hooks.get_mut(id.index())?.as_mut();
        any.downcast_mut::<T>()
    }

    /// Shared access to an installed hook, downcast to its concrete type.
    pub fn hook<T: Hook>(&self, node: DeviceId, id: HookId) -> Option<&T> {
        let host = self.devices.get(node.index())?.as_host()?;
        let any: &dyn Any = host.hooks.get(id.index())?.as_ref();
        any.downcast_ref::<T>()
    }

    /// The first installed protocol of concrete type `T` on `node`, if
    /// any — for post-run inspection when the installer's
    /// [`ProtocolId`] is out of reach (e.g. a campaign `finish` hook).
    pub fn find_protocol<T: Protocol>(&self, node: DeviceId) -> Option<&T> {
        let host = self.devices.get(node.index())?.as_host()?;
        host.protocols.iter().find_map(|(_, proto)| {
            let any: &dyn Any = proto.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// The first installed hook of concrete type `T` on `node`, if any.
    pub fn find_hook<T: Hook>(&self, node: DeviceId) -> Option<&T> {
        let host = self.devices.get(node.index())?.as_host()?;
        host.hooks.iter().find_map(|hook| {
            let any: &dyn Any = hook.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// Schedules a fresh `on_start` callback for a handler at the current
    /// time — the way external drivers nudge an installed handler.
    pub fn poke(&mut self, node: DeviceId, handler: HandlerRef) {
        self.queue
            .push(self.now, EventKind::Start { node, handler });
    }

    // ------------------------------------------------------------------
    // Host info and control
    // ------------------------------------------------------------------

    /// The MAC address of a host.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host.
    pub fn host_mac(&self, node: DeviceId) -> MacAddr {
        self.devices[node.index()].as_host().expect("host").mac
    }

    /// The IPv4 address of a host.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host.
    pub fn host_ip(&self, node: DeviceId) -> Ipv4Addr {
        self.devices[node.index()].as_host().expect("host").ip
    }

    /// The name a device was created with.
    pub fn device_name(&self, node: DeviceId) -> &str {
        self.devices[node.index()].name()
    }

    /// Looks a device up by name.
    pub fn device_by_name(&self, name: &str) -> Option<DeviceId> {
        self.devices
            .iter()
            .position(|d| d.name() == name)
            .map(DeviceId::from_index)
    }

    /// Marks a host failed (silently discards all rx/tx) or restores it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a host.
    pub fn set_host_failed(&mut self, node: DeviceId, failed: bool) {
        self.devices[node.index()]
            .as_host_mut()
            .expect("host")
            .failed = failed;
    }

    /// Sets the control-plane impairment: drop/duplicate/reorder/delay
    /// applied to VirtualWire control frames (`0x88B5`) only, on their
    /// final hop to a host, so per-frame rates are exact regardless of
    /// how many switches the frame crosses. Data frames are never
    /// touched.
    pub fn set_control_impairment(&mut self, impairment: crate::error_model::ControlImpairment) {
        self.control_impairment = impairment;
    }

    /// The currently configured control-plane impairment.
    pub fn control_impairment(&self) -> crate::error_model::ControlImpairment {
        self.control_impairment
    }

    /// Counters for a device port (port 0 for hosts).
    pub fn port_stats(&self, port: PortRef) -> PortStats {
        match self.devices[port.device.index()].port(port.port) {
            Some(p) => PortStats {
                dropped: p.dropped,
                tx_frames: p.tx_frames,
                tx_bytes: p.tx_bytes,
                queued: p.queue.len(),
            },
            None => PortStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Clock and run loop
    // ------------------------------------------------------------------

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.work.pops.iter().sum()
    }

    /// The event path's work so far, counted exactly.
    pub fn work(&self) -> WorkCounts {
        let moves = self.queue.moves;
        WorkCounts { moves, ..self.work }
    }

    /// The read-only packet trace.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the packet trace (to clear or disable it).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// The packet trace as text, one
    /// [`render_trace_record`](Self::render_trace_record) line per record.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for record in self.trace.records() {
            out.push_str(&self.render_trace_record(record));
            out.push('\n');
        }
        out
    }

    /// One trace record as a line of loosely tcpdump-flavored text: time,
    /// device by name (`devN` when it has none), kind, the frame's
    /// addresses, EtherType and length, then the note.
    pub fn render_trace_record(&self, record: &TraceRecord) -> String {
        let (time, kind, note) = (record.time, record.kind, &record.note);
        let named = self.devices.get(record.device.index());
        let device = match named.map_or("", Device::name) {
            "" => record.device.to_string(),
            name => name.to_string(),
        };
        match &record.frame {
            Some(f) => format!(
                "{time} {device} {kind} {} > {} type {} len {} {note}",
                f.src(),
                f.dst(),
                f.ethertype(),
                f.len(),
            ),
            None => format!("{time} {device} {kind} {note}"),
        }
    }

    /// Requests that the run stop; `step` returns `false` from then on.
    pub fn request_stop(&mut self, reason: impl Into<String>) {
        if self.stop_reason.is_none() {
            self.stop_reason = Some(reason.into());
        }
    }

    /// The stop reason, if a stop was requested.
    pub fn stop_reason(&self) -> Option<&str> {
        self.stop_reason.as_deref()
    }

    /// Processes the next event. Returns `false` when the queue is empty
    /// or a stop was requested.
    pub fn step(&mut self) -> bool {
        if self.stop_reason.is_some() {
            return false;
        }
        let Some((time, kind)) = self.queue.pop() else {
            return false;
        };
        self.handle(time, kind);
        true
    }

    /// Processes every event due at exactly `time` (including events that
    /// handlers push at that same timestamp while the batch drains).
    /// Stops early if a stop is requested.
    fn step_batch(&mut self, time: SimTime) {
        let _span = vw_trace::span("event_batch", vw_trace::Category::Event);
        while self.stop_reason.is_none() {
            let Some(kind) = self.queue.pop_at(time) else {
                return;
            };
            self.handle(time, kind);
        }
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or a stop is requested. The clock is
    /// advanced to `deadline` even if the queue drains first.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_idle(deadline);
        if self.stop_reason.is_none() && self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now.saturating_add(duration);
        self.run_until(deadline);
    }

    /// Runs until the event queue is empty, a stop is requested, or the
    /// clock passes `max_time`. Returns `true` if the queue drained.
    pub fn run_until_idle(&mut self, max_time: SimTime) -> bool {
        while self.stop_reason.is_none() {
            match self.queue.peek_time() {
                // Drain the whole timestamp in one go: one peek per batch
                // instead of one per event.
                Some(t) if t <= max_time => self.step_batch(t),
                Some(_) => return false,
                None => return true,
            }
        }
        self.queue.is_empty()
    }

    /// Tears the world down at the end of a run: every hook gets one
    /// [`Hook::on_teardown`] call (in device order, stack-to-wire within
    /// each host) so frames still parked in delay lines or reorder
    /// buffers can be released or accounted for.
    ///
    /// Effects are applied synchronously — immediate sends reach the NIC
    /// queue and immediate `deliver_up`s reach the local stack — but no
    /// further queued events are processed: the wire is done. Deferred
    /// effects are enqueued but never fire. Idempotent only in the sense
    /// that hooks are expected to have nothing left to flush on a second
    /// call; the runner calls it exactly once.
    pub fn teardown(&mut self) {
        let device_count = self.devices.len();
        for d in 0..device_count {
            let node = DeviceId::from_index(d);
            let chain_len = match self.devices[d].as_host() {
                Some(h) => h.hooks.len(),
                None => continue,
            };
            for idx in 0..chain_len {
                self.with_hook(node, idx, |hook, ctx| hook.on_teardown(ctx));
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Moves the clock to `time`, where `kind` popped, counts the pop and
    /// handles it.
    fn handle(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "time went backwards");
        self.work.same_tick_pops += u64::from(time == self.now);
        self.now = time;
        let pops = &mut self.work.pops;
        match kind {
            EventKind::Arrive { to, frame } => {
                pops[0] += 1;
                self.handle_arrival(to, frame);
            }
            EventKind::TxComplete { port } => {
                pops[1] += 1;
                self.handle_tx_complete(port);
            }
            EventKind::Timer {
                node,
                handler,
                token,
            } => {
                pops[2] += 1;
                let _span = vw_trace::span("timer_dispatch", vw_trace::Category::Event);
                self.dispatch_timer(node, handler, token);
            }
            EventKind::Start { node, handler } => {
                pops[3] += 1;
                self.dispatch_start(node, handler);
            }
            EventKind::Hop { node, hop, frame } => {
                pops[4] += 1;
                self.hop(node, hop, frame);
            }
        }
    }

    fn handle_arrival(&mut self, to: PortRef, frame: Frame) {
        match &self.devices[to.device.index()] {
            Device::Host(h) => {
                if h.failed {
                    self.trace.record(
                        self.now,
                        to.device,
                        TraceKind::AddrFilterDrop,
                        Some(&frame),
                        || "host failed".into(),
                    );
                    return;
                }
                // Only a frame injected on the wire meets the filter here;
                // `cross_link` refuses a copy from a link before it is an
                // event.
                if !h.accepts(&frame) {
                    self.refuse(self.now, to.device, &frame);
                    return;
                }
                let chain_len = h.hooks.len() as u32;
                self.hop(to.device, Hop::Inbound(chain_len), frame);
            }
            Device::Switch(_) => self.switch_forward(to, frame),
        }
    }

    fn switch_forward(&mut self, ingress: PortRef, frame: Frame) {
        let Device::Switch(sw) = &mut self.devices[ingress.device.index()] else {
            unreachable!("switch_forward on non-switch");
        };
        let Some(fdb) = &mut sw.fdb else {
            return self.flood(ingress, frame);
        };
        let (src, dst) = (frame.src(), frame.dst());
        if !src.is_multicast() {
            fdb.insert(src, ingress.port);
        }
        let flooded = dst.is_broadcast() || dst.is_multicast();
        let out_port = if flooded {
            None
        } else {
            fdb.get(&dst).copied()
        };
        match out_port {
            Some(p) if p != ingress.port => {
                self.port_send(PortRef::new(ingress.device, p), frame);
            }
            Some(p) => {
                self.trace.record(
                    self.now,
                    ingress.device,
                    TraceKind::SwitchFilter,
                    Some(&frame),
                    || format!("destination on ingress port {p}"),
                );
            }
            None => {
                // Flood to all other connected ports.
                self.flood(ingress, frame);
            }
        }
    }

    /// Repeats `frame` out of every connected port except `ingress.port`,
    /// moving (not cloning) it into the final copy.
    fn flood(&mut self, ingress: PortRef, frame: Frame) {
        let nports = self.devices[ingress.device.index()].ports().len() as u16;
        let mut last: Option<u16> = None;
        for p in 0..nports {
            if p == ingress.port {
                continue;
            }
            let connected = self.devices[ingress.device.index()]
                .port(p)
                .is_some_and(|port| port.link.is_some());
            if connected {
                if let Some(prev) = last.replace(p) {
                    self.port_send(PortRef::new(ingress.device, prev), frame.clone());
                }
            }
        }
        if let Some(p) = last {
            self.port_send(PortRef::new(ingress.device, p), frame);
        }
    }

    fn handle_tx_complete(&mut self, at: PortRef) {
        let port = self.devices[at.device.index()].port_mut(at.port);
        let port = port.expect("tx-complete on missing port");
        let frame = port.in_flight.take().expect("tx-complete without frame");
        port.tx_frames += 1;
        port.tx_bytes += frame.len() as u64;
        if let Some(link_id) = port.link {
            self.cross_link(link_id, at, frame);
        }
        // Start the next transmission, if any; without one the empty
        // `in_flight` leaves the port idle.
        let port = self.devices[at.device.index()].port_mut(at.port);
        if let Some(next) = port.expect("port").queue.pop_front() {
            self.begin_tx(at, next);
        }
    }

    fn cross_link(&mut self, link_id: LinkId, from: PortRef, mut frame: Frame) {
        let link = &self.links[link_id.index()];
        let Some((peer, error_model)) = link.peer_of(from) else {
            return;
        };
        let propagation = link.config.propagation;
        use crate::error_model::LinkOutcome;
        match error_model.apply(&mut frame, &mut self.rng) {
            LinkOutcome::Lost => {
                self.trace.record(
                    self.now,
                    from.device,
                    TraceKind::LinkLoss,
                    Some(&frame),
                    || format!("on {link_id}"),
                );
            }
            outcome => {
                if let LinkOutcome::Corrupted { bits_flipped } = outcome {
                    self.trace.record(
                        self.now,
                        from.device,
                        TraceKind::LinkCorrupt,
                        Some(&frame),
                        || format!("{bits_flipped} bits flipped on {link_id}"),
                    );
                }
                let mut arrive = self.now.saturating_add(propagation);
                let mut duplicate = false;
                // Control-plane impairment: applied only to 0x88B5 frames
                // and only on their final hop (the receiving peer is a
                // host), so per-frame rates are exact across multi-switch
                // paths and the data plane is never perturbed.
                if !self.control_impairment.is_inert()
                    && frame.ethertype() == EtherType::VW_CONTROL
                    && matches!(self.devices[peer.device.index()], Device::Host(_))
                {
                    use crate::error_model::ControlFate;
                    match self.control_impairment.decide(&mut self.rng) {
                        ControlFate::Drop => {
                            self.trace.record(
                                self.now,
                                from.device,
                                TraceKind::LinkLoss,
                                Some(&frame),
                                || format!("control impairment drop on {link_id}"),
                            );
                            return;
                        }
                        ControlFate::Deliver {
                            duplicate: twice,
                            extra_ns,
                        } => {
                            arrive = arrive.saturating_add(SimDuration::from_nanos(extra_ns));
                            duplicate = twice;
                        }
                    }
                }
                let copy_arrives = arrive.saturating_add(SimDuration::from_nanos(1));
                // The address filter sees the bytes that arrive, after every
                // draw. A copy it refuses is recorded now and never
                // scheduled; a refused duplicate's record follows, as its
                // arrival would have.
                let refused = self.devices[peer.device.index()]
                    .as_host()
                    .is_some_and(|h| !h.accepts(&frame));
                if refused {
                    self.refuse(arrive, peer.device, &frame);
                    if duplicate {
                        self.refuse(copy_arrives, peer.device, &frame);
                    }
                } else {
                    if duplicate {
                        let copy = EventKind::Arrive {
                            to: peer,
                            frame: frame.clone(),
                        };
                        self.queue.push(copy_arrives, copy);
                    }
                    let to = peer;
                    self.queue
                        .push_with(arrive, || EventKind::Arrive { to, frame });
                }
            }
        }
    }

    /// Records a frame `host`'s address filter refused, stamped `at` the
    /// time it arrived or would have arrived.
    fn refuse(&mut self, at: SimTime, host: DeviceId, frame: &Frame) {
        self.trace
            .record(at, host, TraceKind::AddrFilterDrop, Some(frame), || {
                "not addressed to host".into()
            });
    }

    /// Enqueues a frame on a port's transmitter, beginning transmission if
    /// the port is idle.
    fn port_send(&mut self, at: PortRef, frame: Frame) {
        let Some(port) = self.devices[at.device.index()].port_mut(at.port) else {
            return;
        };
        let (kind, note) = if port.link.is_none() {
            (TraceKind::LinkLoss, "port not connected")
        } else if port.in_flight.is_none() {
            return self.begin_tx(at, frame);
        } else if port.queue.len() < port.queue_cap {
            return port.queue.push_back(frame);
        } else {
            port.dropped += 1;
            (TraceKind::QueueDrop, "tx queue overflow")
        };
        self.trace
            .record(self.now, at.device, kind, Some(&frame), || note.into());
    }

    fn begin_tx(&mut self, at: PortRef, frame: Frame) {
        let wire_bytes = frame.len().max(MIN_FRAME_BYTES) + WIRE_OVERHEAD_BYTES;
        let port = self.devices[at.device.index()].port_mut(at.port);
        let port = port.expect("port");
        let link = port.link.expect("begin_tx on unconnected port");
        let ser =
            multiplied_serialization_time(wire_bytes, port.ns_per_byte).unwrap_or_else(|| {
                serialization_time(wire_bytes, self.links[link.index()].config.rate_bps)
            });
        // `handle_tx_complete` took the last frame, so the slot is empty
        // and the write needs no drop of an old one.
        let idle = port.in_flight.replace(frame);
        debug_assert!(idle.is_none(), "begin_tx on a busy port");
        std::mem::forget(idle);
        self.queue
            .push_with(self.now.saturating_add(ser), || EventKind::TxComplete {
                port: at,
            });
    }

    // ------------------------------------------------------------------
    // Hook chain dispatch
    // ------------------------------------------------------------------

    /// Takes `frame` to `hop` on `node` now, or `after` from now through
    /// the event queue: the one place a frame's path through a host
    /// decides between the two.
    #[inline]
    fn forward(&mut self, node: DeviceId, hop: Hop, frame: Frame, after: SimDuration) {
        if after == SimDuration::ZERO {
            self.hop(node, hop, frame);
        } else {
            let at = self.now.saturating_add(after);
            self.queue
                .push_with(at, || EventKind::Hop { node, hop, frame });
        }
    }

    /// Takes `frame` to `hop` on host `node`: into a hook, out of the NIC
    /// or up to the protocols. A failed host, or a device that is not a
    /// host, drops it.
    fn hop(&mut self, node: DeviceId, hop: Hop, frame: Frame) {
        let (chain_len, failed) = match self.devices[node.index()].as_host() {
            Some(h) => (h.hooks.len() as u32, h.failed),
            None => return,
        };
        if failed {
            return;
        }
        match hop {
            Hop::Outbound(idx) if idx < chain_len => {
                self.hook_step(node, idx, frame, Hop::Outbound(idx + 1));
            }
            Hop::Inbound(0) => self.deliver_to_protocols(node, frame),
            Hop::Inbound(next) => self.hook_step(node, next - 1, frame, Hop::Inbound(next - 1)),
            Hop::Outbound(_) => self.transmit(node, TraceKind::HostSend, "", frame),
            Hop::Raw => self.transmit(node, TraceKind::HookEmit, "raw", frame),
        }
    }

    /// Records `frame` leaving host `node` and hands it to the NIC.
    fn transmit(&mut self, node: DeviceId, kind: TraceKind, note: &'static str, frame: Frame) {
        self.trace
            .record(self.now, node, kind, Some(&frame), || note.into());
        self.port_send(PortRef::new(node, 0), frame);
    }

    /// Hands `frame` to hook `idx` — `on_inbound` or `on_outbound`, by the
    /// direction `then` continues in — applies the effects it queued, then
    /// forwards what its verdict lets through to `then`. [`hop`](Self::hop)
    /// calls it on a host, with `idx` inside the chain.
    fn hook_step(&mut self, node: DeviceId, idx: u32, frame: Frame, then: Hop) {
        let base = self.effects.len();
        let id = HookId(idx);
        let (host, mut ctx) = self
            .host_ctx(node, HandlerRef::Hook(id))
            .expect("chain steps run on hosts");
        let hook = host.hooks[id.index()].as_mut();
        let verdict = match then {
            Hop::Inbound(_) => hook.on_inbound(&mut ctx, frame),
            _ => hook.on_outbound(&mut ctx, frame),
        };
        let charged = ctx.charged;
        self.apply_effects(node, HandlerRef::Hook(id), base);
        match verdict {
            Verdict::Accept(frame) => self.forward(node, then, frame, charged),
            Verdict::Consume => {
                let host = self.devices[node.index()].as_host().expect("on a host");
                let name = || host.hooks[id.index()].name().into();
                self.trace
                    .record(self.now, node, TraceKind::HookConsume, None, name);
            }
            Verdict::Replace(frames) => {
                for frame in frames {
                    self.forward(node, then, frame, charged);
                }
            }
        }
    }

    fn deliver_to_protocols(&mut self, node: DeviceId, frame: Frame) {
        let _span = vw_trace::span("deliver", vw_trace::Category::Event);
        self.trace.record(
            self.now,
            node,
            TraceKind::HostRecv,
            Some(&frame),
            String::new,
        );
        let ethertype = frame.ethertype();
        let bound = |world: &World, i: usize| {
            world.devices[node.index()]
                .as_host()
                .is_some_and(|h| h.protocols[i].0.matches(ethertype))
        };
        let slots = self.devices[node.index()]
            .as_host()
            .map_or(0, |h| h.protocols.len());
        // The last matching protocol takes the frame by move; only fan-out
        // to several protocols pays for clones. (Bindings do not change
        // while the world runs, so one scan finds it.)
        let Some(last) = (0..slots).rev().find(|&i| bound(self, i)) else {
            return;
        };
        for i in 0..last {
            if bound(self, i) {
                let copy = frame.clone();
                let id = ProtocolId::from_index(i);
                self.with_protocol(node, id, |proto, ctx| proto.on_frame(ctx, copy));
            }
        }
        let id = ProtocolId::from_index(last);
        self.with_protocol(node, id, |proto, ctx| proto.on_frame(ctx, frame));
    }

    fn dispatch_timer(&mut self, node: DeviceId, handler: HandlerRef, token: u64) {
        match handler {
            HandlerRef::Protocol(id) => {
                self.with_protocol(node, id, |proto, ctx| proto.on_timer(ctx, token));
            }
            HandlerRef::Hook(id) => {
                self.with_hook(node, id.index(), |hook, ctx| hook.on_timer(ctx, token));
            }
        }
    }

    fn dispatch_start(&mut self, node: DeviceId, handler: HandlerRef) {
        match handler {
            HandlerRef::Protocol(id) => {
                self.with_protocol(node, id, |proto, ctx| proto.on_start(ctx));
            }
            HandlerRef::Hook(id) => {
                self.with_hook(node, id.index(), |hook, ctx| hook.on_start(ctx));
            }
        }
    }

    // ------------------------------------------------------------------
    // Effects
    // ------------------------------------------------------------------

    /// Applies, in the order they were queued, the effects the handler just
    /// dispatched left on the stack above `base`, and cuts the stack back.
    fn apply_effects(&mut self, node: DeviceId, handler: HandlerRef, base: usize) {
        // The handler has returned, so the stack no longer grows at this
        // level: a dispatch nested in an effect pushes above `end` and has
        // cut the stack back to it by the time it returns.
        let end = self.effects.len();
        for i in base..end {
            match self.effects[i].take().expect("applied once") {
                Effect::Send { frame, after } => {
                    let idx = match handler {
                        HandlerRef::Protocol(_) => 0,
                        HandlerRef::Hook(id) => id.0 + 1,
                    };
                    self.forward(node, Hop::Outbound(idx), frame, after);
                }
                Effect::DeliverUp { frame, after } => {
                    // Meaningless from a protocol.
                    if let HandlerRef::Hook(id) = handler {
                        self.forward(node, Hop::Inbound(id.0), frame, after);
                    }
                }
                Effect::TransmitRaw { frame, after } => self.forward(node, Hop::Raw, frame, after),
                Effect::SetTimer {
                    id,
                    at,
                    handler,
                    token,
                } => self.queue.arm_with(id, at, || EventKind::Timer {
                    node,
                    handler,
                    token,
                }),
                Effect::CancelTimer(id) => self.work.cancels += u64::from(self.queue.cancel(id)),
                Effect::RequestStop { reason } => self.request_stop(reason),
            }
        }
        self.effects.truncate(base);
    }

    // ------------------------------------------------------------------
    // Handler dispatch
    // ------------------------------------------------------------------

    /// Borrows the host `node` in place, beside a fresh [`Context`] for its
    /// `handler` over the world's other fields (clock, RNG, event queue,
    /// effect stack): a handler is called where it lives and never leaves
    /// its slot. `None` if `node` is not a host.
    fn host_ctx(
        &mut self,
        node: DeviceId,
        handler: HandlerRef,
    ) -> Option<(&mut Host, Context<'_>)> {
        let World {
            devices,
            queue,
            rng,
            effects,
            now,
            ..
        } = self;
        let host = devices.get_mut(node.index())?.as_host_mut()?;
        let ctx = Context {
            now: *now,
            node,
            mac: host.mac,
            ip: host.ip,
            handler,
            rng,
            queue,
            effects,
            charged: SimDuration::ZERO,
        };
        Some((host, ctx))
    }

    /// Runs `f` on hook `idx` of `node` with a fresh [`Context`], then
    /// applies the effects it queued — after it returns, in call order.
    /// Does nothing if there is no such hook.
    fn with_hook(
        &mut self,
        node: DeviceId,
        idx: usize,
        f: impl FnOnce(&mut dyn Hook, &mut Context<'_>),
    ) {
        let base = self.effects.len();
        let handler = HandlerRef::Hook(HookId::from_index(idx));
        let Some((host, mut ctx)) = self.host_ctx(node, handler) else {
            return;
        };
        let Some(hook) = host.hooks.get_mut(idx) else {
            return;
        };
        f(hook.as_mut(), &mut ctx);
        self.apply_effects(node, handler, base);
    }

    /// [`with_hook`](Self::with_hook) for protocol `id` of `node`.
    fn with_protocol(
        &mut self,
        node: DeviceId,
        id: ProtocolId,
        f: impl FnOnce(&mut dyn Protocol, &mut Context<'_>),
    ) {
        let base = self.effects.len();
        let Some((host, mut ctx)) = self.host_ctx(node, HandlerRef::Protocol(id)) else {
            return;
        };
        let Some((_, proto)) = host.protocols.get_mut(id.index()) else {
            return;
        };
        f(proto.as_mut(), &mut ctx);
        self.apply_effects(node, HandlerRef::Protocol(id), base);
    }

    /// Injects a frame as if `node`'s protocol stack had sent it —
    /// convenient for tests that exercise the hook chain directly.
    pub fn inject_from_stack(&mut self, node: DeviceId, frame: Frame) {
        self.inject_from_stack_at(node, frame, self.now);
    }

    /// Injects a frame as if it had just arrived on `node`'s wire.
    pub fn inject_from_wire(&mut self, node: DeviceId, frame: Frame) {
        self.inject_from_wire_at(node, frame, self.now);
    }

    /// Schedules [`inject_from_stack`](Self::inject_from_stack) at
    /// simulated time `at` (clamped to no earlier than now). Injections
    /// scheduled before the run share the event queue's single sequence
    /// counter, so they interleave deterministically with ordinary
    /// traffic — and with frames a DELAY fault releases at the same
    /// timestamp (FIFO within a timestamp).
    pub fn inject_from_stack_at(&mut self, node: DeviceId, frame: Frame, at: SimTime) {
        let hop = Hop::Outbound(0);
        self.queue
            .push(at.max(self.now), EventKind::Hop { node, hop, frame });
    }

    /// Schedules [`inject_from_wire`](Self::inject_from_wire) at
    /// simulated time `at` (clamped to no earlier than now).
    pub fn inject_from_wire_at(&mut self, node: DeviceId, frame: Frame, at: SimTime) {
        let to = PortRef::new(node, 0);
        self.queue
            .push(at.max(self.now), EventKind::Arrive { to, frame });
    }

    /// Number of events currently pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

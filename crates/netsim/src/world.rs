//! The simulation world: topology, event loop, and dispatch.

use std::any::Any;
use std::fmt;
use std::net::Ipv4Addr;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vw_packet::{EtherType, Frame, MacAddr, MacMap};

use crate::context::{Context, CtxOrigin, Effect};
use crate::device::{Device, Host, Hub, Port, PortStats, Switch};
use crate::event::{EventKind, EventQueue, TimerFire};
use crate::hook::{Hook, Verdict};
use crate::id::{DeviceId, HandlerRef, HookId, LinkId, PortRef, ProtocolId};
use crate::link::{Link, LinkConfig};
use crate::protocol::{Binding, Protocol};
use crate::time::{serialization_time, SimDuration, SimTime};
use crate::trace::{TraceKind, TraceSink};

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
    events_processed: u64,
    /// Effects queued by the handlers being dispatched, as a stack: a
    /// dispatch remembers the length it found, its handler pushes above
    /// that, and the effects are applied from there up — each taken out of
    /// its slot first, since applying one may dispatch again — before the
    /// stack is cut back. Empty between events.
    effects: Vec<Option<Effect>>,
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
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            trace: TraceSink::new(),
            stop_reason: None,
            control_impairment: crate::error_model::ControlImpairment::none(),
            host_count: 0,
            events_processed: 0,
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
        let name: Rc<str> = name.into();
        self.devices.push(Device::Host(Host {
            name: Rc::clone(&name),
            mac,
            ip,
            port: Port::new(),
            hooks: Vec::new(),
            protocols: Vec::new(),
            failed: false,
        }));
        self.trace.register_device(id, name);
        id
    }

    /// Adds a store-and-forward learning switch with `ports` ports.
    pub fn add_switch(&mut self, name: &str, ports: usize) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len());
        let name: Rc<str> = name.into();
        self.devices.push(Device::Switch(Switch {
            name: Rc::clone(&name),
            ports: (0..ports).map(|_| Port::new()).collect(),
            fdb: MacMap::default(),
        }));
        self.trace.register_device(id, name);
        id
    }

    /// Adds a hub (shared medium approximated as a repeating star) with
    /// `ports` ports.
    pub fn add_hub(&mut self, name: &str, ports: usize) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len());
        let name: Rc<str> = name.into();
        self.devices.push(Device::Hub(Hub {
            name: Rc::clone(&name),
            ports: (0..ports).map(|_| Port::new()).collect(),
        }));
        self.trace.register_device(id, name);
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
        self.events_processed
    }

    /// The read-only packet trace.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the packet trace (to clear or disable it).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
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
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.events_processed += 1;
        self.handle(event.kind);
        true
    }

    /// Processes every event due at exactly `time` (including events that
    /// handlers push at that same timestamp while the batch drains).
    /// Stops early if a stop is requested.
    fn step_batch(&mut self, time: SimTime) {
        let _span = vw_trace::span("event_batch", vw_trace::Category::Event);
        while self.stop_reason.is_none() {
            let Some(event) = self.queue.pop_at(time) else {
                return;
            };
            debug_assert!(event.time >= self.now, "time went backwards");
            self.now = event.time;
            self.events_processed += 1;
            self.handle(event.kind);
        }
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` are processed) or a stop is requested. The clock is
    /// advanced to `deadline` even if the queue drains first.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.stop_reason.is_none() {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    // Drain the whole timestamp in one go: one peek per
                    // batch instead of one per event.
                    self.step_batch(t);
                }
                _ => break,
            }
        }
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
                Some(t) if t <= max_time => {
                    self.step_batch(t);
                }
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

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { to, frame } => self.handle_arrival(to, frame),
            EventKind::TxComplete { port } => self.handle_tx_complete(port),
            EventKind::Timer(TimerFire {
                node,
                handler,
                token,
            }) => {
                let _span = vw_trace::span("timer_dispatch", vw_trace::Category::Event);
                self.dispatch_timer(node, handler, token);
            }
            EventKind::Start { node, handler } => self.dispatch_start(node, handler),
            EventKind::OutboundChain { node, idx, frame } => self.outbound_step(node, idx, frame),
            EventKind::InboundChain { node, next, frame } => self.inbound_step(node, next, frame),
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
                let chain_len = h.hooks.len();
                self.inbound_step(to.device, chain_len, frame);
            }
            Device::Switch(_) => self.switch_forward(to, frame),
            Device::Hub(_) => self.hub_repeat(to, frame),
        }
    }

    fn switch_forward(&mut self, ingress: PortRef, frame: Frame) {
        let src = frame.src();
        let dst = frame.dst();
        let nports = match &mut self.devices[ingress.device.index()] {
            Device::Switch(sw) => {
                if !src.is_multicast() {
                    sw.fdb.insert(src, ingress.port);
                }
                sw.ports.len() as u16
            }
            _ => unreachable!("switch_forward on non-switch"),
        };
        let out_port = if dst.is_broadcast() || dst.is_multicast() {
            None
        } else {
            match &self.devices[ingress.device.index()] {
                Device::Switch(sw) => sw.fdb.get(&dst).copied(),
                _ => unreachable!(),
            }
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
                self.flood(ingress, nports, frame);
            }
        }
    }

    fn hub_repeat(&mut self, ingress: PortRef, frame: Frame) {
        let nports = match &self.devices[ingress.device.index()] {
            Device::Hub(h) => h.ports.len() as u16,
            _ => unreachable!("hub_repeat on non-hub"),
        };
        self.flood(ingress, nports, frame);
    }

    /// Repeats `frame` out of every connected port except `ingress.port`,
    /// moving (not cloning) it into the final copy.
    fn flood(&mut self, ingress: PortRef, nports: u16, frame: Frame) {
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
        let (frame, link_id) = {
            let port = self.devices[at.device.index()]
                .port_mut(at.port)
                .expect("tx-complete on missing port");
            let frame = port.in_flight.take().expect("tx-complete without frame");
            port.tx_frames += 1;
            port.tx_bytes += frame.len() as u64;
            (frame, port.link)
        };
        if let Some(link_id) = link_id {
            self.cross_link(link_id, at, frame);
        }
        // Start the next transmission, if any.
        let next = {
            let port = self.devices[at.device.index()]
                .port_mut(at.port)
                .expect("port");
            match port.queue.pop_front() {
                Some(f) => Some(f),
                None => {
                    port.busy = false;
                    None
                }
            }
        };
        if let Some(f) = next {
            self.begin_tx(at, f);
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
                    self.queue
                        .push(arrive, EventKind::Arrive { to: peer, frame });
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
        enum Outcome {
            StartTx(Frame),
            Queued,
            Dropped(Frame, TraceKind, &'static str),
        }
        let outcome = {
            let Some(port) = self.devices[at.device.index()].port_mut(at.port) else {
                return;
            };
            if port.link.is_none() {
                Outcome::Dropped(frame, TraceKind::LinkLoss, "port not connected")
            } else if !port.busy {
                Outcome::StartTx(frame)
            } else if port.queue.len() >= port.queue_cap {
                port.dropped += 1;
                Outcome::Dropped(frame, TraceKind::QueueDrop, "tx queue overflow")
            } else {
                port.queue.push_back(frame);
                Outcome::Queued
            }
        };
        match outcome {
            Outcome::StartTx(frame) => self.begin_tx(at, frame),
            Outcome::Queued => {}
            Outcome::Dropped(frame, kind, note) => {
                self.trace
                    .record(self.now, at.device, kind, Some(&frame), || note.into());
            }
        }
    }

    fn begin_tx(&mut self, at: PortRef, frame: Frame) {
        let rate = {
            let port = self.devices[at.device.index()]
                .port_mut(at.port)
                .expect("port");
            let link_id = port.link.expect("begin_tx on unconnected port");
            self.links[link_id.index()].config.rate_bps
        };
        let wire_bytes = frame.len().max(MIN_FRAME_BYTES) + WIRE_OVERHEAD_BYTES;
        let ser = serialization_time(wire_bytes, rate);
        {
            let port = self.devices[at.device.index()]
                .port_mut(at.port)
                .expect("port");
            port.busy = true;
            port.in_flight = Some(frame);
        }
        self.queue.push(
            self.now.saturating_add(ser),
            EventKind::TxComplete { port: at },
        );
    }

    // ------------------------------------------------------------------
    // Hook chain dispatch
    // ------------------------------------------------------------------

    fn outbound_step(&mut self, node: DeviceId, idx: usize, frame: Frame) {
        let (chain_len, failed) = match self.devices[node.index()].as_host() {
            Some(h) => (h.hooks.len(), h.failed),
            None => return,
        };
        if failed {
            return;
        }
        if idx >= chain_len {
            self.trace.record(
                self.now,
                node,
                TraceKind::HostSend,
                Some(&frame),
                String::new,
            );
            self.port_send(PortRef::new(node, 0), frame);
            return;
        }
        self.hook_step(node, idx, frame, ChainDir::Outbound { next: idx + 1 });
    }

    fn inbound_step(&mut self, node: DeviceId, next: usize, frame: Frame) {
        let failed = match self.devices[node.index()].as_host() {
            Some(h) => h.failed,
            None => return,
        };
        if failed {
            return;
        }
        if next == 0 {
            self.deliver_to_protocols(node, frame);
            return;
        }
        let idx = next - 1;
        self.hook_step(node, idx, frame, ChainDir::Inbound { next: idx });
    }

    /// Hands `frame` to hook `idx` — `on_outbound` or `on_inbound`, by the
    /// direction `then` continues in — applies the effects it queued, then
    /// carries its verdict on down the chain. The chain steps call it on a
    /// host, with `idx` inside the chain.
    fn hook_step(&mut self, node: DeviceId, idx: usize, frame: Frame, then: ChainDir) {
        let base = self.effects.len();
        let handler = HandlerRef::Hook(HookId::from_index(idx));
        let traced = self.trace.is_enabled();
        let (host, mut ctx) = self
            .host_ctx(node, handler)
            .expect("chain steps run on hosts");
        let hook = host.hooks[idx].as_mut();
        let verdict = match then {
            ChainDir::Outbound { .. } => hook.on_outbound(&mut ctx, frame),
            ChainDir::Inbound { .. } => hook.on_inbound(&mut ctx, frame),
        };
        let charged = ctx.charged;
        // The name is only read by the Consume trace record; skip the
        // per-frame allocation on the overwhelmingly common paths.
        let name = if traced && matches!(verdict, Verdict::Consume) {
            hook.name().to_string()
        } else {
            String::new()
        };
        self.apply_effects(node, CtxOrigin::Hook(idx), base);
        self.continue_verdict(node, verdict, charged, name, then);
    }

    fn continue_verdict(
        &mut self,
        node: DeviceId,
        verdict: Verdict,
        charged: SimDuration,
        hook_name: String,
        dir: ChainDir,
    ) {
        match verdict {
            // The common single-frame verdict continues without the Vec
            // the Replace path needs.
            Verdict::Accept(f) => self.continue_frame(node, f, charged, dir),
            Verdict::Consume => {
                self.trace
                    .record(self.now, node, TraceKind::HookConsume, None, || hook_name);
            }
            Verdict::Replace(fs) => {
                for frame in fs {
                    self.continue_frame(node, frame, charged, dir);
                }
            }
        }
    }

    fn continue_frame(
        &mut self,
        node: DeviceId,
        frame: Frame,
        charged: SimDuration,
        dir: ChainDir,
    ) {
        match dir {
            ChainDir::Outbound { next } => {
                if charged == SimDuration::ZERO {
                    self.outbound_step(node, next, frame);
                } else {
                    self.queue.push(
                        self.now.saturating_add(charged),
                        EventKind::OutboundChain {
                            node,
                            idx: next,
                            frame,
                        },
                    );
                }
            }
            ChainDir::Inbound { next } => {
                if charged == SimDuration::ZERO {
                    self.inbound_step(node, next, frame);
                } else {
                    self.queue.push(
                        self.now.saturating_add(charged),
                        EventKind::InboundChain { node, next, frame },
                    );
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
    fn apply_effects(&mut self, node: DeviceId, origin: CtxOrigin, base: usize) {
        // The handler has returned, so the stack no longer grows at this
        // level: a dispatch nested in an effect pushes above `end` and has
        // cut the stack back to it by the time it returns.
        let end = self.effects.len();
        for i in base..end {
            let effect = self.effects[i].take().expect("applied once");
            match effect {
                Effect::Send { frame, after } => {
                    let idx = match origin {
                        CtxOrigin::Protocol => 0,
                        CtxOrigin::Hook(i) => i + 1,
                    };
                    if after == SimDuration::ZERO {
                        self.outbound_step(node, idx, frame);
                    } else {
                        self.queue.push(
                            self.now.saturating_add(after),
                            EventKind::OutboundChain { node, idx, frame },
                        );
                    }
                }
                Effect::DeliverUp { frame, after } => {
                    let next = match origin {
                        CtxOrigin::Hook(i) => i,
                        CtxOrigin::Protocol => continue, // meaningless from a protocol
                    };
                    if after == SimDuration::ZERO {
                        self.inbound_step(node, next, frame);
                    } else {
                        self.queue.push(
                            self.now.saturating_add(after),
                            EventKind::InboundChain { node, next, frame },
                        );
                    }
                }
                Effect::TransmitRaw { frame, after } => {
                    if after == SimDuration::ZERO {
                        self.trace.record(
                            self.now,
                            node,
                            TraceKind::HookEmit,
                            Some(&frame),
                            || "raw".into(),
                        );
                        self.port_send(PortRef::new(node, 0), frame);
                    } else {
                        let chain_len = self.devices[node.index()]
                            .as_host()
                            .map_or(0, |h| h.hooks.len());
                        self.queue.push(
                            self.now.saturating_add(after),
                            EventKind::OutboundChain {
                                node,
                                idx: chain_len,
                                frame,
                            },
                        );
                    }
                }
                Effect::SetTimer { id, at, fire } => self.queue.arm_timer(id, at, fire),
                Effect::CancelTimer(id) => {
                    self.queue.timers_mut().cancel(id);
                }
                Effect::RequestStop { reason } => {
                    self.request_stop(reason);
                }
            }
        }
        self.effects.truncate(base);
    }

    // ------------------------------------------------------------------
    // Handler dispatch
    // ------------------------------------------------------------------

    /// Borrows the host `node` in place, beside a fresh [`Context`] for its
    /// `handler` over the world's other fields (clock, RNG, timer heap,
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
            timers: queue.timers_mut(),
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
        self.apply_effects(node, CtxOrigin::Hook(idx), base);
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
        self.apply_effects(node, CtxOrigin::Protocol, base);
    }

    /// Injects a frame as if `node`'s protocol stack had sent it —
    /// convenient for tests that exercise the hook chain directly.
    pub fn inject_from_stack(&mut self, node: DeviceId, frame: Frame) {
        self.queue.push(
            self.now,
            EventKind::OutboundChain {
                node,
                idx: 0,
                frame,
            },
        );
    }

    /// Injects a frame as if it had just arrived on `node`'s wire.
    pub fn inject_from_wire(&mut self, node: DeviceId, frame: Frame) {
        self.queue.push(
            self.now,
            EventKind::Arrive {
                to: PortRef::new(node, 0),
                frame,
            },
        );
    }

    /// Schedules [`inject_from_stack`](Self::inject_from_stack) at
    /// simulated time `at` (clamped to no earlier than now). Injections
    /// scheduled before the run share the event queue's single sequence
    /// counter, so they interleave deterministically with ordinary
    /// traffic — and with frames a DELAY fault releases at the same
    /// timestamp (FIFO within a timestamp).
    pub fn inject_from_stack_at(&mut self, node: DeviceId, frame: Frame, at: SimTime) {
        self.queue.push(
            at.max(self.now),
            EventKind::OutboundChain {
                node,
                idx: 0,
                frame,
            },
        );
    }

    /// Schedules [`inject_from_wire`](Self::inject_from_wire) at
    /// simulated time `at` (clamped to no earlier than now).
    pub fn inject_from_wire_at(&mut self, node: DeviceId, frame: Frame, at: SimTime) {
        self.queue.push(
            at.max(self.now),
            EventKind::Arrive {
                to: PortRef::new(node, 0),
                frame,
            },
        );
    }

    /// Number of events currently pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum ChainDir {
    Outbound { next: usize },
    Inbound { next: usize },
}

//! Allocation budgets for the steady state. Once buffers, slabs and
//! scratch have grown to the traffic's working set, carrying a frame —
//! up and down the whole tower, or through the bare simulator with timers
//! set and cancelled beside it — is meant to stay off the heap: frames
//! recycle through the arena, timers through the timer heap's slab, effects
//! and verdict buffers through their owners' scratch.
//!
//! The counting allocator lives here, in the test crate, so the libraries
//! keep their `forbid(unsafe_code)`; it counts per thread, so the tests
//! do not see each other's allocations (or the harness's).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{build_tower, Tower};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{
    Binding, Context, ControlImpairment, DeviceId, Hook, LinkConfig, Protocol, SimDuration,
    TimerId, Verdict, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations (reallocations included) made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never influences the pointers or
// layouts passed through, and counting does not allocate (the cell is
// const-initialised and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tower of `full_stack.rs` — TCP over Rether over engines over the
/// RLL on a lossy bus — on a thread that has run it before, as a campaign
/// worker or a benchmark repetition has: the rehearsal sizes the thread's
/// frame arena, the first 20 ms (handshake, first token rotations, first
/// RLL retransmissions) size the new world's queues and scratch. From
/// there to the script's `STOP`: at most one allocation per two
/// engine-classified frames. (What remains is not per frame: TCP's
/// receive buffer and state log doubling, queues reaching a new depth, an
/// arena miss when a burst outruns what the pool may retain.)
#[test]
fn the_tower_stays_under_half_an_allocation_per_classified_frame() {
    let run_to_stop = |world: &mut World| {
        world.run_for(SimDuration::from_secs(60));
        assert!(world.stop_reason().is_some(), "the run reaches its STOP");
    };
    let mut rehearsal = build_tower().world;
    rehearsal.trace_mut().set_enabled(false);
    run_to_stop(&mut rehearsal);
    drop(rehearsal);

    let Tower {
        mut world, runner, ..
    } = build_tower();
    world.trace_mut().set_enabled(false);
    let classified = |world: &World| -> u64 {
        ["node1", "node2", "node3"]
            .iter()
            .map(|node| {
                let engine = runner.engine(world, node).expect("an engine per node");
                engine.stats().classified
            })
            .sum()
    };

    world.run_for(SimDuration::from_millis(20));
    let warm_frames = classified(&world);
    let before = allocs();
    run_to_stop(&mut world);
    let spent = allocs() - before;
    let frames = classified(&world) - warm_frames;

    assert!(warm_frames > 0, "the warm-up carried no traffic");
    assert!(
        frames >= 200,
        "only {frames} frames after the warm-up: nothing to average over"
    );
    assert!(
        spent * 2 <= frames,
        "{spent} allocations over {frames} classified frames ({:.3} per frame, budget 0.5)",
        spent as f64 / frames as f64
    );
}

/// Every tick: cancel the guard timer set on the previous tick, set a new
/// one far enough out that it never fires, and rearm the tick — the
/// set-and-cancel rhythm of a retransmission timer that is always acked
/// in time.
struct Ticker {
    every: SimDuration,
    guard: Option<TimerId>,
    ticks: u64,
}

impl Protocol for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.on_timer(ctx, 0);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        assert_eq!(token, 0, "a cancelled guard fired");
        self.ticks += 1;
        if let Some(guard) = self.guard.take() {
            ctx.cancel_timer(guard);
        }
        self.guard = Some(ctx.set_timer(SimDuration::from_millis(50), 1));
        ctx.set_timer(self.every, 0);
    }
}

/// The simulator alone: a UDP flood between two hosts on a switch, and a
/// ticker setting and cancelling a timer per tick beside it. After a
/// warm-up, 10 000 events — frames built, queued, switched, delivered and
/// dropped; timers armed, fired and cancelled — allocate nothing at all.
#[test]
fn the_simulator_carries_frames_and_timers_without_allocating() {
    let mut world = World::new(3);
    world.trace_mut().set_enabled(false);
    let a = world.add_host("a");
    let b = world.add_host("b");
    let switch = world.add_switch("sw", 2);
    world.connect(a, switch, LinkConfig::fast_ethernet());
    world.connect(b, switch, LinkConfig::fast_ethernet());
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    let sink = world.add_protocol(b, ipv4, Box::new(UdpSink::new(7000)));
    let flooder = UdpFlooder::new(
        world.host_mac(b),
        world.host_ip(b),
        7000,
        9000,
        20_000_000,
        200,
        u64::MAX,
    );
    world.add_protocol(a, ipv4, Box::new(flooder));
    let ticker = Ticker {
        every: SimDuration::from_micros(100),
        guard: None,
        ticks: 0,
    };
    let ticker = world.add_protocol(b, ipv4, Box::new(ticker));

    let steps = |world: &mut World, events: u64| {
        let until = world.events_processed() + events;
        while world.events_processed() < until {
            assert!(world.step(), "the flood and the ticker never run dry");
        }
    };
    steps(&mut world, 2_000);
    let delivered = |world: &World| world.protocol::<UdpSink>(b, sink).unwrap().frames();
    let ticks = |world: &World| world.protocol::<Ticker>(b, ticker).unwrap().ticks;
    let (frames_before, ticks_before) = (delivered(&world), ticks(&world));
    let before = allocs();
    steps(&mut world, 10_000);
    let spent = allocs() - before;

    assert!(
        delivered(&world) - frames_before > 1_000,
        "the flood flowed"
    );
    assert!(ticks(&world) - ticks_before > 1_000, "the ticker ticked");
    assert_eq!(spent, 0, "allocations across 10 000 steady-state events");
}

/// Sends a copy of `frame` every `every`; counts what comes back its way.
struct Beacon {
    frame: Frame,
    every: SimDuration,
    heard: u64,
}

impl Beacon {
    /// A 32-byte-payload frame of `ethertype` from `from` to `to`, sent
    /// every 100 µs.
    fn every_100us(world: &World, from: DeviceId, to: DeviceId, ethertype: EtherType) -> Beacon {
        Beacon {
            frame: EthernetBuilder::new()
                .src(world.host_mac(from))
                .dst(world.host_mac(to))
                .ethertype(ethertype)
                .payload(&[0xd7; 32])
                .build(),
            every: SimDuration::from_micros(100),
            heard: 0,
        }
    }
}

impl Protocol for Beacon {
    fn name(&self) -> &str {
        "beacon"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.on_timer(ctx, 0);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {
        self.heard += 1;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(self.frame.clone());
        ctx.set_timer(self.every, 0);
    }
}

/// Control frames (`0x88B5`) through a control plane that loses half of
/// them, trace off: a dropped frame is recycled, not described — losing
/// one allocates no more than delivering one.
#[test]
fn an_impaired_control_plane_drops_frames_without_allocating() {
    let mut world = World::new(5);
    world.trace_mut().set_enabled(false);
    world.set_control_impairment(ControlImpairment::dropping(0.5));
    let a = world.add_host("a");
    let b = world.add_host("b");
    let switch = world.add_switch("sw", 2);
    world.connect(a, switch, LinkConfig::fast_ethernet());
    world.connect(b, switch, LinkConfig::fast_ethernet());
    let control = Binding::EtherType(EtherType::VW_CONTROL);
    let beacon = |from, to| Beacon::every_100us(&world, from, to, EtherType::VW_CONTROL);
    let (to_b, to_a) = (beacon(a, b), beacon(b, a));
    world.add_protocol(a, control, Box::new(to_b));
    let listener = world.add_protocol(b, control, Box::new(to_a));

    let steps = |world: &mut World, events: u64| {
        let until = world.events_processed() + events;
        while world.events_processed() < until {
            assert!(world.step(), "the beacons never run dry");
        }
    };
    steps(&mut world, 2_000);
    let heard = |world: &World| world.protocol::<Beacon>(b, listener).unwrap().heard;
    let (heard_before, sent_before) = (heard(&world), world.now());
    let before = allocs();
    steps(&mut world, 10_000);
    let spent = allocs() - before;

    let sent = (world.now() - sent_before).as_nanos() / 100_000;
    let heard = heard(&world) - heard_before;
    assert!(sent > 1_000, "the beacons beat");
    assert!(
        heard > sent / 4 && heard < sent * 3 / 4,
        "{heard} of {sent} control frames arrived through a 50% drop"
    );
    assert_eq!(spent, 0, "allocations across 10 000 steady-state events");
}

/// A hook that makes every call cost the dispatcher something: it cancels
/// the guard timer it set on its previous call and arms a new one, and on
/// the way out also puts a raw copy on the wire and hands a copy back up
/// the chain — a dispatch nested inside the application of its effects.
#[derive(Default)]
struct Busy {
    guard: Option<TimerId>,
    calls: u64,
}

impl Busy {
    fn rearm(&mut self, ctx: &mut Context<'_>) {
        self.calls += 1;
        if let Some(guard) = self.guard.take() {
            ctx.cancel_timer(guard);
        }
        self.guard = Some(ctx.set_timer(SimDuration::from_millis(50), 1));
    }
}

impl Hook for Busy {
    fn name(&self) -> &str {
        "busy"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.rearm(ctx);
        ctx.transmit_raw(frame.clone());
        ctx.deliver_up(frame.clone());
        Verdict::Accept(frame)
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.rearm(ctx);
        Verdict::Accept(frame)
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {
        panic!("a cancelled guard fired");
    }
}

/// Dispatch itself: a chain of three hooks that each queue two to four
/// effects per call, timers among them, with dispatches nesting three deep
/// while those effects apply. Handlers are called where they live and
/// their effects share one stack, so once that stack and the timer slab
/// have reached their depth, 10 000 hook calls allocate nothing.
#[test]
fn a_busy_hook_chain_dispatches_without_allocating() {
    let mut world = World::new(7);
    world.trace_mut().set_enabled(false);
    let a = world.add_host("a");
    let b = world.add_host("b");
    let switch = world.add_switch("sw", 2);
    world.connect(a, switch, LinkConfig::fast_ethernet());
    world.connect(b, switch, LinkConfig::fast_ethernet());
    let chain = [(); 3].map(|()| world.add_hook(a, Box::new(Busy::default())));
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    let beacon = |from, to| Beacon::every_100us(&world, from, to, EtherType::IPV4);
    let (to_b, to_a) = (beacon(a, b), beacon(b, a));
    let talker = world.add_protocol(a, ipv4, Box::new(to_b));
    world.add_protocol(b, ipv4, Box::new(to_a));

    let calls = |world: &World| -> u64 {
        chain
            .iter()
            .map(|&id| world.hook::<Busy>(a, id).unwrap().calls)
            .sum()
    };
    let run_calls = |world: &mut World, more: u64| {
        let until = calls(world) + more;
        while calls(world) < until {
            assert!(world.step(), "the beacons never run dry");
        }
    };
    run_calls(&mut world, 1_000);
    let heard = |world: &World| world.protocol::<Beacon>(a, talker).unwrap().heard;
    let heard_before = heard(&world);
    let before = allocs();
    run_calls(&mut world, 10_000);
    let spent = allocs() - before;

    // Per beacon of its own, `a` hears the three copies handed back up;
    // per beacon of `b`'s, one frame through the whole chain.
    assert!(heard(&world) - heard_before > 2_000, "copies came back up");
    assert_eq!(spent, 0, "allocations across 10 000 hook calls");
}

/// Bumping a series the registry already holds — what the daemon does
/// under its metrics mutex for every decoded frame — allocates no key.
#[test]
fn updating_existing_registry_series_does_not_allocate() {
    let mut metrics = vw_obs::MetricsRegistry::new();
    metrics.add_counter("serve.frames_decoded", 1);
    metrics.set_gauge("serve.workers_busy", 1);
    metrics.observe("serve.first_outcome_ms", 1);
    let before = allocs();
    for i in 0..10_000 {
        metrics.add_counter("serve.frames_decoded", 1);
        metrics.set_gauge("serve.workers_busy", i);
        metrics.observe("serve.first_outcome_ms", i as u64);
    }
    let spent = allocs() - before;

    assert_eq!(metrics.counter("serve.frames_decoded"), Some(10_001));
    assert_eq!(metrics.gauge("serve.workers_busy"), Some(9_999));
    let observed = metrics.histogram("serve.first_outcome_ms").unwrap().count();
    assert_eq!(observed, 10_001);
    assert_eq!(spent, 0, "allocations across 30 000 updates");
}

/// The two-host flood bed a campaign instance runs on: what the
/// benchmark's sweep builds per instance, and which table allocations the
/// executor handed it.
#[derive(Default)]
struct FloodBed {
    tables_seen: std::sync::Mutex<std::collections::BTreeSet<usize>>,
}

/// The flood bed's two hosts on a switch, with an engine installed on
/// each: the world `settle` runs in, and the hosts.
fn flood_bed_world(
    tables: &vw_fsl::TableSet,
    run: &vw_campaign::RunConfig,
) -> Result<(World, virtualwire::Runner, Vec<DeviceId>), virtualwire::ScriptError> {
    use virtualwire::{EngineConfig, Runner};

    let mut world = World::with_impairment(run.seed, run.impairment);
    world.trace_mut().set_enabled(false);
    let nodes = Runner::create_hosts(&mut world, tables);
    let sw = world.add_switch("sw0", 4);
    for &n in &nodes {
        world.connect(n, sw, LinkConfig::fast_ethernet());
    }
    let runner = Runner::try_install(&mut world, tables.clone(), EngineConfig::default())?;
    Ok((world, runner, nodes))
}

impl vw_campaign::Setup for FloodBed {
    fn build(
        &self,
        tables: &vw_fsl::TableSet,
        run: &vw_campaign::RunConfig,
    ) -> Result<(World, virtualwire::Runner), virtualwire::ScriptError> {
        let address = std::ptr::from_ref::<vw_fsl::Tables>(tables) as usize;
        self.tables_seen.lock().unwrap().insert(address);
        let (mut world, runner, nodes) = flood_bed_world(tables, run)?;
        runner.settle(&mut world);
        let ipv4 = Binding::EtherType(EtherType::IPV4);
        world.add_protocol(nodes[1], ipv4, Box::new(UdpSink::new(0x6363)));
        let (mac, ip) = (world.host_mac(nodes[1]), world.host_ip(nodes[1]));
        let flooder = UdpFlooder::new(mac, ip, 0x6363, 9000, 2_000_000, 200, 240 * 200);
        world.add_protocol(nodes[0], ipv4, Box::new(flooder));
        Ok((world, runner))
    }
}

/// The program of the benchmark's `campaign_sweep`: drop the 40th of 240
/// datagrams.
fn sweep_program() -> vw_fsl::Program {
    vw_fsl::parse(
        "FILTER_TABLE
        udp_data: (23 1 0x11), (36 2 0x6363)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 192.168.1.2
        node2 02:00:00:00:00:02 192.168.1.3
        END
        SCENARIO SweepDrop 500msec
        Sent: (udp_data, node1, node2, SEND)
        Rcvd: (udp_data, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(Sent);
        (TRUE) >> ENABLE_CNTR(Rcvd);
        ((Sent = 40)) >> DROP(udp_data, node1, node2, SEND);
        ((Sent = 240)) >> STOP;
        END",
    )
    .unwrap()
}

/// A 48-instance sweep — 6 thresholds × 4 seeds × 2 control impairments of
/// a 240-datagram flood, the benchmark's `campaign_sweep` block — on a
/// thread that has run it before: `run_campaign` end to end (enumerate,
/// every instance, the classed result) spends at most 80 allocations per
/// instance, and compiles each of the 6 programs once. (The history of
/// this budget: 295 with a `Program` clone and a compile per instance and
/// three deep copies of the tables on their way to the engines; then 190,
/// with each peer decoding its own copy of the tables and both engines
/// building their classifier, counter dispatch and node names per
/// instance; then 130, with each report copying the script's names out of
/// tables it already shared; then 110, with the digest copying every list
/// out of a report dropped a line later, naming its metrics in fresh
/// strings and growing its class key, the trace copying each device's
/// name, and each engine's state taking five blocks.) Rendering an
/// instance's JSONL line then costs one allocation: the line.
#[test]
fn a_sweep_compiles_each_program_once_and_allocates_at_most_80_per_instance() {
    use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig};

    let spec = CampaignSpec::new("sweep", sweep_program())
        .axis(Axis::threshold_at(
            "Sent",
            0,
            vec![20, 40, 60, 80, 100, 160],
        ))
        .axis(Axis::seeds(vec![11, 12, 13, 14]))
        .axis(Axis::impairments(vec![
            ControlImpairment::none(),
            ControlImpairment::dropping(0.05),
        ]));
    let cfg = ExecConfig::threads(1);

    let rehearsal = run_campaign(&spec, &FloodBed::default(), &cfg).unwrap();
    assert_eq!(rehearsal.kind_counts().0, 48, "every instance completes");
    drop(rehearsal);

    let bed = FloodBed::default();
    let before = allocs();
    let result = run_campaign(&spec, &bed, &cfg).unwrap();
    let spent = allocs() - before;

    assert_eq!(result.kind_counts().0, 48, "every instance completes");
    assert_eq!(bed.tables_seen.lock().unwrap().len(), 6, "compiles");
    assert!(
        spent <= 80 * 48,
        "{spent} allocations over 48 instances ({:.1} per instance, budget 80)",
        spent as f64 / 48.0
    );

    // Each instance's streaming line, rendered from borrowed parts as the
    // daemon renders it: the line alone, no copy of the labels, the digest
    // or a counter's key (32 allocations a line when it built a record,
    // then 5 while each counter key was a temporary string).
    let key = vw_campaign::DigestKey::default();
    let before = allocs();
    for r in &result.instances {
        let line = vw_campaign::instance_jsonl_line(r.index, &r.labels, &r.outcome, &key);
        std::hint::black_box(line);
    }
    let spent = allocs() - before;
    assert!(spent <= 48, "{spent} allocations for 48 lines");
}

/// Settling the flood bed a second time on one thread, with the same
/// tables: the peer's `Init` decodes to the set the first settle decoded,
/// and both engines install the plans built then, so what is left is the
/// `Init` round trip and each engine's own state — at most 15 allocations.
/// (Before the install plans were shared this settle allocated 63.5 per
/// sweep instance: a fresh decode of the tables, and the classifier,
/// counter dispatch and node names built again by both engines. Then 18,
/// while each engine kept its counter-enabled, term and condition flags in
/// three blocks instead of one.)
#[test]
fn settling_the_same_tables_a_second_time_allocates_at_most_15() {
    let tables = vw_fsl::compile(&sweep_program()).unwrap().remove(0);
    let run = vw_campaign::RunConfig::default();
    let settle = || {
        let (mut world, runner, _) = flood_bed_world(&tables, &run).unwrap();
        let before = allocs();
        assert!(runner.settle(&mut world), "both engines installed");
        allocs() - before
    };
    let first = settle();
    let second = settle();
    assert!(
        second <= 15,
        "{second} allocations settling the same tables again (the first settle: {first})"
    );
}

//! The engine's `EngineIo` seam, checked differentially: the same frames
//! fed to one engine through a recording host and to another inside a
//! one-host `World` leave the same record — counters, `EngineStats`,
//! errors, stop, the `Full`-level event stream and every frame the engine
//! lets through or releases, with when.
//!
//! The world's host runs the engine wire-ward of its stack, with a tap
//! below it that keeps and consumes what leaves toward the wire, and a
//! protocol above it that keeps what is delivered. The cost model is the
//! calibrated one, so every frame the engine passes on moves after the CPU
//! time it charged: a host that forgot a charge would show here.

mod recorder;

use recorder::Recorder;
use virtualwire::{
    compile_script, CostModel, Engine, EngineConfig, EngineStats, FlaggedError, ObsEvent, ObsLevel,
};
use vw_fsl::{CounterId, Dir, NodeId, TableSet};
use vw_netsim::{Binding, Context, Hook, Protocol, SimTime, Verdict, World};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

const SEED: u64 = 7;
const MAC: MacAddr = MacAddr::from_index(1);
const PEER: MacAddr = MacAddr::from_index(2);
const DATA: EtherType = EtherType(0x4242);
const OTHER: EtherType = EtherType(0x4343);

/// One engine, on node1; node2 is only an address, so node1's `Init` to it
/// goes unanswered and is sent again. Every Table I operation and every
/// Table II fault but FAIL fires at least once; DELAY and REORDER hold
/// frames across other frames; STOP ends the run.
const SCRIPT: &str = r#"
    FILTER_TABLE
    data: (12 2 0x4242)
    other: (12 2 0x4343)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO SansIo
    Sent: (data, node1, node2, SEND)
    Rcvd: (data, node2, node1, RECV)
    Other: (other, node1, node2, SEND)
    V: (node1)
    T: (node1)
    (TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd); ASSIGN_CNTR(V, 3);
    ((Sent = 2)) >> DROP(data, node1, node2, SEND);
    ((Sent = 3)) >> DUP(data, node1, node2, SEND);
    ((Sent = 4)) >> MODIFY(data, node1, node2, SEND, (20 2 0xBEEF));
    ((Sent = 5)) >> MODIFY(data, node1, node2, SEND, RANDOM);
    ((Sent >= 6) && (Sent < 8)) >> DELAY(data, node1, node2, SEND, 1msec);
    ((Rcvd > 1) && (Rcvd <= 4)) >> REORDER(data, node2, node1, RECV, 3, (2 0 1));
    ((Sent = 4)) >> INCR_CNTR(V, 5);
    ((Sent = 6) && (V = 8)) >> FLAG_ERR "six sent while V was eight";
    ((Rcvd = 2)) >> SET_CURTIME(T);
    ((Rcvd = 6)) >> ELAPSED_TIME(T); DECR_CNTR(V, 2);
    ((Rcvd = 5)) >> ENABLE_CNTR(Other);
    ((Rcvd = 7)) >> RESET_CNTR(V);
    ((Other = 2)) >> FLAG_ERR; DISABLE_CNTR(Other);
    ((Sent = 13)) >> STOP;
    END
"#;

/// The frames, one per millisecond and a little: frame `i` is `data` or
/// `other`, outbound or inbound, and carries `i` in its payload.
fn inputs() -> Vec<(SimTime, Dir, Frame)> {
    let plan = "ssrsrsrsrsosrsrossrsosssrss";
    plan.bytes()
        .enumerate()
        .map(|(i, kind)| {
            let (dir, ethertype) = match kind {
                b's' => (Dir::Send, DATA),
                b'r' => (Dir::Recv, DATA),
                _ => (Dir::Send, OTHER),
            };
            let (src, dst) = match dir {
                Dir::Send => (MAC, PEER),
                Dir::Recv => (PEER, MAC),
            };
            let frame = EthernetBuilder::new()
                .src(src)
                .dst(dst)
                .ethertype(ethertype)
                .payload(&[i as u8; 46])
                .build();
            let at = SimTime::from_nanos(1_000_037 * (i as u64 + 1));
            (at, dir, frame)
        })
        .collect()
}

fn config() -> EngineConfig {
    EngineConfig {
        cost: CostModel::calibrated(),
        obs: ObsLevel::Full,
        ..EngineConfig::default()
    }
}

/// Everything one run leaves behind.
#[derive(Debug, PartialEq)]
struct Record {
    counters: Vec<Option<i64>>,
    stats: EngineStats,
    errors: Vec<FlaggedError>,
    stop: Option<(SimTime, String)>,
    events: Vec<ObsEvent>,
    sent: Vec<(SimTime, Frame)>,
    delivered: Vec<(SimTime, Frame)>,
}

impl Record {
    fn of(engine: &Engine, tables: &TableSet, stop: Option<(SimTime, String)>) -> Self {
        let counters = (0..tables.counters.len())
            .map(|i| engine.counter(CounterId(i as u16)))
            .collect();
        Record {
            counters,
            stats: engine.stats(),
            errors: engine.errors().to_vec(),
            stop,
            events: engine.events().to_vec(),
            sent: Vec::new(),
            delivered: Vec::new(),
        }
    }
}

/// Keeps, and consumes, every frame that reaches it wire-ward.
#[derive(Default)]
struct Tap {
    sent: Vec<(SimTime, Frame)>,
}

impl Hook for Tap {
    fn name(&self) -> &str {
        "tap"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.sent.push((ctx.now(), frame));
        Verdict::Consume
    }
}

/// Keeps every frame delivered to the stack.
#[derive(Default)]
struct Stack {
    delivered: Vec<(SimTime, Frame)>,
}

impl Protocol for Stack {
    fn name(&self) -> &str {
        "stack"
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.delivered.push((ctx.now(), frame));
    }
}

fn in_world(tables: &TableSet) -> Record {
    let mut world = World::new(SEED);
    let host = world.add_host_with("node1", MAC, "192.168.1.2".parse().unwrap());
    let engine = Engine::control(config(), TableSet::clone(tables), NodeId(0));
    let engine = world.add_hook(host, Box::new(engine));
    let tap = world.add_hook(host, Box::new(Tap::default()));
    let stack = world.add_protocol(host, Binding::All, Box::new(Stack::default()));
    for (at, dir, frame) in inputs() {
        match dir {
            Dir::Send => world.inject_from_stack_at(host, frame, at),
            Dir::Recv => world.inject_from_wire_at(host, frame, at),
        }
    }
    world.run_until(SimTime::from_nanos(200_000_000));
    let stop = world.stop_reason().map(|r| (world.now(), r.to_string()));
    let mut record = Record::of(world.hook::<Engine>(host, engine).unwrap(), tables, stop);
    record.sent = world.hook::<Tap>(host, tap).unwrap().sent.clone();
    record.delivered = world
        .protocol::<Stack>(host, stack)
        .unwrap()
        .delivered
        .clone();
    record
}

fn on_recorder(tables: &TableSet) -> (Record, Recorder) {
    let mut io = Recorder::new(MAC, SEED);
    let mut engine = Engine::control(config(), TableSet::clone(tables), NodeId(0));
    engine.start(io.begin(SimTime::ZERO));
    for (at, dir, frame) in inputs() {
        io.fire_timers(&mut engine, at);
        if !io.stops.is_empty() {
            break;
        }
        let verdict = match dir {
            Dir::Send => engine.outbound(io.begin(at), frame),
            Dir::Recv => engine.inbound(io.begin(at), frame),
        };
        io.pass(verdict, dir);
    }
    io.fire_timers(&mut engine, SimTime::from_nanos(200_000_000));
    let stop = io.stops.first().cloned();
    let mut record = Record::of(&engine, tables, stop.clone());
    // The world carries out nothing after a stop, so a frame due later
    // than the stop never moves there; what does move, moves in time order
    // (a stable sort: one instant keeps the order of the calls).
    let before_stop = |&(t, _): &(SimTime, Frame)| stop.as_ref().is_none_or(|(s, _)| t <= *s);
    record.sent = io.sent.iter().filter(|e| before_stop(e)).cloned().collect();
    record.delivered = io
        .delivered
        .iter()
        .filter(|e| before_stop(e))
        .cloned()
        .collect();
    record.sent.sort_by_key(|&(at, _)| at);
    record.delivered.sort_by_key(|&(at, _)| at);
    (record, io)
}

#[test]
fn the_engine_on_a_recorder_leaves_the_record_it_leaves_in_a_world() {
    let tables = compile_script(SCRIPT).unwrap_or_else(|e| panic!("{e}"));
    let world = in_world(&tables);
    let (recorded, io) = on_recorder(&tables);

    // The script reached what it is for.
    let stats = recorded.stats;
    assert!(
        stats.drops > 0 && stats.dups > 0 && stats.modifies >= 2,
        "{stats:?}"
    );
    assert!(stats.delays > 0 && stats.reorders >= 3, "{stats:?}");
    assert_eq!(recorded.errors.len(), 2, "{:?}", recorded.errors);
    assert!(recorded.stop.is_some(), "STOP fired");
    assert!(
        io.timers.len() >= 2,
        "DELAY armed its timers: {:?}",
        io.timers
    );
    let charged = recorded
        .sent
        .iter()
        .filter(|(t, _)| t.as_nanos() % 1_000_037 != 0);
    assert!(charged.count() > 0, "frames move after their charge");

    assert_eq!(recorded.counters, world.counters);
    assert_eq!(recorded.stats, world.stats);
    assert_eq!(recorded.errors, world.errors);
    assert_eq!(recorded.stop, world.stop);
    assert_eq!(recorded.events, world.events);
    assert_eq!(recorded.sent, world.sent);
    assert_eq!(recorded.delivered, world.delivered);
    assert_eq!(recorded, world);
}

/// A delayed frame comes back through [`Engine::timer`] when the recorder
/// fires the timer DELAY armed: the seam carries timers both ways.
#[test]
fn a_delayed_frame_leaves_when_its_timer_fires() {
    let tables = compile_script(SCRIPT).unwrap();
    let (recorded, io) = on_recorder(&tables);
    let due: Vec<SimTime> = io.timers.iter().map(|&(at, _)| at).collect();
    let released = (recorded.sent.iter())
        .filter(|(at, frame)| frame.ethertype() == DATA && due.contains(at))
        .count();
    assert_eq!(released as u64, recorded.stats.delays, "{:?}", io.timers);
}

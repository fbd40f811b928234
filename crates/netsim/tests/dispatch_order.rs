//! The order contract of handler dispatch, pinned as golden text.
//!
//! A three-hook chain and a protocol on `node1` mix every effect a
//! [`Context`] offers — `set_timer`, `cancel_timer`, `send`, `transmit_raw`,
//! `deliver_up`, `request_stop`, with and without `charge` — and several of
//! them land on the same timestamp. What is pinned:
//!
//! * a handler's effects apply after it returns, in the order it queued
//!   them, and before its verdict continues down the chain;
//! * sequence numbers are drawn in that order, so same-timestamp events pop
//!   in it;
//! * a dispatch nested inside an effect (a `deliver_up` reaching the
//!   protocol, a `send` reaching the next hook) runs depth-first, to the
//!   end, before the outer handler's next effect.
//!
//! The golden is the rendered trace ([`World::render_trace`]), the
//! handlers' own call log, and `events_processed()`. Frames are told apart
//! by EtherType `0x90xx` and length.

use std::cell::RefCell;
use std::rc::Rc;

use vw_netsim::{
    Binding, Context, Hook, LinkConfig, Protocol, SimDuration, SimTime, TimerId, Verdict, World,
};
use vw_packet::{EtherType, EthernetBuilder, Frame, MacAddr};

type CallLog = Rc<RefCell<String>>;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// A frame named by `tag`: EtherType `0x9000 + tag`, `tag` payload bytes.
fn tagged(src: MacAddr, dst: MacAddr, tag: u16) -> Frame {
    let payload = vec![tag as u8; usize::from(tag)];
    EthernetBuilder::new()
        .src(src)
        .dst(dst)
        .ethertype(EtherType(0x9000 + tag))
        .payload(&payload)
        .build()
}

fn tag_of(frame: &Frame) -> u16 {
    frame.ethertype().value() - 0x9000
}

fn log(calls: &CallLog, ctx: &Context<'_>, line: &str) {
    use std::fmt::Write;
    writeln!(calls.borrow_mut(), "{} {line}", ctx.now()).unwrap();
}

/// The protocol under the chain.
struct Stack {
    calls: CallLog,
    peer: MacAddr,
    cancelled_later: Option<TimerId>,
    seen: usize,
}

impl Stack {
    fn out(&self, ctx: &Context<'_>, tag: u16) -> Frame {
        tagged(ctx.mac(), self.peer, tag)
    }
}

impl Protocol for Stack {
    fn name(&self) -> &str {
        "stack"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        log(&self.calls, ctx, "stack.on_start");
        // Three timers due at 10 µs: two set now, one set under a 3 µs
        // charge with a 7 µs delay. The middle one is cancelled in the same
        // callback; the survivors fire in the order they were set.
        ctx.set_timer(us(10), 1);
        let doomed = ctx.set_timer(us(10), 2);
        ctx.send(self.out(ctx, 1));
        ctx.charge(us(3));
        ctx.send(self.out(ctx, 2));
        ctx.set_timer(us(7), 3);
        ctx.cancel_timer(doomed);
        ctx.transmit_raw(self.out(ctx, 3));
        // Cancelled from a later callback, after it was armed.
        self.cancelled_later = Some(ctx.set_timer(us(40), 9));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        log(&self.calls, ctx, &format!("stack.on_timer {token}"));
        match token {
            1 => {
                ctx.send(self.out(ctx, 4));
                // A zero-delay timer: fires at this timestamp, behind
                // timer 3, which was armed first.
                ctx.set_timer(SimDuration::ZERO, 4);
            }
            3 => {
                ctx.charge(us(1));
                ctx.send(self.out(ctx, 5));
                if let Some(id) = self.cancelled_later.take() {
                    ctx.cancel_timer(id);
                }
            }
            4 => {
                ctx.transmit_raw(self.out(ctx, 6));
                // Set and cancelled in one callback: armed, then unlinked.
                let stillborn = ctx.set_timer(us(5), 5);
                ctx.cancel_timer(stillborn);
                ctx.set_timer(us(5), 6);
            }
            6 => ctx.send(self.out(ctx, 7)),
            _ => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("stack.on_frame {tag}"));
        self.seen += 1;
        match self.seen {
            // Answer from inside a nested dispatch.
            1 => ctx.send(self.out(ctx, 20)),
            6 => {
                // The stop and both effects around it apply; no further
                // event runs.
                ctx.send(self.out(ctx, 21));
                ctx.request_stop("stack saw six frames");
                ctx.set_timer(us(1), 7);
                ctx.transmit_raw(self.out(ctx, 22));
            }
            _ => {}
        }
    }
}

/// Hook 0, next to the stack.
struct Top {
    calls: CallLog,
}

impl Hook for Top {
    fn name(&self) -> &str {
        "top"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("top.on_outbound {tag}"));
        match tag {
            // DUP: both copies continue, in order.
            2 => Verdict::Replace(vec![frame.clone(), frame]),
            // Consume, but emit in both directions first: the `deliver_up`
            // reaches the stack (nested dispatch, whose own `send` comes
            // back through this chain) before the `send` below it moves.
            4 => {
                ctx.deliver_up(tagged(frame.dst(), frame.src(), 10));
                ctx.send(tagged(frame.src(), frame.dst(), 11));
                ctx.charge(us(2));
                ctx.deliver_up(tagged(frame.dst(), frame.src(), 12));
                Verdict::Consume
            }
            _ => Verdict::Accept(frame),
        }
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("top.on_inbound {tag}"));
        if tag == 0x101 {
            return Verdict::Consume;
        }
        Verdict::Accept(frame)
    }
}

/// Hook 1: arms and cancels a timer per outbound frame, charges inbound.
struct Middle {
    calls: CallLog,
    pending: Option<TimerId>,
}

impl Hook for Middle {
    fn name(&self) -> &str {
        "middle"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("middle.on_outbound {tag}"));
        if let Some(id) = self.pending.take() {
            ctx.cancel_timer(id);
        }
        self.pending = Some(ctx.set_timer(us(25), u64::from(tag)));
        if tag == 5 {
            // The continuation is deferred by the charge: an
            // `Hop` event 2 µs out.
            ctx.charge(us(2));
        }
        Verdict::Accept(frame)
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("middle.on_inbound {tag}"));
        ctx.charge(us(1));
        Verdict::Accept(frame)
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        log(&self.calls, ctx, &format!("middle.on_timer {token}"));
        self.pending = None;
        ctx.transmit_raw(tagged(ctx.mac(), MacAddr::BROADCAST, 30));
    }

    fn on_teardown(&mut self, ctx: &mut Context<'_>) {
        log(&self.calls, ctx, "middle.on_teardown");
        ctx.deliver_up(tagged(MacAddr::BROADCAST, ctx.mac(), 31));
        ctx.send(tagged(ctx.mac(), MacAddr::BROADCAST, 32));
    }
}

/// Hook 2, next to the wire: emits beside what it accepts.
struct Bottom {
    calls: CallLog,
}

impl Hook for Bottom {
    fn name(&self) -> &str {
        "bottom"
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("bottom.on_outbound {tag}"));
        if tag == 1 {
            // Queued before the verdict exists, applied before it
            // continues: the escort reaches the NIC first.
            ctx.send(tagged(frame.src(), frame.dst(), 40));
        }
        Verdict::Accept(frame)
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("bottom.on_inbound {tag}"));
        if tag == 0x102 {
            ctx.deliver_up(tagged(frame.src(), frame.dst(), 41));
        }
        Verdict::Accept(frame)
    }
}

/// `node2`: reflects frames 1, 2 and 3 with `0x100` added to the tag.
struct Reflector {
    calls: CallLog,
}

impl Protocol for Reflector {
    fn name(&self) -> &str {
        "reflector"
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let tag = tag_of(&frame);
        log(&self.calls, ctx, &format!("reflector.on_frame {tag}"));
        if (1..=3).contains(&tag) {
            ctx.send(tagged(frame.dst(), frame.src(), tag + 0x100));
        }
    }
}

#[test]
fn effects_timers_and_nested_dispatch_keep_their_order() {
    let calls: CallLog = Rc::default();
    let mut world = World::new(1);
    let a = world.add_host("node1");
    let b = world.add_host("node2");
    let sw = world.add_switch("sw0", 4);
    world.connect(a, sw, LinkConfig::fast_ethernet());
    world.connect(b, sw, LinkConfig::fast_ethernet());
    let peer = world.host_mac(b);

    world.add_hook(
        a,
        Box::new(Top {
            calls: calls.clone(),
        }),
    );
    world.add_hook(
        a,
        Box::new(Middle {
            calls: calls.clone(),
            pending: None,
        }),
    );
    world.add_hook(
        a,
        Box::new(Bottom {
            calls: calls.clone(),
        }),
    );
    world.add_protocol(
        a,
        Binding::All,
        Box::new(Stack {
            calls: calls.clone(),
            peer,
            cancelled_later: None,
            seen: 0,
        }),
    );
    world.add_protocol(
        b,
        Binding::All,
        Box::new(Reflector {
            calls: calls.clone(),
        }),
    );

    let drained = world.run_until_idle(SimTime::from_nanos(10_000_000));
    world.teardown();

    let mut text = world.render_trace();
    text.push_str("-- calls --\n");
    text.push_str(&calls.borrow());
    text.push_str(&format!(
        "-- drained {drained}, stop {:?}, now {}, events {}, pending {} --\n",
        world.stop_reason(),
        world.now(),
        world.events_processed(),
        world.pending_events(),
    ));
    assert_eq!(text, GOLDEN, "dispatch order changed:\n{text}");
}

const GOLDEN: &str = r#"0.000000s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9028 len 54 
0.000000s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9001 len 15 
0.000003s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9002 len 16 
0.000003s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9002 len 16 
0.000003s node1 hook-emit 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9003 len 17 raw
0.000010s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x900a len 24 
0.000010s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9014 len 34 
0.000010s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x900b len 25 
0.000010s node1 hook-consume top
0.000010s node1 hook-emit 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9006 len 20 raw
0.000012s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x900c len 26 
0.000013s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9005 len 19 
0.000015s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9007 len 21 
0.000017s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9028 len 54 
0.000024s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9001 len 15 
0.000024s node2 host-send 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9101 len 271 
0.000031s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9002 len 16 
0.000031s node2 host-send 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9102 len 272 
0.000038s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9002 len 16 
0.000038s node2 host-send 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9102 len 272 
0.000040s node1 hook-emit 02:00:00:00:00:01 > ff:ff:ff:ff:ff:ff type 0x901e len 44 raw
0.000044s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9003 len 17 
0.000044s node2 host-send 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9103 len 273 
0.000051s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9014 len 34 
0.000058s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x900b len 25 
0.000064s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9006 len 20 
0.000071s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9005 len 19 
0.000076s node1 hook-consume top
0.000078s node2 host-recv 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9007 len 21 
0.000085s node2 host-recv 02:00:00:00:00:01 > ff:ff:ff:ff:ff:ff type 0x901e len 44 
0.000100s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9029 len 55 
0.000100s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9102 len 272 
0.000124s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9029 len 55 
0.000124s node1 host-recv 02:00:00:00:00:02 > 02:00:00:00:00:01 type 0x9102 len 272 
0.000124s node1 host-send 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9015 len 35 
0.000124s node1 hook-emit 02:00:00:00:00:01 > 02:00:00:00:00:02 type 0x9016 len 36 raw
0.000124s node1 host-recv ff:ff:ff:ff:ff:ff > 02:00:00:00:00:01 type 0x901f len 45 
0.000124s node1 host-send 02:00:00:00:00:01 > ff:ff:ff:ff:ff:ff type 0x9020 len 46 
-- calls --
0.000000s stack.on_start
0.000000s top.on_outbound 1
0.000000s middle.on_outbound 1
0.000000s bottom.on_outbound 1
0.000003s top.on_outbound 2
0.000003s middle.on_outbound 2
0.000003s bottom.on_outbound 2
0.000003s middle.on_outbound 2
0.000003s bottom.on_outbound 2
0.000010s stack.on_timer 1
0.000010s top.on_outbound 4
0.000010s stack.on_frame 10
0.000010s top.on_outbound 20
0.000010s middle.on_outbound 20
0.000010s bottom.on_outbound 20
0.000010s middle.on_outbound 11
0.000010s bottom.on_outbound 11
0.000010s stack.on_timer 3
0.000010s stack.on_timer 4
0.000011s top.on_outbound 5
0.000011s middle.on_outbound 5
0.000012s stack.on_frame 12
0.000013s bottom.on_outbound 5
0.000015s stack.on_timer 6
0.000015s top.on_outbound 7
0.000015s middle.on_outbound 7
0.000015s bottom.on_outbound 7
0.000017s reflector.on_frame 40
0.000024s reflector.on_frame 1
0.000031s reflector.on_frame 2
0.000038s reflector.on_frame 2
0.000040s middle.on_timer 7
0.000044s reflector.on_frame 3
0.000051s reflector.on_frame 20
0.000058s reflector.on_frame 11
0.000064s reflector.on_frame 6
0.000071s reflector.on_frame 5
0.000075s bottom.on_inbound 257
0.000075s middle.on_inbound 257
0.000076s top.on_inbound 257
0.000078s reflector.on_frame 7
0.000085s reflector.on_frame 30
0.000099s bottom.on_inbound 258
0.000099s middle.on_inbound 41
0.000099s middle.on_inbound 258
0.000100s top.on_inbound 41
0.000100s stack.on_frame 41
0.000100s top.on_inbound 258
0.000100s stack.on_frame 258
0.000123s bottom.on_inbound 258
0.000123s middle.on_inbound 41
0.000123s middle.on_inbound 258
0.000124s top.on_inbound 41
0.000124s stack.on_frame 41
0.000124s top.on_inbound 258
0.000124s stack.on_frame 258
0.000124s top.on_outbound 21
0.000124s middle.on_outbound 21
0.000124s bottom.on_outbound 21
0.000124s middle.on_teardown
0.000124s top.on_inbound 31
0.000124s stack.on_frame 31
0.000124s bottom.on_outbound 32
-- drained false, stop Some("stack saw six frames"), now 0.000124s, events 78, pending 4 --
"#;

//! The tower's event count, pinned: the full stack of `full_stack.rs` on
//! its lossy three-host hub, run to its `STOP`. Every frame a hub repeats
//! reaches every other host, and the copies a host's address filter
//! refuses are counted here beside the events.

mod common;

use common::{build_tower, Tower};
use vw_netsim::{SimDuration, TraceKind};

#[test]
fn the_tower_processes_a_pinned_number_of_events() {
    let Tower {
        mut world, runner, ..
    } = build_tower();
    runner.run(&mut world, SimDuration::from_secs(60));
    let refused = world.trace().of_kind(TraceKind::AddrFilterDrop).count() as u64;
    assert_eq!(refused, 776);
    // A refused copy is not an event: with the refusals counted back in,
    // the run does the work of one event per arrival.
    assert_eq!(world.events_processed() + refused, 5549);
}

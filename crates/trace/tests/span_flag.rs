//! What a span costs, and records, follows the guard's own `active` flag:
//! set by [`span`] from the thread's collector state at the moment it
//! opens, and the only thing its `Drop` looks at.

use vw_trace::{disable, enable, is_enabled, span, Category};

#[test]
fn a_disabled_span_records_nothing_and_leaves_the_collector_alone() {
    // enable -> disable -> span -> drain: nothing to drain.
    enable(16);
    assert!(disable().is_empty());
    assert!(!is_enabled());
    drop(span("ignored", Category::Other));
    let drained = disable();
    assert!(drained.is_empty());
    assert_eq!(drained.dropped, 0);

    // A guard opened while disabled stays inert when it closes inside an
    // enabled region: no record, and `depth` / `seq` are not touched — the
    // span opened after it still sits one level under `outer`, next in
    // sequence.
    let early = span("early", Category::Other);
    enable(16);
    {
        let _outer = span("outer", Category::Run);
        drop(early);
        let _inner = span("inner", Category::Event);
    }
    let trace = disable();
    let seen: Vec<(&str, u16, u64)> = trace
        .records
        .iter()
        .map(|r| (r.name, r.depth, r.seq))
        .collect();
    assert_eq!(seen, [("outer", 0, 0), ("inner", 1, 1)]);
}

#[test]
fn an_enabled_pair_nests_with_the_right_depth() {
    enable(16);
    {
        let _a = span("a", Category::Run);
        {
            let _b = span("b", Category::Event);
        }
        let _c = span("c", Category::Event);
    }
    let _after = span("after", Category::Other);
    let trace = disable();
    let seen: Vec<(&str, u16)> = trace.records.iter().map(|r| (r.name, r.depth)).collect();
    // `after` was still open at `disable`: spans close into the collector
    // they find, and there is none.
    assert_eq!(seen, [("a", 0), ("b", 1), ("c", 1)]);
    let a = trace.records[0];
    assert!(trace.records[1..]
        .iter()
        .all(|r| a.start_ns <= r.start_ns && r.start_ns + r.dur_ns <= a.start_ns + a.dur_ns));
}

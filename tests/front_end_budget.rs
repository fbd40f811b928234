//! The FSL front end's exact ruler: allocations to parse a script
//! (`vw_fsl::parse`) and to compile it to tables
//! (`virtualwire::compile_script`), for the evaluation sweep's generated
//! script and for Fig 5's. The parser pulls tokens from the lexer one at
//! a time and keeps no token list; `compile_script` parses into a program
//! that borrows its names from the script, so a name is copied once, into
//! the one string a table set's names share; compilation sizes each table
//! once. A change that moves a count moves a pin here, in its own diff.
//!
//! The counting allocator lives here, in the test crate, so the libraries
//! keep their `forbid(unsafe_code)`; it counts per thread, so the tests
//! do not see each other's allocations (or the harness's).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// The generator the benches and vwbench compile, used as they use it.
#[path = "../crates/bench/src/scriptgen.rs"]
mod scriptgen;

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

/// `(parse, compile_script)` allocations for `script`.
fn front_end_allocs(script: &str) -> (u64, u64) {
    let before = allocs();
    let program = vw_fsl::parse(script).expect("the script parses");
    let parsed = allocs() - before;
    let before = allocs();
    let tables = virtualwire::compile_script(script).expect("the script compiles");
    let compiled = allocs() - before;
    drop((program, tables));
    (parsed, compiled)
}

/// `sweep_script(25, 25, 0x4000)`, the script every `paper_overhead` bed
/// compiles: 179 allocations to parse (181 before: a 32-byte token per
/// token in a list that outgrew its reservation, a `String` per name
/// occurrence) and 113 to compile (312 before, at most 156 by this
/// ruler's bound: names were copied again into the tables, and per-rule
/// lists grew by doubling).
#[test]
fn the_front_end_parses_the_sweep_in_179_allocations_and_compiles_it_in_113() {
    let script = scriptgen::sweep_script(25, 25, 0x4000);
    let (parsed, compiled) = front_end_allocs(&script);
    assert!(
        compiled <= 156,
        "{compiled} allocations to compile the sweep"
    );
    assert_eq!((parsed, compiled), (179, 113), "parse / compile_script");
}

/// Fig 5's script (`scripts/tcp_ss_ca.fsl`): 117 allocations to parse
/// it, 109 to compile it to tables (118 and 229 before).
#[test]
fn the_front_end_parses_fig_5_in_117_allocations_and_compiles_it_in_109() {
    const SCRIPT: &str = include_str!("../scripts/tcp_ss_ca.fsl");
    assert_eq!(
        front_end_allocs(SCRIPT),
        (117, 109),
        "parse / compile_script"
    );
}

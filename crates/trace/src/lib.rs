//! Span-based self-profiler for the VirtualWire reproduction.
//!
//! The simulator's hot path crosses four layers on every frame — the
//! netsim event loop, the engine's Figure 4(b) pipeline, the TCP stack,
//! and (in sweeps) the campaign executor. `vw-trace` makes that path
//! visible to itself: manually placed [`span`]s on a monotone clock feed
//! a thread-local ring buffer of fixed-size [`SpanRecord`]s, and the
//! collected [`Trace`] exports three ways:
//!
//! - **Chrome trace-event JSON** ([`Trace::to_chrome_json`]) — load in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! - **Folded stacks** ([`Trace::to_folded`]) — pipe to `flamegraph.pl`
//!   or any folded-stack viewer.
//! - **[`PhaseBreakdown`]** ([`Trace::phase_breakdown`]) — a per-category
//!   *self-time* attribution table answering "where do the ns/frame go",
//!   foldable into `vw-obs::MetricsRegistry` histograms.
//!
//! ## Cost model
//!
//! Recording is per-thread and lock-free: a span is two `Instant` reads
//! and a ring-buffer write. When the collector is not [`enable`]d the
//! guard constructor is a single thread-local flag read. There is one
//! build: that check is part of every `vwbench` metric, and
//! `trace.overhead_pct` is what enabling the collector adds.
//!
//! ## Determinism
//!
//! Spans read the *wall* clock, never the simulated clock, and nothing in
//! this crate feeds back into the simulation: enabling tracing cannot
//! change event order, digests, or campaign output. The wall-clock values
//! themselves are of course not reproducible across runs — traces are
//! diagnostics, not fixtures.
//!
//! ```
//! use vw_trace::{span, Category};
//!
//! vw_trace::enable(1 << 16);
//! {
//!     let _run = span("run", Category::Run);
//!     let _work = span("work", Category::Other);
//! }
//! let trace = vw_trace::disable();
//! assert_eq!(trace.records.len(), 2);
//! let json = trace.to_chrome_json();
//! vw_trace::validate_chrome_json(&json).unwrap();
//! ```

mod collect;
mod export;
mod record;

pub use collect::{disable, enable, is_enabled, span, SpanGuard};
pub use export::{chrome_json_many, json_escape, json_string, validate_chrome_json, Json};
pub use record::{Category, CategoryStats, PhaseBreakdown, SpanRecord, Trace};

//! # vw-serve — fault injection as a service
//!
//! ThorFI and ProFIPy reframe fault injection as a *service*; this crate
//! does the same for VirtualWire campaigns. A daemon accepts campaign
//! submissions (FSL source + swept axes + digest key) over a
//! length-prefixed, CRC-checked framed protocol on TCP or unix sockets,
//! multiplexes them onto one shared worker pool with shard-granular
//! fairness, streams per-instance outcome JSONL back as shards complete,
//! and checkpoints every completed shard to an append-only log — so a
//! killed daemon resumes a million-instance sweep exactly where it left
//! off, with the final report byte-identical to an uninterrupted run.
//!
//! The moving parts:
//!
//! ```text
//!   client ──Submit──▶ reader ──input──▶ owner: scheduler ──Run──▶ worker pool
//!     ▲               (frame.rs,         (fair RR over      (run_shard_observed)
//!     │                enumerate)         shards, credits)           │ ShardRan
//!     │                                   │  ▲ ◀─────────────────────┘
//!     │                   OpenLog, Append ▼  │ LogOpened, Durable
//!     │                                  log writer ──▶ checkpoint log
//!     │                               (append + sync)   (<name>.vwlog)
//!     │
//!     └──Outcome/Done── conn writer ◀──Send── owner
//!            (backpressure: spent credits pause the sweep)
//! ```
//!
//! Determinism carries over from `vw-campaign` end to end: shard
//! partitioning depends only on `(total, shard_size)`, emission is in
//! instance order, and checkpoints store full outcomes — so worker
//! count, kill points, and client speed never change a byte of output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod frame;
pub mod journal;
pub mod payload;

mod client;
mod scheduler;
mod server;
mod setup;
mod top;

pub use client::{Client, ClientError, TelemetryUpdate};
pub use journal::{Journal, JournalEntry, JournalEvent, Severity};
pub use payload::{
    Accepted, ErrorCode, JournalQuery, JournalReply, Submission, Subscribe, TelemetryDelta,
};
pub use scheduler::QuotaConfig;
pub use server::{Daemon, DaemonConfig};
pub use setup::{SetupHandle, SetupRegistry};
pub use top::{run_top, TopOptions};

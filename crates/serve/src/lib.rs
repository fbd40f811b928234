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
//!   client ──Submit──▶ frame codec ──▶ scheduler ──▶ worker pool
//!     ▲                 (frame.rs)     (fair RR       (run_shard_observed)
//!     │                                 over shards)      │ finished shards
//!     │                                                   ▼
//!     │                                              log writer ──▶ checkpoint log
//!     │                                   (append + sync, then     (<name>.vwlog)
//!     │                                    announce the shard)
//!     │                                                   │
//!     └──Outcome/Done── bounded outbox ◀── emission ◀─────┘
//!            (backpressure: full outbox pauses the sweep)
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

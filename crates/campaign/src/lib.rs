//! # vw-campaign — parallel fault-space exploration for VirtualWire
//!
//! The paper positions VirtualWire as a tool for running "a large number
//! of test cases without human intervention"; this crate is the engine
//! that makes the large number practical. It turns one base FSL program
//! plus a set of swept axes into a *campaign*: a deterministic
//! enumeration of the fault space, executed in shards across a pool of OS
//! threads, deduplicated into outcome equivalence classes, and — when an
//! instance does something interesting — shrunk down to a minimal
//! reproducer. The `vw-serve` daemon runs the same shards; its telemetry
//! (`vw-serve top`) is how a long sweep is watched while it runs.
//!
//! The pipeline, end to end:
//!
//! ```text
//!   CampaignSpec ──enumerate()──▶ [Instance; N]       (spec)
//!        │                             │
//!        │                     run_campaign(setup)    (exec)
//!        │                             │  ShardPlan shards,
//!        │                             ▼  one World per worker
//!                               [InstanceOutcome; N]
//!                                      │
//!                            CampaignResult::build    (outcome)
//!                                      │  digest + dedup
//!                                      ▼
//!                           classes ──to_jsonl()──▶ report
//!                                      │
//!                          shrink(instance, pred)     (shrink)
//!                                      ▼
//!                           minimal reproducer script
//! ```
//!
//! Determinism is the design invariant: the same spec and seeds produce
//! byte-identical JSONL whether the campaign ran on one thread or eight,
//! and a sampled campaign replays bit-for-bit from its sampling seed.
//!
//! ```no_run
//! use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig, RunConfig};
//! use virtualwire::{EngineConfig, Runner, ScriptError};
//! use vw_fsl::TableSet;
//! use vw_netsim::{LinkConfig, World};
//!
//! let program = vw_fsl::parse("...").unwrap();
//! let spec = CampaignSpec::new("sweep", program)
//!     .axis(Axis::threshold_at("Sent", 0, vec![2, 5, 40]))
//!     .axis(Axis::seeds(vec![1, 2, 3]));
//! let setup = |tables: &TableSet, run: &RunConfig| -> Result<(World, Runner), ScriptError> {
//!     let mut world = World::with_impairment(run.seed, run.impairment);
//!     let nodes = Runner::create_hosts(&mut world, tables);
//!     let sw = world.add_switch("sw0", 4);
//!     for &n in &nodes {
//!         world.connect(n, sw, LinkConfig::fast_ethernet());
//!     }
//!     let runner = Runner::try_install(&mut world, tables.clone(), EngineConfig::default())?;
//!     runner.settle(&mut world);
//!     // ... attach traffic apps ...
//!     Ok((world, runner))
//! };
//! let result = run_campaign(&spec, &setup, &ExecConfig::threads(4)).unwrap();
//! println!("{}", result.to_jsonl());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod outcome;
mod shrink;
mod spec;

pub use exec::{
    run_campaign, run_one, run_shard_observed, ExecConfig, Setup, ShardPlan, SHARD_SIZE,
};
pub use outcome::{
    fnv1a64, instance_jsonl_line, CampaignResult, DigestKey, InstanceOutcome, InstanceRecord,
    MetricsDigest, OutcomeClass, OutcomeDigest,
};
pub use shrink::{shrink, ShrinkOptions, ShrinkResult};
pub use spec::{
    Axis, CampaignError, CampaignErrorKind, CampaignSpec, Instance, RunConfig, Sampling,
};

//! The campaign executor.
//!
//! A campaign's instances are split into [`ShardPlan`] shards, the same
//! unit the `vw-serve` daemon schedules, checkpoints and resumes. Workers
//! pull shard indices from one counter and run each shard with
//! [`run_shard_observed`]; the calling thread is worker 0, the rest are
//! scoped OS threads (`std::thread::scope`, no external runtime). Each
//! worker builds its own [`World`]/[`Runner`] through the caller's setup
//! closure, so nothing that lives inside a simulation crosses a thread
//! boundary. Shards are concatenated in plan order, which is what makes
//! the final report byte-identical at any thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use virtualwire::{Runner, ScriptError};
use vw_fsl::TableSet;
use vw_netsim::{SimDuration, World};

use crate::outcome::{CampaignResult, DigestKey, InstanceOutcome, OutcomeDigest};
use crate::spec::{CampaignError, CampaignSpec, Instance, RunConfig};

/// A per-instance testbed factory.
///
/// Called on a worker thread once per instance with the compiled tables
/// and the instance's [`RunConfig`] (seed + control impairment). The
/// closure owns topology: create the hosts the script names, wire them,
/// start traffic, then hand back the world and an installed runner —
/// typically via [`Runner::try_install`], whose [`ScriptError`] becomes
/// an [`InstanceOutcome::SetupFailed`] rather than a campaign abort.
pub trait Setup: Sync {
    /// Builds one testbed.
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError>;

    /// Post-run hook, called after the runner produced `report` while the
    /// world is still alive. The default does nothing; conformance
    /// checkers (see `vw-analysis`) override it to extract protocol state
    /// from the world and append verdicts to the report before it is
    /// digested. Must be deterministic for a fixed `(instance, report)` —
    /// whatever it writes participates in outcome digests.
    fn finish(&self, world: &mut World, report: &mut virtualwire::Report) {
        let _ = (world, report);
    }
}

impl<F> Setup for F
where
    F: Fn(&TableSet, &RunConfig) -> Result<(World, Runner), ScriptError> + Sync,
{
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
        self(tables, run)
    }
}

/// Executor knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads. `1` runs everything inline on the caller thread.
    pub threads: usize,
    /// Hard per-run deadline in simulated time.
    pub deadline: SimDuration,
    /// Digest fields that define outcome-class membership.
    pub key: DigestKey,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            deadline: SimDuration::from_secs(60),
            key: DigestKey::default(),
        }
    }
}

impl ExecConfig {
    /// An executor with `threads` workers and default deadline/key.
    ///
    /// The count is stored as given — `0` is rejected with a typed
    /// [`CampaignError`] when the config reaches [`run_campaign`], not
    /// silently rounded up here.
    pub fn threads(threads: usize) -> Self {
        ExecConfig {
            threads,
            ..ExecConfig::default()
        }
    }

    /// Checks the configuration, returning a
    /// [`CampaignErrorKind::Config`](crate::CampaignErrorKind::Config)-kinded
    /// error for a zero worker count. Called by [`run_campaign`] before
    /// any work starts.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.threads == 0 {
            return Err(CampaignError::config(
                "ExecConfig::threads is 0: a campaign needs at least one worker thread",
            ));
        }
        Ok(())
    }
}

/// Instances per shard after the first: the grain [`run_campaign`] hands
/// to a worker, and the `vw-serve` daemon's default for submissions that
/// leave it open.
pub const SHARD_SIZE: usize = 8;

/// A deterministic decomposition of an instance list into contiguous
/// shards — the unit of scheduling, checkpointing, and resumption for
/// streaming executors (the `vw-serve` daemon).
///
/// Shard 0 holds the first instance alone and every later shard
/// `shard_size` (the last may be shorter): a streaming executor emits a
/// line only once its shard is durable, so a campaign's first verdict
/// waits for one instance, not a whole shard.
///
/// Contiguity is what makes shards *streamable*: once shards `0..k` have
/// completed, the outcomes for instance positions `0..range(k-1).end`
/// are final and can be emitted in order, regardless of how many shards
/// beyond `k` are still in flight. The plan depends only on
/// `(total, shard_size)`, never on worker count, so a campaign killed and
/// resumed under a different pool size still partitions identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    total: usize,
    shard_size: usize,
}

impl ShardPlan {
    /// A plan over `total` instances: the first alone, the rest in chunks
    /// of `shard_size` (clamped to at least 1).
    pub fn new(total: usize, shard_size: usize) -> Self {
        ShardPlan {
            total,
            shard_size: shard_size.max(1),
        }
    }

    /// Number of shards (`0` for an empty campaign).
    pub fn count(&self) -> usize {
        match self.total {
            0 => 0,
            total => 1 + (total - 1).div_ceil(self.shard_size),
        }
    }

    /// The instance-position range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= count()`.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.count(), "shard {shard} out of range");
        if shard == 0 {
            return 0..1;
        }
        let start = 1 + (shard - 1) * self.shard_size;
        start..(start + self.shard_size).min(self.total)
    }

    /// The shard holding instance position `pos`, and `pos`'s offset
    /// within it.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= total`.
    pub fn locate(&self, pos: usize) -> (usize, usize) {
        assert!(pos < self.total, "position {pos} out of range");
        match pos {
            0 => (0, 0),
            pos => (1 + (pos - 1) / self.shard_size, (pos - 1) % self.shard_size),
        }
    }
}

/// Runs a contiguous slice of instances sequentially in order, returning
/// `(outcome, wall_ns)` per instance — one shard's worth of work for a
/// pool that schedules [`ShardPlan`] shards across campaigns. `observe`
/// is called as each instance finishes with the outcome and its wall
/// time in nanoseconds. The observer is telemetry-only: it sees copies of
/// facts already on the result path and cannot perturb outcomes — this is
/// how the `vw-serve` scheduler feeds per-campaign rate/latency windows
/// without waiting for whole shards to land.
pub fn run_shard_observed<S: Setup>(
    instances: &[Instance],
    setup: &S,
    deadline: SimDuration,
    mut observe: impl FnMut(&InstanceOutcome, u64),
) -> Vec<(InstanceOutcome, u64)> {
    instances
        .iter()
        .map(|i| {
            let (outcome, wall_ns) = run_one_timed(i, setup, deadline);
            observe(&outcome, wall_ns);
            (outcome, wall_ns)
        })
        .collect()
}

/// Runs a single instance to an outcome, on its program point's tables
/// (compiled by the first instance of the point to get here). Never panics:
/// compile errors, setup errors, and panics inside the simulation all
/// become outcome variants so one bad point in the sweep can't take the
/// pool down.
pub fn run_one<S: Setup>(instance: &Instance, setup: &S, deadline: SimDuration) -> InstanceOutcome {
    run_one_timed(instance, setup, deadline).0
}

/// [`run_one`], also measuring the instance's wall-clock duration in
/// nanoseconds (saturated to `u64`). The duration is diagnostic only —
/// it never participates in outcome digests.
fn run_one_timed<S: Setup>(
    instance: &Instance,
    setup: &S,
    deadline: SimDuration,
) -> (InstanceOutcome, u64) {
    let _span = vw_trace::span("instance", vw_trace::Category::Campaign);
    let started = Instant::now();
    let outcome = run_one_inner(instance, setup, deadline);
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (outcome, wall_ns)
}

fn run_one_inner<S: Setup>(
    instance: &Instance,
    setup: &S,
    deadline: SimDuration,
) -> InstanceOutcome {
    let tables = match instance.tables() {
        Ok(tables) => tables,
        Err(message) => return InstanceOutcome::Invalid(message.to_string()),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (mut world, runner) = match setup.build(tables, &instance.run) {
            Ok(pair) => pair,
            Err(e) => return InstanceOutcome::SetupFailed(e.to_string()),
        };
        let mut report = runner.run(&mut world, deadline);
        setup.finish(&mut world, &mut report);
        InstanceOutcome::Completed(OutcomeDigest::from_owned_report(report))
    }));
    result.unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        InstanceOutcome::Crashed(message)
    })
}

/// Runs every instance of `spec` through `setup` and aggregates the
/// deduped [`CampaignResult`].
///
/// The instances are cut into a [`ShardPlan`] of [`SHARD_SIZE`];
/// `cfg.threads` workers (the caller's thread among them) each take the
/// next unclaimed shard until none is left. Shards land in plan order
/// whoever ran them, so the result (and its JSONL rendering) is identical
/// for any `cfg.threads`.
pub fn run_campaign<S: Setup>(
    spec: &CampaignSpec,
    setup: &S,
    cfg: &ExecConfig,
) -> Result<CampaignResult, CampaignError> {
    cfg.validate()?;
    let instances = spec.enumerate()?;
    let timed = run_instances(&instances, setup, cfg);
    Ok(CampaignResult::build(
        &spec.name, &instances, timed, cfg.key,
    ))
}

/// Runs an instance list on `cfg.threads` workers, returning one
/// `(outcome, wall_ns)` per instance in instance-list order.
fn run_instances<S: Setup>(
    instances: &[Instance],
    setup: &S,
    cfg: &ExecConfig,
) -> Vec<(InstanceOutcome, u64)> {
    let plan = ShardPlan::new(instances.len(), SHARD_SIZE);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Vec<(InstanceOutcome, u64)>>> =
        (0..plan.count()).map(|_| OnceLock::new()).collect();
    // One worker: claim shards until the plan runs out, each into its slot.
    let work = || loop {
        let shard = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(shard) else { return };
        let range = plan.range(shard);
        let outcomes = run_shard_observed(&instances[range], setup, cfg.deadline, |_, _| {});
        let _ = slot.set(outcomes);
    };
    std::thread::scope(|scope| {
        for _ in 1..cfg.threads.min(plan.count()) {
            scope.spawn(work);
        }
        work();
    });
    let mut timed = Vec::with_capacity(instances.len());
    for slot in slots {
        timed.extend(slot.into_inner().expect("every shard ran"));
    }
    timed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use vw_fsl::parse;

    const SCRIPT: &str = r#"
        FILTER_TABLE
        p: (12 2 0x4242)
        END
        NODE_TABLE
        node1 02:00:00:00:00:01 10.0.0.1
        node2 02:00:00:00:00:02 10.0.0.2
        END
        SCENARIO exec_unit 100msec
        C: (p, node1, node2, RECV)
        (TRUE) >> ENABLE_CNTR(C);
        ((C = 3)) >> STOP;
        END
    "#;

    struct NoSetup;
    impl Setup for NoSetup {
        fn build(
            &self,
            _tables: &TableSet,
            _run: &RunConfig,
        ) -> Result<(World, Runner), ScriptError> {
            panic!("setup reached for an invalid instance");
        }
    }

    fn outcomes<S: Setup>(
        instances: &[Instance],
        setup: &S,
        threads: usize,
    ) -> Vec<InstanceOutcome> {
        run_instances(instances, setup, &ExecConfig::threads(threads))
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    #[test]
    fn invalid_program_becomes_an_invalid_outcome_not_a_crash() {
        let mut program = parse(SCRIPT).unwrap();
        program.scenarios[0].rules.clear();
        let instance = Instance::new(0, vec![], program, RunConfig::default());
        let outcome = run_one(&instance, &NoSetup, SimDuration::from_secs(1));
        assert!(matches!(outcome, InstanceOutcome::Invalid(_)));
    }

    #[test]
    fn setup_panic_becomes_a_crashed_outcome() {
        let instance = Instance::new(0, vec![], parse(SCRIPT).unwrap(), RunConfig::default());
        let outcome = run_one(&instance, &NoSetup, SimDuration::from_secs(1));
        match outcome {
            InstanceOutcome::Crashed(m) => assert!(m.contains("setup reached")),
            other => panic!("expected Crashed, got {other:?}"),
        }
    }

    #[test]
    fn setup_error_becomes_setup_failed() {
        let setup = |tables: &TableSet, run: &RunConfig| {
            let mut world = World::new(run.seed);
            // World has no hosts, so every scripted node is missing.
            Runner::try_install(&mut world, tables.clone(), Default::default())
                .map(|runner| (world, runner))
        };
        let instance = Instance::new(0, vec![], parse(SCRIPT).unwrap(), RunConfig::default());
        let outcome = run_one(&instance, &setup, SimDuration::from_secs(1));
        match outcome {
            InstanceOutcome::SetupFailed(m) => assert!(m.contains("node1")),
            other => panic!("expected SetupFailed, got {other:?}"),
        }
    }

    #[test]
    fn zero_threads_is_a_typed_config_error() {
        let spec =
            CampaignSpec::new("zero", parse(SCRIPT).unwrap()).axis(Axis::seeds(vec![1u64, 2, 3]));
        let err = run_campaign(&spec, &NoSetup, &ExecConfig::threads(0))
            .expect_err("threads(0) must be rejected");
        assert_eq!(err.kind(), crate::CampaignErrorKind::Config);
        assert!(err.to_string().contains("threads"), "message: {err}");
    }

    #[test]
    fn shard_plan_partitions_contiguously() {
        let plan = ShardPlan::new(13, 5);
        assert_eq!(plan.count(), 4);
        assert_eq!(plan.range(0), 0..1);
        assert_eq!(plan.range(1), 1..6);
        assert_eq!(plan.range(2), 6..11);
        assert_eq!(plan.range(3), 11..13);
        assert_eq!(plan.locate(0), (0, 0));
        assert_eq!(plan.locate(5), (1, 4));
        assert_eq!(plan.locate(6), (2, 0));
        assert_eq!(ShardPlan::new(0, 5).count(), 0);
        assert_eq!(ShardPlan::new(1, 5).count(), 1);
        // Exact fit after the first: no empty trailing shard.
        assert_eq!(ShardPlan::new(11, 5).count(), 3);
        // Zero shard size is clamped rather than dividing by zero.
        assert_eq!(ShardPlan::new(3, 0), ShardPlan::new(3, 1));
        assert_eq!(ShardPlan::new(3, 0).count(), 3);
    }

    proptest::proptest! {
        #[test]
        fn shard_plan_tiles_every_position_once(total in 0usize..200, size in 0usize..20) {
            let plan = ShardPlan::new(total, size);
            let mut next = 0;
            for shard in 0..plan.count() {
                let range = plan.range(shard);
                proptest::prop_assert_eq!(range.start, next);
                proptest::prop_assert!(range.end > range.start);
                for (offset, pos) in range.clone().enumerate() {
                    proptest::prop_assert_eq!(plan.locate(pos), (shard, offset));
                }
                next = range.end;
            }
            proptest::prop_assert_eq!(next, total);
            if total > 0 {
                proptest::prop_assert_eq!(plan.locate(total - 1).0 + 1, plan.count());
                proptest::prop_assert_eq!(plan.range(0), 0..1);
            }
        }
    }

    #[test]
    fn run_shard_matches_sequential_run() {
        let program = parse(SCRIPT).unwrap();
        let spec =
            CampaignSpec::new("shard", program).axis(Axis::seeds((0..7).collect::<Vec<u64>>()));
        let instances = spec.enumerate().unwrap();
        let setup = |_tables: &TableSet, run: &RunConfig| -> Result<(World, Runner), ScriptError> {
            panic!("probe seed {}", run.seed);
        };
        let plan = ShardPlan::new(instances.len(), 3);
        let mut stitched = Vec::new();
        for shard in 0..plan.count() {
            let part = run_shard_observed(
                &instances[plan.range(shard)],
                &setup,
                SimDuration::from_secs(1),
                |_, _| {},
            );
            stitched.extend(part.into_iter().map(|(o, _)| o));
        }
        assert_eq!(stitched, outcomes(&instances, &setup, 1));
    }

    #[test]
    fn sharding_preserves_instance_order_at_any_thread_count() {
        let program = parse(SCRIPT).unwrap();
        let spec =
            CampaignSpec::new("order", program).axis(Axis::seeds((0..37).collect::<Vec<u64>>()));
        let instances = spec.enumerate().unwrap();
        // Intentionally panicking setup whose message embeds the instance
        // seed, so every outcome is distinct and any merge-order mistake
        // shows up as a mismatch (cheap: no worlds are ever built).
        let setup = |_tables: &TableSet, run: &RunConfig| -> Result<(World, Runner), ScriptError> {
            panic!("probe seed {}", run.seed);
        };
        let solo = outcomes(&instances, &setup, 1);
        for threads in [2, 3, 8, 64] {
            let pooled = outcomes(&instances, &setup, threads);
            assert_eq!(solo, pooled, "thread count {threads} changed results");
        }
    }
}

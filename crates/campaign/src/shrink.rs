//! Failing-scenario shrinking: reduce an interesting instance to a
//! minimal reproducer.
//!
//! A campaign tells you *that* cross-product point #137 flags an error;
//! the shrinker tells you *why*, by throwing away everything that
//! doesn't matter. It delta-debugs the scenario's rule set (chunked
//! removal at shrinking granularity, ddmin style), prunes counter and
//! filter declarations, and bisects swept numeric parameters toward
//! their axis minimum — re-running the candidate after every mutation
//! and keeping it only if a caller-supplied predicate still accepts the
//! outcome. Every kept candidate is also required to survive a
//! printer/parser round-trip, so the final reproducer is guaranteed to
//! exist as a real FSL script (see [`ShrinkResult::script`]), not just
//! as an AST that no parse could produce.

use vw_fsl::Program;
use vw_netsim::SimDuration;

use crate::exec::{run_one, Setup};
use crate::outcome::OutcomeDigest;
use crate::spec::{Axis, CampaignError, Instance, RunConfig};

/// Shrinker knobs.
#[derive(Debug, Clone)]
pub struct ShrinkOptions {
    /// Per-candidate simulated-time deadline (candidates that lost their
    /// `STOP` rule run until here).
    pub deadline: SimDuration,
    /// Hard budget on candidate executions; the shrink stops improving
    /// when it is spent.
    pub max_runs: usize,
    /// Numeric axes to bisect toward their minimum after structural
    /// shrinking (usually the campaign's `Threshold`/`DelayNs` axes;
    /// `Seed`/`Impairment` axes are ignored).
    pub axes: Vec<Axis>,
}

impl Default for ShrinkOptions {
    fn default() -> Self {
        ShrinkOptions {
            deadline: SimDuration::from_secs(60),
            max_runs: 2_000,
            axes: Vec::new(),
        }
    }
}

/// The result of a successful shrink.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimized program.
    pub program: Program,
    /// The (unchanged) run configuration of the shrunk instance.
    pub run: RunConfig,
    /// Rule count before shrinking.
    pub rules_before: usize,
    /// Rule count after shrinking.
    pub rules_after: usize,
    /// Counter declarations removed.
    pub counters_removed: usize,
    /// Filter definitions removed.
    pub filters_removed: usize,
    /// `(axis name, final value)` for each bisected numeric axis.
    pub bisected: Vec<(String, String)>,
    /// Candidate executions spent.
    pub runs: usize,
}

impl ShrinkResult {
    /// The minimized reproducer as FSL source. Guaranteed to parse back
    /// to exactly [`ShrinkResult::program`].
    pub fn script(&self) -> String {
        vw_fsl::print(&self.program)
    }
}

/// Tracks the execution budget and evaluates candidates.
struct Oracle<'a, S: Setup, P: Fn(&OutcomeDigest) -> bool> {
    setup: &'a S,
    predicate: P,
    run: RunConfig,
    deadline: SimDuration,
    max_runs: usize,
    runs: usize,
}

impl<'a, S: Setup, P: Fn(&OutcomeDigest) -> bool> Oracle<'a, S, P> {
    /// `true` iff the candidate is structurally valid (compiles to one
    /// table set AND survives a print/parse round-trip) and its run still
    /// satisfies the predicate. Spends one unit of budget per executed
    /// candidate; returns `false` unconditionally once the budget is
    /// gone, which freezes the shrink at its current best.
    fn accepts(&mut self, candidate: &Program) -> bool {
        if self.runs >= self.max_runs {
            return false;
        }
        let probe = Instance::new(0, Vec::new(), candidate.clone(), self.run);
        if probe.tables().is_err() {
            return false;
        }
        let round_trips = vw_fsl::parse(&vw_fsl::print(candidate))
            .map(|p| p == *candidate)
            .unwrap_or(false);
        if !round_trips {
            return false;
        }
        self.runs += 1;
        run_one(&probe, self.setup, self.deadline)
            .digest()
            .is_some_and(|d| (self.predicate)(d))
    }
}

/// Minimizes `instance` while `predicate` keeps accepting the outcome.
///
/// # Errors
///
/// Fails if the starting instance itself doesn't satisfy the predicate
/// (nothing to shrink — the caller probably picked the wrong instance or
/// the wrong predicate).
pub fn shrink<S: Setup, P: Fn(&OutcomeDigest) -> bool>(
    instance: &Instance,
    setup: &S,
    predicate: P,
    opts: &ShrinkOptions,
) -> Result<ShrinkResult, CampaignError> {
    let mut oracle = Oracle {
        setup,
        predicate,
        run: instance.run,
        deadline: opts.deadline,
        max_runs: opts.max_runs,
        runs: 0,
    };
    let mut best = instance.program().clone();
    if !oracle.accepts(&best) {
        return Err(CampaignError::new(
            "shrink: the starting instance does not satisfy the predicate",
        ));
    }
    let rules_before = rule_count(&best);

    shrink_rules(&mut best, &mut oracle);
    let counters_removed = prune(&mut best, &mut oracle, counter_count, remove_counter);
    let filters_removed = prune(&mut best, &mut oracle, filter_count, remove_filter);
    // Structural removal can unlock further rule removals (a rule that
    // only existed to feed a now-gone counter), so take one more pass.
    shrink_rules(&mut best, &mut oracle);

    let mut bisected = Vec::new();
    for axis in &opts.axes {
        if let Some(label) = bisect_axis(&mut best, axis, &mut oracle) {
            bisected.push((axis.name(), label));
        }
    }

    Ok(ShrinkResult {
        rules_before,
        rules_after: rule_count(&best),
        counters_removed,
        filters_removed,
        bisected,
        runs: oracle.runs,
        run: instance.run,
        program: best,
    })
}

fn rule_count(p: &Program) -> usize {
    p.scenarios.iter().map(|s| s.rules.len()).sum()
}

fn counter_count(p: &Program) -> usize {
    p.scenarios.iter().map(|s| s.counters.len()).sum()
}

fn filter_count(p: &Program) -> usize {
    p.filters.len()
}

fn remove_counter(p: &mut Program, mut idx: usize) {
    for scenario in &mut p.scenarios {
        if idx < scenario.counters.len() {
            scenario.counters.remove(idx);
            return;
        }
        idx -= scenario.counters.len();
    }
}

fn remove_filter(p: &mut Program, idx: usize) {
    p.filters.remove(idx);
}

/// Delta-debugs the rule set: tries removing contiguous rule chunks at
/// halving granularity until a full single-rule pass makes no progress.
fn shrink_rules<S: Setup, P: Fn(&OutcomeDigest) -> bool>(
    best: &mut Program,
    oracle: &mut Oracle<'_, S, P>,
) {
    loop {
        let mut improved = false;
        let mut chunk = (rule_count(best) / 2).max(1);
        loop {
            let mut start = 0;
            while start < rule_count(best) {
                let mut candidate = best.clone();
                remove_rule_range(&mut candidate, start, chunk);
                if rule_count(&candidate) > 0 && oracle.accepts(&candidate) {
                    *best = candidate;
                    improved = true;
                    // Rules shifted down into `start`; retry in place.
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !improved {
            return;
        }
    }
}

/// Removes up to `len` rules starting at flat index `start` (flattened
/// across scenarios; campaign programs have one, but stay general).
fn remove_rule_range(p: &mut Program, start: usize, len: usize) {
    let mut idx = start;
    let mut left = len;
    for scenario in &mut p.scenarios {
        if left == 0 {
            return;
        }
        if idx < scenario.rules.len() {
            let end = (idx + left).min(scenario.rules.len());
            left -= end - idx;
            scenario.rules.drain(idx..end);
            idx = 0;
        } else {
            idx -= scenario.rules.len();
        }
    }
}

/// Greedy one-at-a-time pruning over a countable item class, high index
/// to low so earlier removals don't shift what later iterations target.
fn prune<S, P, C, R>(
    best: &mut Program,
    oracle: &mut Oracle<'_, S, P>,
    count: C,
    remove: R,
) -> usize
where
    S: Setup,
    P: Fn(&OutcomeDigest) -> bool,
    C: Fn(&Program) -> usize,
    R: Fn(&mut Program, usize),
{
    let mut removed = 0;
    let mut idx = count(best);
    while idx > 0 {
        idx -= 1;
        let mut candidate = best.clone();
        remove(&mut candidate, idx);
        if oracle.accepts(&candidate) {
            *best = candidate;
            removed += 1;
        }
    }
    removed
}

/// Binary-searches one program axis toward its minimum value: its first
/// spot from where it stands down to the axis's smallest point, every spot
/// rewritten together. The engine holds a `DELAY` for whole jiffies, at
/// least one, so a delay axis steps by a jiffy from one jiffy up; a
/// threshold steps by one. Returns the final value's label if the axis
/// applies to this program and bisection settled on a value (even if that
/// value is the starting one).
fn bisect_axis<S: Setup, P: Fn(&OutcomeDigest) -> bool>(
    best: &mut Program,
    axis: &Axis,
    oracle: &mut Oracle<'_, S, P>,
) -> Option<String> {
    let floor = (0..axis.len())
        .filter_map(|i| axis.program_value(i))
        .min()?;
    let mut current = None;
    axis.spots(best, &mut |spot| {
        current.get_or_insert(spot.get());
    });
    let (step, least) = match axis {
        Axis::DelayNs { .. } => (SimDuration::JIFFY.as_nanos() as i64, 1),
        _ => (1, i64::MIN),
    };
    let steps_up = |v: i64| v / step + i64::from(v % step > 0);
    let applied = step
        * bisect_i64(
            steps_up(floor).max(least),
            steps_up(current?),
            |k| {
                let mut candidate = best.clone();
                (axis.spots(&mut candidate, &mut |spot| spot.set(k * step)) > 0)
                    .then_some(candidate)
            },
            oracle,
        )?;
    axis.spots(best, &mut |spot| spot.set(applied));
    Some(applied.to_string())
}

/// Classic predicate bisection: finds the smallest `v` in `[floor, hi]`
/// such that the mutated program still satisfies the oracle, assuming the
/// starting `hi` does. Returns the settled value.
fn bisect_i64<S, P, M>(floor: i64, hi: i64, mutate: M, oracle: &mut Oracle<'_, S, P>) -> Option<i64>
where
    S: Setup,
    P: Fn(&OutcomeDigest) -> bool,
    M: Fn(i64) -> Option<Program>,
{
    if floor >= hi {
        return Some(hi);
    }
    let mut lo = floor;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let ok = mutate(mid).is_some_and(|candidate| oracle.accepts(&candidate));
        if ok {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

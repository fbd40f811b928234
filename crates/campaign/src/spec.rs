//! Campaign specification: a base FSL program plus swept axes, expanded
//! deterministically into concrete scenario instances.
//!
//! The paper's pitch is running "a large number of test cases without
//! human intervention"; a [`CampaignSpec`] is how those test cases come to
//! exist without a human writing each one. It takes one hand-written
//! [`Program`] and a list of [`Axis`] values to sweep — counter
//! thresholds inside rule terms, `DELAY` hold times, netsim RNG seeds,
//! control-plane impairments — and enumerates the cross-product into
//! [`Instance`]s. Enumeration is pure
//! and deterministic: the same spec always yields the same instances in
//! the same order, and the budgeted random-sampling mode draws from a
//! seeded hand-rolled generator so sampled campaigns replay bit-for-bit.

use std::collections::{BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use vw_fsl::{Action, CondExpr, Fault, Operand, Program, TableSet};
use vw_netsim::ControlImpairment;

/// What part of a campaign an error came from, so callers (the daemon's
/// typed rejections in particular) can distinguish a bad *sweep* from a
/// bad *executor configuration* without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignErrorKind {
    /// The spec itself is invalid: bad base program, empty or dead axis,
    /// zero sampling budget.
    Spec,
    /// The execution configuration is invalid (e.g. zero worker threads).
    Config,
}

/// An error building or expanding a campaign (an axis that sweeps
/// nothing, an invalid base program, a zero-thread executor, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    kind: CampaignErrorKind,
    message: String,
}

impl CampaignError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CampaignError {
            kind: CampaignErrorKind::Spec,
            message: message.into(),
        }
    }

    pub(crate) fn config(message: impl Into<String>) -> Self {
        CampaignError {
            kind: CampaignErrorKind::Config,
            message: message.into(),
        }
    }

    /// Which part of the campaign was invalid.
    pub fn kind(&self) -> CampaignErrorKind {
        self.kind
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CampaignError {}

/// Everything about one instance's execution that is *not* encoded in the
/// FSL program itself: the simulator seed and the control-plane
/// impairment. Campaign axes mutate this alongside the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The [`World`](vw_netsim::World) RNG seed.
    pub seed: u64,
    /// The control-plane impairment applied to `0x88B5` frames.
    pub impairment: ControlImpairment,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            impairment: ControlImpairment::none(),
        }
    }
}

/// One dimension of the swept fault space.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Sweeps the constant side of `counter <op> CONST` terms in the
    /// scenario rules. `occurrence: Some(n)` targets only the nth such
    /// term (0-based, in rule order); `None` sets every one of them to
    /// the same value. This is how `DROP`-trigger counts, `STOP`
    /// thresholds, and any other counter comparison get explored.
    Threshold {
        /// The counter whose comparison constants are swept.
        counter: String,
        /// Which matching term to touch (`None` = all of them).
        occurrence: Option<usize>,
        /// The values to sweep over.
        values: Vec<i64>,
    },
    /// Sweeps the hold time of every `DELAY` fault action in the program.
    DelayNs {
        /// Hold times in nanoseconds.
        values: Vec<u64>,
    },
    /// Sweeps the simulator RNG seed.
    Seed {
        /// Seed values.
        values: Vec<u64>,
    },
    /// Sweeps the control-plane impairment.
    Impairment {
        /// Impairment configurations.
        values: Vec<ControlImpairment>,
    },
}

impl Axis {
    /// A [`Axis::Threshold`] over every `counter <op> CONST` term.
    pub fn threshold(counter: &str, values: Vec<i64>) -> Self {
        Axis::Threshold {
            counter: counter.to_string(),
            occurrence: None,
            values,
        }
    }

    /// A [`Axis::Threshold`] over only the nth matching term (0-based).
    pub fn threshold_at(counter: &str, occurrence: usize, values: Vec<i64>) -> Self {
        Axis::Threshold {
            counter: counter.to_string(),
            occurrence: Some(occurrence),
            values,
        }
    }

    /// A [`Axis::DelayNs`] over the given hold times.
    pub fn delay_ns(values: Vec<u64>) -> Self {
        Axis::DelayNs { values }
    }

    /// A [`Axis::Seed`] over the given seeds.
    pub fn seeds(values: Vec<u64>) -> Self {
        Axis::Seed { values }
    }

    /// An [`Axis::Impairment`] over the given configurations.
    pub fn impairments(values: Vec<ControlImpairment>) -> Self {
        Axis::Impairment { values }
    }

    /// The axis name used in instance labels and reports.
    ///
    /// Allocates; enumeration renders one name per axis (not per
    /// instance) into the label table, so this is a cold path.
    pub fn name(&self) -> String {
        match self {
            Axis::Threshold {
                counter,
                occurrence: None,
                ..
            } => format!("threshold.{counter}"),
            Axis::Threshold {
                counter,
                occurrence: Some(n),
                ..
            } => format!("threshold.{counter}#{n}"),
            Axis::DelayNs { .. } => "delay_ns".to_string(),
            Axis::Seed { .. } => "seed".to_string(),
            Axis::Impairment { .. } => "impairment".to_string(),
        }
    }

    /// Number of points on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Threshold { values, .. } => values.len(),
            Axis::DelayNs { values } => values.len(),
            Axis::Seed { values } => values.len(),
            Axis::Impairment { values } => values.len(),
        }
    }

    /// `true` for an axis with no points (rejected by
    /// [`CampaignSpec::enumerate`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable label for point `i`, used in reports.
    ///
    /// Allocates (impairment labels format a whole summary); enumeration
    /// renders each axis's labels once and every instance shares them, so
    /// this too is a cold path.
    pub fn value_label(&self, i: usize) -> String {
        match self {
            Axis::Threshold { values, .. } => values[i].to_string(),
            Axis::DelayNs { values } => values[i].to_string(),
            Axis::Seed { values } => values[i].to_string(),
            Axis::Impairment { values } => values[i].summary(),
        }
    }

    /// Point `i` of a program axis, as the number its spots hold (a hold
    /// time keeps its bits); `None` for a run-config axis.
    pub(crate) fn program_value(&self, i: usize) -> Option<i64> {
        match self {
            Axis::Threshold { values, .. } => Some(values[i]),
            Axis::DelayNs { values } => Some(values[i] as i64),
            Axis::Seed { .. } | Axis::Impairment { .. } => None,
        }
    }

    /// Visits, in rule order, every spot of `program` this axis rewrites:
    /// the constant of each targeted `counter <op> CONST` (or
    /// `CONST <op> counter`) term — only the `occurrence`th when one is
    /// set — or every `DELAY` hold time. A run-config axis has none.
    /// Returns how many were visited: 0 means the axis is dead.
    pub(crate) fn spots(&self, program: &mut Program, visit: &mut dyn FnMut(Spot<'_>)) -> usize {
        let mut count = 0;
        let mut visit = |spot: Spot<'_>| {
            count += 1;
            visit(spot);
        };
        let rules = program.scenarios.iter_mut().flat_map(|s| &mut s.rules);
        match self {
            Axis::Threshold {
                counter,
                occurrence,
                ..
            } => {
                let mut seen = 0;
                for rule in rules {
                    term_spots(
                        &mut rule.condition,
                        counter,
                        *occurrence,
                        &mut seen,
                        &mut visit,
                    );
                }
            }
            Axis::DelayNs { .. } => {
                for action in rules.flat_map(|r| &mut r.actions) {
                    if let Action::Fault {
                        fault: Fault::Delay { duration_ns },
                        ..
                    } = action
                    {
                        visit(Spot::Hold(duration_ns));
                    }
                }
            }
            Axis::Seed { .. } | Axis::Impairment { .. } => {}
        }
        count
    }

    /// Applies point `i` of a run-config axis; a program axis leaves the
    /// configuration alone.
    fn apply_run(&self, i: usize, run: &mut RunConfig) {
        match self {
            Axis::Seed { values } => run.seed = values[i],
            Axis::Impairment { values } => run.impairment = values[i],
            Axis::Threshold { .. } | Axis::DelayNs { .. } => {}
        }
    }

    /// `true` for axes that must touch the program to be meaningful.
    fn mutates_program(&self) -> bool {
        matches!(self, Axis::Threshold { .. } | Axis::DelayNs { .. })
    }
}

/// One number a program axis rewrites.
pub(crate) enum Spot<'p> {
    /// The constant of a targeted `counter <op> CONST` term.
    Const(&'p mut i64),
    /// A `DELAY` hold time in nanoseconds.
    Hold(&'p mut u64),
}

impl Spot<'_> {
    pub(crate) fn get(&self) -> i64 {
        match self {
            Spot::Const(v) => **v,
            Spot::Hold(ns) => **ns as i64,
        }
    }

    pub(crate) fn set(self, value: i64) {
        match self {
            Spot::Const(v) => *v = value,
            Spot::Hold(ns) => *ns = value as u64,
        }
    }
}

/// Visits the targeted counter-comparison constants of `cond`, left to
/// right; `seen` counts the matching terms across the whole program.
fn term_spots(
    cond: &mut CondExpr,
    counter: &str,
    occurrence: Option<usize>,
    seen: &mut usize,
    visit: &mut dyn FnMut(Spot<'_>),
) {
    match cond {
        CondExpr::True | CondExpr::False => {}
        CondExpr::Term(term) => {
            let hit = match (&mut term.lhs, &mut term.rhs) {
                (Operand::Counter(c), Operand::Const(v)) if c == counter => Some(v),
                (Operand::Const(v), Operand::Counter(c)) if c == counter => Some(v),
                _ => None,
            };
            if let Some(v) = hit {
                let idx = *seen;
                *seen += 1;
                if occurrence.is_none() || occurrence == Some(idx) {
                    visit(Spot::Const(v));
                }
            }
        }
        CondExpr::And(a, b) | CondExpr::Or(a, b) => {
            term_spots(a, counter, occurrence, seen, visit);
            term_spots(b, counter, occurrence, seen, visit);
        }
        CondExpr::Not(a) => term_spots(a, counter, occurrence, seen, visit),
    }
}

/// How a campaign's cross-product is turned into instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Every point of the cross-product, in lexicographic order (last
    /// axis fastest).
    Exhaustive,
    /// At most `budget` distinct points, chosen by a seeded deterministic
    /// generator and emitted in ascending cross-product order, so a
    /// sampled campaign replays bit-for-bit.
    Random {
        /// Maximum number of instances.
        budget: usize,
        /// Sampling seed (independent of the simulator seeds).
        seed: u64,
    },
}

/// A campaign: base program, swept axes, defaults, and a sampling mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report header).
    pub name: String,
    /// The base FSL program every instance is derived from.
    pub base: Program,
    /// The swept axes, outermost first.
    pub axes: Vec<Axis>,
    /// Seed/impairment used where no axis overrides them.
    pub defaults: RunConfig,
    /// Exhaustive or budgeted-random expansion.
    pub sampling: Sampling,
}

impl CampaignSpec {
    /// A new exhaustive campaign over `base` with no axes yet.
    pub fn new(name: &str, base: Program) -> Self {
        CampaignSpec {
            name: name.to_string(),
            base,
            axes: Vec::new(),
            defaults: RunConfig::default(),
            sampling: Sampling::Exhaustive,
        }
    }

    /// Adds an axis (builder style).
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Switches to budgeted random sampling.
    #[must_use]
    pub fn sample(mut self, budget: usize, seed: u64) -> Self {
        self.sampling = Sampling::Random { budget, seed };
        self
    }

    /// Sets the default seed/impairment.
    #[must_use]
    pub fn defaults(mut self, defaults: RunConfig) -> Self {
        self.defaults = defaults;
        self
    }

    /// Size of the full cross-product (before sampling), saturating at
    /// `usize::MAX`, which [`enumerate`](Self::enumerate) refuses.
    pub fn total(&self) -> usize {
        self.axes
            .iter()
            .try_fold(1usize, |n, axis| n.checked_mul(axis.len()))
            .unwrap_or(usize::MAX)
    }

    /// How many instances [`enumerate`](Self::enumerate) expands the spec
    /// to: the cross-product, or the sampling budget when that is smaller.
    /// Only the count is checked and nothing is expanded, so a caller can
    /// refuse an oversized sweep before paying for it.
    ///
    /// # Errors
    ///
    /// Rejects a cross-product too large to count and a zero sampling
    /// budget.
    pub fn instance_count(&self) -> Result<usize, CampaignError> {
        let total = self.total();
        if total == usize::MAX {
            return Err(CampaignError::new(
                "the axes' cross-product has more points than usize can count",
            ));
        }
        match self.sampling {
            Sampling::Exhaustive => Ok(total),
            Sampling::Random { budget: 0, .. } => {
                Err(CampaignError::new("sampling budget is zero"))
            }
            Sampling::Random { budget, .. } => Ok(budget.min(total)),
        }
    }

    /// Expands the spec into concrete instances.
    ///
    /// # Errors
    ///
    /// Rejects an invalid base program (via [`vw_fsl::analyze`]), an
    /// empty axis, a program-mutating axis that touches nothing, and
    /// whatever [`instance_count`](Self::instance_count) rejects.
    pub fn enumerate(&self) -> Result<Vec<Instance>, CampaignError> {
        if let Err(errors) = vw_fsl::analyze(&self.base) {
            return Err(CampaignError::new(format!(
                "invalid base program: {}",
                errors
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            )));
        }
        for axis in &self.axes {
            if axis.is_empty() {
                return Err(CampaignError::new(format!(
                    "axis `{}` has no values",
                    axis.name()
                )));
            }
            if axis.mutates_program() {
                // Probe against a scratch copy: a program axis that
                // rewrites nothing is a dead dimension (usually a typo'd
                // counter name) and would silently multiply the campaign.
                let mut probe = self.base.clone();
                if axis.spots(&mut probe, &mut |_| ()) == 0 {
                    return Err(CampaignError::new(format!(
                        "axis `{}` does not touch the base program",
                        axis.name()
                    )));
                }
            }
        }
        let count = self.instance_count()?;
        let total = self.total();
        let indices: Vec<usize> = match self.sampling {
            Sampling::Random { seed, .. } if count < total => sample_indices(total, count, seed),
            _ => (0..total).collect(),
        };

        // Labels are formatted once per *axis point* here, not once per
        // instance inside `instantiate`: a 6-axis million-instance sweep
        // re-rendering `impairment.summary()` per instance was the hot
        // allocation in enumeration.
        let labels = self.label_table();
        let mut strides = vec![1usize; self.axes.len()];
        for i in (0..self.axes.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.axes[i + 1].len();
        }
        // One program point per distinct setting of the program axes, built
        // by the first instance that lands on it and shared by the rest.
        let mut points = HashMap::new();
        Ok(indices
            .into_iter()
            .map(|index| self.instantiate(index, &labels, &strides, &mut points))
            .collect())
    }

    /// Precomputed `(axis name, per-point value labels)` for every axis,
    /// in axis order — the strings every [`Instance::labels`] shares.
    fn label_table(&self) -> Vec<(Arc<str>, Vec<Arc<str>>)> {
        self.axes
            .iter()
            .map(|axis| {
                (
                    axis.name().into(),
                    (0..axis.len())
                        .map(|i| axis.value_label(i).into())
                        .collect(),
                )
            })
            .collect()
    }

    /// Materializes cross-product point `index` (last axis fastest).
    /// `points` is keyed by the program axes' own cross-product position.
    fn instantiate(
        &self,
        index: usize,
        label_table: &[(Arc<str>, Vec<Arc<str>>)],
        strides: &[usize],
        points: &mut HashMap<usize, Arc<ProgramPoint>>,
    ) -> Instance {
        let pick = |a: usize| (index / strides[a]) % self.axes[a].len();
        let mut run = self.defaults;
        let mut labels = Vec::with_capacity(self.axes.len());
        let mut key = 0;
        for (a, (axis, (name, values))) in self.axes.iter().zip(label_table).enumerate() {
            let i = pick(a);
            if axis.mutates_program() {
                key = key * axis.len() + i;
            }
            axis.apply_run(i, &mut run);
            labels.push((Arc::clone(name), Arc::clone(&values[i])));
        }
        let point = points.entry(key).or_insert_with(|| {
            let mut program = self.base.clone();
            for (a, axis) in self.axes.iter().enumerate() {
                if let Some(value) = axis.program_value(pick(a)) {
                    axis.spots(&mut program, &mut |spot| spot.set(value));
                }
            }
            ProgramPoint::new(program)
        });
        Instance {
            index,
            labels,
            run,
            point: Arc::clone(point),
        }
    }
}

/// Draws `budget` distinct indices from `0..total` with a splitmix64
/// stream, returned in ascending order. The modulo draw carries a
/// negligible bias for campaign-sized spaces and keeps the sampler
/// dependency-free and bit-stable.
fn sample_indices(total: usize, budget: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut chosen = BTreeSet::new();
    while chosen.len() < budget {
        chosen.insert((splitmix64(&mut state) % total as u64) as usize);
    }
    chosen.into_iter().collect()
}

/// The classic splitmix64 step: a tiny, well-mixed, seedable generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One setting of a campaign's program axes: the mutated program, and its
/// compiled tables once some instance has needed them. Shared by every
/// instance that differs from it only in run-config axes, so a sweep
/// compiles each distinct program once, whichever worker gets there first.
/// Points compare by program: whether two instances share one is not part
/// of what they run.
#[derive(Debug)]
struct ProgramPoint {
    program: Program,
    compiled: OnceLock<Result<TableSet, String>>,
}

impl PartialEq for ProgramPoint {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
    }
}

impl ProgramPoint {
    fn new(program: Program) -> Arc<Self> {
        Arc::new(ProgramPoint {
            program,
            compiled: OnceLock::new(),
        })
    }
}

/// One concrete point of the fault space: a fully mutated program plus
/// its run configuration, tagged with where in the sweep it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Position in the full cross-product (stable across sampling and
    /// thread counts).
    pub index: usize,
    /// `(axis name, value label)` pairs, in axis order.
    pub labels: Vec<(Arc<str>, Arc<str>)>,
    /// Seed and impairment for this run.
    pub run: RunConfig,
    /// The mutated program and its tables, shared with the instances that
    /// differ from this one only in `run`.
    point: Arc<ProgramPoint>,
}

impl Instance {
    /// An instance with a program point of its own — a shrink candidate, a
    /// replay of a reproducer.
    pub fn new(
        index: usize,
        labels: Vec<(Arc<str>, Arc<str>)>,
        program: Program,
        run: RunConfig,
    ) -> Self {
        Instance {
            index,
            labels,
            run,
            point: ProgramPoint::new(program),
        }
    }

    /// The mutated program.
    pub fn program(&self) -> &Program {
        &self.point.program
    }

    /// The program's compiled tables, or why it has none: the message of
    /// the [`InstanceOutcome::Invalid`](crate::InstanceOutcome::Invalid)
    /// every instance of the point ends in. Compiled once per program
    /// point, by whichever instance asks first.
    pub(crate) fn tables(&self) -> Result<&TableSet, &str> {
        let point = &*self.point;
        point
            .compiled
            .get_or_init(|| match vw_fsl::compile(&point.program) {
                Ok(mut sets) if sets.len() == 1 => Ok(sets.remove(0)),
                Ok(sets) => Err(format!(
                    "campaign programs must hold exactly one scenario, got {}",
                    sets.len()
                )),
                Err(errors) => Err(errors
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")),
            })
            .as_ref()
            .map_err(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_fsl::parse;

    const BASE: &str = r#"
        FILTER_TABLE
        p: (12 2 0x4242)
        END
        NODE_TABLE
        a 02:00:00:00:00:01 10.0.0.1
        b 02:00:00:00:00:02 10.0.0.2
        END
        SCENARIO S 100msec
        C: (p, a, b, RECV)
        (TRUE) >> ENABLE_CNTR(C);
        ((C = 3)) >> DELAY(p, a, b, RECV, 10msec);
        ((C = 9)) >> STOP;
        END
    "#;

    fn base() -> Program {
        parse(BASE).unwrap()
    }

    #[test]
    fn cross_product_is_lexicographic_and_deterministic() {
        let spec = CampaignSpec::new("t", base())
            .axis(Axis::threshold_at("C", 0, vec![1, 2]))
            .axis(Axis::seeds(vec![7, 8, 9]));
        assert_eq!(spec.total(), 6);
        let a = spec.enumerate().unwrap();
        let b = spec.enumerate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // Last axis (seed) fastest.
        assert_eq!(a[0].run.seed, 7);
        assert_eq!(a[1].run.seed, 8);
        assert_eq!(a[2].run.seed, 9);
        assert_eq!(a[3].run.seed, 7);
        assert_eq!(a[0].labels[0], ("threshold.C#0".into(), "1".into()));
        assert_eq!(a[3].labels[0], ("threshold.C#0".into(), "2".into()));
        // Indices are cross-product positions.
        assert_eq!(
            a.iter().map(|i| i.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn threshold_rewrites_the_right_occurrence() {
        let spec = CampaignSpec::new("t", base()).axis(Axis::threshold_at("C", 1, vec![42]));
        let inst = spec.enumerate().unwrap().remove(0);
        let printed = vw_fsl::print(inst.program());
        assert!(printed.contains("C = 3"), "{printed}");
        assert!(printed.contains("C = 42"), "{printed}");
        assert!(!printed.contains("C = 9"), "{printed}");
    }

    #[test]
    fn threshold_all_occurrences() {
        let spec = CampaignSpec::new("t", base()).axis(Axis::threshold("C", vec![5]));
        let inst = spec.enumerate().unwrap().remove(0);
        let printed = vw_fsl::print(inst.program());
        assert!(!printed.contains("C = 3"));
        assert!(!printed.contains("C = 9"));
        assert_eq!(printed.matches("C = 5").count(), 2, "{printed}");
    }

    #[test]
    fn delay_axis_rewrites_hold_time() {
        let spec = CampaignSpec::new("t", base()).axis(Axis::delay_ns(vec![5_000_000]));
        let inst = spec.enumerate().unwrap().remove(0);
        let delay = inst.program().scenarios[0]
            .rules
            .iter()
            .find_map(|r| {
                r.actions.iter().find_map(|a| match a {
                    Action::Fault {
                        fault: Fault::Delay { duration_ns },
                        ..
                    } => Some(*duration_ns),
                    _ => None,
                })
            })
            .unwrap();
        assert_eq!(delay, 5_000_000);
    }

    #[test]
    fn dead_axes_and_empty_axes_are_rejected() {
        let err = CampaignSpec::new("t", base())
            .axis(Axis::threshold("Ghost", vec![1]))
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("does not touch"));
        let err = CampaignSpec::new("t", base())
            .axis(Axis::seeds(vec![]))
            .enumerate()
            .unwrap_err();
        assert!(err.to_string().contains("no values"));
    }

    #[test]
    fn invalid_base_program_is_rejected() {
        let bad = parse(
            "FILTER_TABLE\np: (12 2 0x1)\nEND\nNODE_TABLE\na 02:00:00:00:00:01 10.0.0.1\nEND\n\
             SCENARIO S\nC: (ghost, a, a, RECV)\n(TRUE) >> STOP;\nEND",
        )
        .unwrap();
        let err = CampaignSpec::new("t", bad).enumerate().unwrap_err();
        assert!(err.to_string().contains("invalid base program"));
    }

    #[test]
    fn sampling_is_seed_stable_and_within_budget() {
        let spec = CampaignSpec::new("t", base())
            .axis(Axis::threshold_at("C", 0, (1..=20).collect()))
            .axis(Axis::seeds((0..20).collect()))
            .sample(25, 0xFEED);
        let a = spec.enumerate().unwrap();
        let b = spec.enumerate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        // Ascending cross-product order, all distinct.
        assert!(a.windows(2).all(|w| w[0].index < w[1].index));
        // A different sampling seed picks a different subset.
        let c = CampaignSpec::new("t", base())
            .axis(Axis::threshold_at("C", 0, (1..=20).collect()))
            .axis(Axis::seeds((0..20).collect()))
            .sample(25, 0xBEEF)
            .enumerate()
            .unwrap();
        assert_ne!(
            a.iter().map(|i| i.index).collect::<Vec<_>>(),
            c.iter().map(|i| i.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn budget_covering_the_space_degenerates_to_exhaustive() {
        let spec = CampaignSpec::new("t", base())
            .axis(Axis::seeds(vec![1, 2, 3]))
            .sample(10, 5);
        let got = spec.enumerate().unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(
            got.iter().map(|i| i.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn every_instance_still_compiles() {
        let spec = CampaignSpec::new("t", base())
            .axis(Axis::threshold_at("C", 0, vec![1, 4, 100]))
            .axis(Axis::delay_ns(vec![0, 1_000_000]));
        for inst in spec.enumerate().unwrap() {
            vw_fsl::compile(inst.program()).unwrap();
            // And the mutated program stays printable/parsable.
            assert_eq!(
                &parse(&vw_fsl::print(inst.program())).unwrap(),
                inst.program()
            );
        }
    }
}

//! Program points: instances that agree on every program axis share one
//! mutated program and one compile; instances that differ on one do not;
//! and sharing is invisible to `Instance` equality.

use std::collections::BTreeSet;
use std::sync::Mutex;

use virtualwire::{EngineConfig, Runner, ScriptError};
use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig, Instance, RunConfig, Setup};
use vw_fsl::{TableSet, Tables};
use vw_netsim::World;

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

/// Program axes either side of a run-config axis: 3 × 2 program points,
/// 4 seeds each.
fn spec() -> CampaignSpec {
    CampaignSpec::new("points", vw_fsl::parse(BASE).unwrap())
        .axis(Axis::threshold_at("C", 0, vec![1, 4, 6]))
        .axis(Axis::seeds(vec![7, 8, 9, 10]))
        .axis(Axis::delay_ns(vec![0, 2_000_000]))
}

/// The labels of the two program axes.
fn program_axes(instance: &Instance) -> (&str, &str) {
    (&instance.labels[0].1, &instance.labels[2].1)
}

#[test]
fn instances_share_a_program_exactly_when_their_program_axes_agree() {
    let instances = spec().enumerate().unwrap();
    assert_eq!(instances.len(), 24);
    for a in &instances {
        for b in &instances {
            assert_eq!(
                std::ptr::eq(a.program(), b.program()),
                program_axes(a) == program_axes(b),
                "#{} and #{}",
                a.index,
                b.index
            );
        }
    }
    let points: BTreeSet<*const vw_fsl::Program> = instances
        .iter()
        .map(|i| std::ptr::from_ref(i.program()))
        .collect();
    assert_eq!(points.len(), 6);

    // Sampling keeps the sharing: the sampled instances are a subset of
    // the same cross-product.
    let sampled = spec().sample(10, 0xFEED).enumerate().unwrap();
    assert_eq!(sampled.len(), 10);
    for (a, b) in sampled.iter().zip(&sampled[1..]) {
        assert_eq!(
            std::ptr::eq(a.program(), b.program()),
            program_axes(a) == program_axes(b)
        );
    }
}

/// Records the address of each table allocation it is handed, then fails
/// the set-up (an empty world has none of the scripted hosts): cheap, and
/// the instance still went through its point's compile.
#[derive(Default)]
struct SeenTables(Mutex<BTreeSet<usize>>);

impl Setup for SeenTables {
    fn build(&self, tables: &TableSet, _: &RunConfig) -> Result<(World, Runner), ScriptError> {
        let address = std::ptr::from_ref::<Tables>(tables) as usize;
        self.0.lock().unwrap().insert(address);
        let mut world = World::new(0);
        Runner::try_install(&mut world, tables.clone(), EngineConfig::default())
            .map(|runner| (world, runner))
    }
}

#[test]
fn a_campaign_compiles_each_program_point_once_at_any_thread_count() {
    for threads in [1, 2, 8] {
        let seen = SeenTables::default();
        // The points (and so their tables) live until the campaign ends,
        // so distinct addresses are distinct compiles.
        let result = run_campaign(&spec(), &seen, &ExecConfig::threads(threads)).unwrap();
        assert_eq!(
            result.kind_counts(),
            (0, 0, 24, 0),
            "every set-up ran and failed"
        );
        assert_eq!(seen.0.lock().unwrap().len(), 6, "{threads} threads");
    }
}

#[test]
fn equality_compares_what_an_instance_runs_not_what_it_shares() {
    // Two enumerations build separate points.
    let a = spec().enumerate().unwrap();
    let b = spec().enumerate().unwrap();
    assert!(!std::ptr::eq(a[0].program(), b[0].program()));
    assert_eq!(a, b);

    let program = vw_fsl::parse(BASE).unwrap();
    let run = RunConfig::default();
    let labels = || vec![("seed".into(), "0".into())];
    let base = Instance::new(3, labels(), program.clone(), run);
    assert_eq!(base, Instance::new(3, labels(), program.clone(), run));
    assert_eq!(base, base.clone());
    assert!(std::ptr::eq(base.program(), base.clone().program()));

    assert_ne!(base, Instance::new(4, labels(), program.clone(), run));
    assert_ne!(base, Instance::new(3, Vec::new(), program.clone(), run));
    let reseeded = RunConfig { seed: 1, ..run };
    assert_ne!(base, Instance::new(3, labels(), program.clone(), reseeded));
    let mut other = program;
    other.scenarios[0].rules.pop();
    assert_ne!(base, Instance::new(3, labels(), other, run));
}

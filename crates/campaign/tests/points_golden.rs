//! What `CampaignSpec::enumerate` hands the executor, pinned as text: each
//! instance's cross-product index, labels, run configuration and the FSL
//! source of its mutated program — for an exhaustive sweep whose program
//! axes sit either side of a run-config axis, and for a sampled one. Plus
//! the JSONL of a sweep none of whose programs compile to one table set.
//!
//! Regenerate with `GOLDEN_PRINT=1 cargo test -p vw-campaign --test
//! points_golden -- --nocapture` and paste; a diff here is a change to what
//! campaigns run, not a formatting detail.

use std::fmt::Write as _;

use virtualwire::{Runner, ScriptError};
use vw_campaign::{run_campaign, Axis, CampaignSpec, ExecConfig, Instance, RunConfig};
use vw_fsl::{Program, TableSet};
use vw_netsim::{ControlImpairment, World};

/// The one expression that reaches an instance's program.
fn program(instance: &Instance) -> &Program {
    instance.program()
}

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

fn render(instances: &[Instance]) -> String {
    let mut out = String::new();
    for instance in instances {
        let labels: Vec<String> = instance
            .labels
            .iter()
            .map(|(axis, value)| format!("{axis}={value}"))
            .collect();
        let _ = writeln!(
            out,
            "#{} [{}] seed={} impairment={}",
            instance.index,
            labels.join(", "),
            instance.run.seed,
            instance.run.impairment.summary(),
        );
        for line in vw_fsl::print(program(instance)).lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out
}

fn check(name: &str, actual: &str, expected: &str) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("=== {name} ===\n{actual}=== end ===");
    }
    assert_eq!(actual, expected, "{name} moved");
}

#[test]
fn exhaustive_three_axis_instances() {
    let spec = CampaignSpec::new("golden", vw_fsl::parse(BASE).unwrap())
        .axis(Axis::threshold_at("C", 0, vec![1, 4]))
        .axis(Axis::seeds(vec![7, 8]))
        .axis(Axis::delay_ns(vec![0, 2_000_000]));
    check(
        "exhaustive",
        &render(&spec.enumerate().unwrap()),
        EXHAUSTIVE,
    );
}

#[test]
fn sampled_three_axis_instances() {
    let spec = CampaignSpec::new("golden", vw_fsl::parse(BASE).unwrap())
        .axis(Axis::threshold("C", vec![2, 3, 5, 8, 13]))
        .axis(Axis::seeds(vec![0, 1, 2, 3]))
        .axis(Axis::impairments(vec![
            ControlImpairment::none(),
            ControlImpairment::dropping(0.25),
        ]))
        .defaults(RunConfig {
            seed: 99,
            impairment: ControlImpairment::none(),
        })
        .sample(6, 0xFEED);
    check("sampled", &render(&spec.enumerate().unwrap()), SAMPLED);
}

/// Reached only by an instance whose program compiled to one table set.
fn unreachable_setup(_: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
    panic!("setup reached with seed {}", run.seed);
}

#[test]
fn a_sweep_whose_programs_do_not_compile_to_one_table_set() {
    // Axes cannot break a valid base (`analyze` constrains neither a
    // threshold constant nor a hold time), so the one compile failure a
    // campaign can meet is a base that holds two scenarios: every program
    // point compiles to two table sets and is refused.
    let two_scenarios = format!(
        "{BASE}
        SCENARIO T
        D: (p, a, b, SEND)
        ((D = 2)) >> STOP;
        END"
    );
    let spec = CampaignSpec::new("two_scenarios", vw_fsl::parse(&two_scenarios).unwrap())
        .axis(Axis::threshold_at("C", 1, vec![9, 12]))
        .axis(Axis::seeds(vec![1, 2]));
    let result = run_campaign(&spec, &unreachable_setup, &ExecConfig::threads(1)).unwrap();
    check("invalid sweep", &result.to_jsonl(), INVALID_JSONL);
}

const EXHAUSTIVE: &str = r##"#0 [threshold.C#0=1, seed=7, delay_ns=0] seed=7 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 1) >>
        DELAY(p, a, b, RECV, 0sec);
    (C = 9) >>
        STOP;
    END
#1 [threshold.C#0=1, seed=7, delay_ns=2000000] seed=7 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 1) >>
        DELAY(p, a, b, RECV, 2msec);
    (C = 9) >>
        STOP;
    END
#2 [threshold.C#0=1, seed=8, delay_ns=0] seed=8 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 1) >>
        DELAY(p, a, b, RECV, 0sec);
    (C = 9) >>
        STOP;
    END
#3 [threshold.C#0=1, seed=8, delay_ns=2000000] seed=8 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 1) >>
        DELAY(p, a, b, RECV, 2msec);
    (C = 9) >>
        STOP;
    END
#4 [threshold.C#0=4, seed=7, delay_ns=0] seed=7 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 4) >>
        DELAY(p, a, b, RECV, 0sec);
    (C = 9) >>
        STOP;
    END
#5 [threshold.C#0=4, seed=7, delay_ns=2000000] seed=7 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 4) >>
        DELAY(p, a, b, RECV, 2msec);
    (C = 9) >>
        STOP;
    END
#6 [threshold.C#0=4, seed=8, delay_ns=0] seed=8 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 4) >>
        DELAY(p, a, b, RECV, 0sec);
    (C = 9) >>
        STOP;
    END
#7 [threshold.C#0=4, seed=8, delay_ns=2000000] seed=8 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 4) >>
        DELAY(p, a, b, RECV, 2msec);
    (C = 9) >>
        STOP;
    END
"##;

const SAMPLED: &str = r##"#3 [threshold.C=2, seed=1, impairment=drop=0.25] seed=1 impairment=drop=0.25
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 2) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 2) >>
        STOP;
    END
#8 [threshold.C=3, seed=0, impairment=none] seed=0 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 3) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 3) >>
        STOP;
    END
#15 [threshold.C=3, seed=3, impairment=drop=0.25] seed=3 impairment=drop=0.25
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 3) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 3) >>
        STOP;
    END
#18 [threshold.C=5, seed=1, impairment=none] seed=1 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 5) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 5) >>
        STOP;
    END
#25 [threshold.C=8, seed=0, impairment=drop=0.25] seed=0 impairment=drop=0.25
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 8) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 8) >>
        STOP;
    END
#28 [threshold.C=8, seed=2, impairment=none] seed=2 impairment=none
    FILTER_TABLE
    p: (12 2 0x4242)
    END
    NODE_TABLE
    a 02:00:00:00:00:01 10.0.0.1
    b 02:00:00:00:00:02 10.0.0.2
    END
    SCENARIO S 100msec
    C: (p, a, b, RECV)
    (TRUE) >>
        ENABLE_CNTR(C);
    (C = 8) >>
        DELAY(p, a, b, RECV, 10msec);
    (C = 8) >>
        STOP;
    END
"##;

const INVALID_JSONL: &str = r##"{"campaign":"two_scenarios","instances":4,"classes":1,"completed":0,"invalid":4,"setup_failed":0,"crashed":0}
{"class":0,"digest":"6c5acbc02e6af449","members":4,"representative":0,"labels":{"threshold.C#1":"9","seed":"1"},"kind":"invalid","message":"campaign programs must hold exactly one scenario, got 2"}
"##;

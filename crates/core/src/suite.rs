//! Regression suites: run every scenario of a script file unattended.
//!
//! The paper's motivation (Section 1) is that ad-hoc testing makes people
//! "recreate the test cases afresh" for every release, while VirtualWire's
//! trace-filtering "makes it possible to run through a large number of
//! test cases without human intervention, a particularly important feature
//! for regression testing". A [`Suite`] is that workflow: one source file,
//! many `SCENARIO` blocks, one pass/fail summary.

use vw_fsl::TableSet;
use vw_netsim::{SimDuration, World};

use crate::report::Report;
use crate::runner::Runner;
use crate::ScriptError;

/// A compiled multi-scenario script.
#[derive(Debug)]
pub struct Suite {
    scenarios: Vec<TableSet>,
}

impl Suite {
    /// Parses, analyzes and compiles every scenario in `source`.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] on parse/semantic errors or if no scenario
    /// is defined.
    pub fn from_source(source: &str) -> Result<Self, ScriptError> {
        let scenarios = crate::compile_all_scenarios(source)?;
        Ok(Suite { scenarios })
    }

    /// Number of scenarios in the suite.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` if the suite holds no scenarios (cannot happen via
    /// [`from_source`](Suite::from_source)).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The compiled scenarios.
    pub fn scenarios(&self) -> &[TableSet] {
        &self.scenarios
    }

    /// Runs every scenario. For each one, `setup` receives the compiled
    /// tables and must return a fresh, settled testbed (world + runner)
    /// with the workload attached; the suite then drives it to completion
    /// and collects the report.
    pub fn run<F>(&self, deadline: SimDuration, mut setup: F) -> SuiteReport
    where
        F: FnMut(&TableSet) -> (World, Runner),
    {
        let reports = self
            .scenarios
            .iter()
            .map(|tables| {
                let (mut world, runner) = setup(tables);
                runner.run(&mut world, deadline)
            })
            .collect();
        SuiteReport { reports }
    }
}

/// The aggregated outcome of a suite run.
#[derive(Debug)]
pub struct SuiteReport {
    /// One report per scenario, in script order.
    pub reports: Vec<Report>,
}

impl SuiteReport {
    /// `true` when every scenario passed.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(Report::passed)
    }

    /// Number of passing scenarios.
    pub fn passed_count(&self) -> usize {
        self.reports.iter().filter(|r| r.passed()).count()
    }

    /// Renders a one-line-per-scenario summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            out.push_str(&format!(
                "{:<32} {:>4}  {} error(s), {} in {}\n",
                report.symbols.scenario,
                if report.passed() { "PASS" } else { "FAIL" },
                report.errors.len(),
                report.stop,
                report.duration,
            ));
        }
        out.push_str(&format!(
            "suite: {}/{} scenarios passed\n",
            self.passed_count(),
            self.reports.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MULTI: &str = r#"
        FILTER_TABLE
        p: (12 2 0x4242)
        END
        NODE_TABLE
        a 02:00:00:00:00:01 10.0.0.1
        b 02:00:00:00:00:02 10.0.0.2
        END
        SCENARIO First
        C: (p, a, b, RECV)
        ((C = 1)) >> STOP;
        END
        SCENARIO Second 100msec
        D: (p, a, b, SEND)
        ((D = 1)) >> FLAG_ERR;
        END
    "#;

    #[test]
    fn suite_compiles_all_scenarios() {
        let suite = Suite::from_source(MULTI).unwrap();
        assert_eq!(suite.len(), 2);
        assert!(!suite.is_empty());
        assert_eq!(suite.scenarios()[0].scenario, "First");
        assert_eq!(suite.scenarios()[1].scenario, "Second");
    }

    #[test]
    fn bad_suite_rejected() {
        assert!(Suite::from_source("SCENARIO X (Ghost = 1) >> STOP; END").is_err());
        assert!(Suite::from_source("").is_err());
    }
}

//! The scenario runner — the programming front-end of Figure 1.
//!
//! The runner plays the role of the control node's user-level tool: it
//! compiles a script, installs a Fault Injection/Analysis Engine on every
//! participating host, lets the control node distribute the six tables
//! over the control plane, drives the run (enforcing the scenario's
//! inactivity timeout), and assembles the final [`Report`].

use vw_fsl::{CounterId, NodeId, TableSet};
use vw_netsim::{DeviceId, HookId, SimDuration, SimTime, World};
use vw_obs::ObsEvent;
use vw_rll::{RllConfig, RllHook};

use crate::engine::{Engine, EngineConfig};
use crate::report::{NodeDistributions, Report, StopReason};
use crate::ScriptError;

/// Orchestrates one scenario over a [`World`].
#[derive(Debug)]
pub struct Runner {
    tables: TableSet,
    /// Per script-node: the simulator device and the engine hook id.
    engines: Vec<(DeviceId, HookId)>,
    timeout: Option<SimDuration>,
}

impl Runner {
    /// Creates the testbed hosts named in the script's node table (with
    /// the script's MAC and IP addresses) and returns their device ids in
    /// node-table order. Convenience for examples and tests that build
    /// the topology from the script itself.
    pub fn create_hosts(world: &mut World, tables: &TableSet) -> Vec<DeviceId> {
        tables
            .nodes
            .iter()
            .map(|n| world.add_host_with(&n.name, n.mac, n.ip))
            .collect()
    }

    /// Installs an engine on every host named in the script's node table.
    /// Hosts are looked up by name and must carry the script's MAC
    /// addresses (classification matches on MACs). The first node acts as
    /// the control node and distributes the tables over the control plane
    /// when the world starts running.
    ///
    /// # Panics
    ///
    /// Panics if a scripted node has no same-named host in the world, or
    /// if its MAC differs from the node table. Use
    /// [`try_install`](Runner::try_install) where a bad script/topology
    /// pairing must not take the process down (campaign worker pools).
    pub fn install(world: &mut World, tables: TableSet, cfg: EngineConfig) -> Runner {
        Self::try_install_inner(world, tables, cfg, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`install`](Runner::install): returns a [`ScriptError`]
    /// instead of panicking when a scripted node has no same-named host in
    /// the world or its MAC differs from the node table.
    ///
    /// # Errors
    ///
    /// One [`ScriptError`] naming every node that failed to bind.
    pub fn try_install(
        world: &mut World,
        tables: TableSet,
        cfg: EngineConfig,
    ) -> Result<Runner, ScriptError> {
        Self::try_install_inner(world, tables, cfg, None)
    }

    /// Like [`install`](Runner::install), but also layers a Reliable Link
    /// Layer under each engine, completing the paper's full stack
    /// (stack / FIE / RLL / wire).
    pub fn install_with_rll(
        world: &mut World,
        tables: TableSet,
        cfg: EngineConfig,
        rll: RllConfig,
    ) -> Runner {
        Self::try_install_inner(world, tables, cfg, Some(rll)).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_install_inner(
        world: &mut World,
        tables: TableSet,
        cfg: EngineConfig,
        rll: Option<RllConfig>,
    ) -> Result<Runner, ScriptError> {
        let timeout = tables.timeout_ns.map(SimDuration::from_nanos);

        // Resolve every node before mutating the world, so a failed
        // install leaves no half-installed engine chain behind.
        let mut devices = Vec::with_capacity(tables.nodes.len());
        let mut errors = Vec::new();
        for node in &tables.nodes {
            match world.device_by_name(&node.name) {
                None => errors.push(vw_fsl::FslError::general(format!(
                    "no host named `{}` in the world",
                    node.name
                ))),
                Some(device) if world.host_mac(device) != node.mac => {
                    errors.push(vw_fsl::FslError::general(format!(
                        "host `{}` carries MAC {}, script expects {}",
                        node.name,
                        world.host_mac(device),
                        node.mac
                    )));
                }
                Some(device) => devices.push(device),
            }
        }
        if !errors.is_empty() {
            return Err(ScriptError { errors });
        }

        let mut engines = Vec::new();
        for (i, &device) in devices.iter().enumerate() {
            let engine = if i == 0 {
                Engine::control(cfg, TableSet::clone(&tables), NodeId(0))
            } else {
                Engine::new(cfg)
            };
            let hook = world.add_hook(device, Box::new(engine));
            engines.push((device, hook));
        }
        if let Some(rll_cfg) = rll {
            for (device, _) in &engines {
                world.add_hook(*device, Box::new(RllHook::new(rll_cfg)));
            }
        }
        Ok(Runner {
            tables,
            engines,
            timeout,
        })
    }

    /// The compiled tables this runner distributes.
    pub fn tables(&self) -> &TableSet {
        &self.tables
    }

    /// Shared access to the engine installed for a script node name.
    pub fn engine<'w>(&self, world: &'w World, node: &str) -> Option<&'w Engine> {
        let idx = self.tables.nodes.iter().position(|n| n.name == node)?;
        let (device, hook) = self.engines[idx];
        world.hook::<Engine>(device, hook)
    }

    /// Binds a `VAR` pattern on every engine.
    pub fn bind_var(&self, world: &mut World, name: &str, value: u64) {
        for (device, hook) in &self.engines {
            if let Some(engine) = world.hook_mut::<Engine>(*device, *hook) {
                engine.bind_var(name, value);
            }
        }
    }

    /// Runs the world until every engine has been initialized over the
    /// control plane (the control node has received an `InitAck` from each
    /// peer), up to 100 ms of simulated time. Call this after
    /// [`install`](Runner::install) and **before** starting the workload,
    /// so that no monitored packet races ahead of the table distribution.
    /// Returns `true` when initialization completed.
    pub fn settle(&self, world: &mut World) -> bool {
        let expected = self.tables.nodes.len().saturating_sub(1);
        let deadline = world.now().saturating_add(SimDuration::from_millis(100));
        loop {
            let (device, hook) = self.engines[0];
            let acks = world
                .hook::<Engine>(device, hook)
                .map_or(0, |e| e.init_acks().len());
            if acks >= expected {
                return true;
            }
            if world.now() >= deadline {
                return false;
            }
            world.run_for(SimDuration::from_micros(100));
        }
    }

    /// Runs the scenario until a `STOP` action fires, the scenario's
    /// inactivity timeout expires (no monitored packet matched anywhere
    /// for that long), or `deadline` of simulated time passes.
    pub fn run(&self, world: &mut World, deadline: SimDuration) -> Report {
        let started = world.now();
        let hard_deadline = started.saturating_add(deadline);
        let slice = match self.timeout {
            Some(t) => (t / 4).max(SimDuration::from_micros(100)),
            None => SimDuration::from_millis(1),
        };
        let stop = loop {
            world.run_for(slice);
            if let Some(reason) = world.stop_reason() {
                break StopReason::StopAction(reason.to_string());
            }
            if let Some(timeout) = self.timeout {
                let last = self.last_match(world).max(started);
                if world.now().saturating_since(last) >= timeout {
                    break StopReason::InactivityTimeout;
                }
            }
            if world.now() >= hard_deadline {
                break StopReason::DeadlineReached;
            }
        };
        let duration = world.now().saturating_since(started);
        // Flush frames still parked in DELAY/REORDER buffers (and any
        // other hook state) before reading the report, so run-end frame
        // accounting balances.
        world.teardown();
        self.report(world, stop, duration)
    }

    /// The most recent packet-definition match across all engines.
    fn last_match(&self, world: &World) -> SimTime {
        self.engines
            .iter()
            .filter_map(|(device, hook)| world.hook::<Engine>(*device, *hook))
            .map(|engine| engine.last_match())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Assembles the report: all flagged errors (deduplicated — the
    /// control node also holds remotely reported copies) and authoritative
    /// counter values read at each counter's home node.
    fn report(&self, world: &World, stop: StopReason, duration: SimDuration) -> Report {
        let engine = |i: usize| {
            let (device, hook) = self.engines[i];
            world.hook::<Engine>(device, hook)
        };
        let installed = || (0..self.engines.len()).filter_map(|i| Some((i, engine(i)?)));

        let mut errors = Vec::new();
        let mut stats = Vec::with_capacity(self.engines.len());
        let mut distributions = Vec::with_capacity(self.engines.len());
        for (i, engine) in installed() {
            // Keep each error once, attributed by its origin node: the
            // copy held by the origin itself (skip control-node copies
            // of remote errors).
            let own = engine.errors().iter().filter(|e| e.node.index() == i);
            errors.extend(own.cloned());
            stats.push((self.tables.nodes[i].name.to_string(), engine.stats()));
            distributions.push(NodeDistributions {
                filter_hits: engine.filter_hits().to_vec(),
                cascade_depth: engine.cascade_hist().clone(),
                classify_to_action_ns: engine.latency_hist().clone(),
            });
        }
        errors.sort_by_key(|e| e.time);

        // Sized for every counter: a campaign digest keeps this vector.
        let mut counters = Vec::with_capacity(self.tables.counters.len());
        let authoritative = self.tables.counters.iter().enumerate();
        counters.extend(authoritative.filter_map(|(ci, counter)| {
            let home = counter.home.index();
            let value = engine(home)?.counter(CounterId(ci as u16))?;
            Some((
                self.tables.nodes[home].name.to_string(),
                counter.name.to_string(),
                value,
            ))
        }));

        // The run's one timeline (see `Report::events`): the engines'
        // streams in node order, stably sorted by time, so same-time
        // events keep their engine's order.
        let recorded = installed().map(|(_, e)| e.events().len()).sum();
        let mut events = Vec::with_capacity(recorded);
        events.extend(installed().flat_map(|(_, e)| e.events().iter().copied()));
        events.sort_by_key(|e: &ObsEvent| e.time);

        Report {
            stop,
            errors,
            counters,
            duration,
            stats,
            events,
            symbols: TableSet::clone(&self.tables),
            distributions,
            conformance: Vec::new(),
        }
    }
}

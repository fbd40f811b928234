//! Named testbed setups the daemon can run on behalf of remote clients.
//!
//! A [`Setup`](vw_campaign::Setup) is fundamentally a closure over local
//! topology-building code — it cannot travel over a socket. Submissions
//! therefore *name* a setup, and the daemon resolves the name against
//! this registry. The `udp_flood` builtin covers the workspace's
//! canonical two-host sweep topology; embedders register their own
//! setups on the [`Daemon`](crate::Daemon) before starting it.

use std::collections::BTreeMap;
use std::sync::Arc;

use virtualwire::{EngineConfig, Report, Runner, ScriptError};
use vw_campaign::{RunConfig, Setup};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, World};
use vw_packet::EtherType;

/// A cloneable, thread-safe handle to a registered setup, usable
/// directly as a [`Setup`] by the shard executor.
#[derive(Clone)]
pub struct SetupHandle(Arc<dyn Setup + Send + Sync>);

impl Setup for SetupHandle {
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
        self.0.build(tables, run)
    }

    fn finish(&self, world: &mut World, report: &mut Report) {
        self.0.finish(world, report)
    }
}

/// Name → setup map resolved at submission time.
#[derive(Clone, Default)]
pub struct SetupRegistry {
    setups: BTreeMap<String, SetupHandle>,
}

impl SetupRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SetupRegistry::default()
    }

    /// The registry every daemon starts from: just `udp_flood`.
    pub fn builtin() -> Self {
        let mut registry = SetupRegistry::new();
        registry.register("udp_flood", UdpFloodSetup);
        registry
    }

    /// Registers `setup` under `name`, replacing any previous entry.
    pub fn register<S: Setup + Send + Sync + 'static>(&mut self, name: &str, setup: S) {
        self.setups
            .insert(name.to_string(), SetupHandle(Arc::new(setup)));
    }

    /// Resolves a name.
    pub fn get(&self, name: &str) -> Option<SetupHandle> {
        self.setups.get(name).cloned()
    }

    /// Registered names, ascending (for error messages).
    pub fn names(&self) -> Vec<&str> {
        self.setups.keys().map(String::as_str).collect()
    }
}

/// The canonical two-host UDP flood testbed: every scripted node hangs
/// off one switch over fast ethernet, the second node runs a
/// [`UdpSink`], and the first floods it — the same topology the
/// campaign determinism suite and `campaign_sweep` example use, so
/// daemon-run campaigns are directly comparable to in-process ones.
///
/// The flooder targets port `0x6363` with 200-byte datagrams every
/// 2 ms; scripts written against the `udp_data` filter idiom see the
/// same traffic they would locally.
struct UdpFloodSetup;

impl Setup for UdpFloodSetup {
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
        let mut world = World::with_impairment(run.seed, run.impairment);
        // Nothing downstream of a daemon run reads the packet trace; left
        // on, it clones every frame twice into a Vec that only grows.
        world.trace_mut().set_enabled(false);
        let nodes = Runner::create_hosts(&mut world, tables);
        let sw = world.add_switch("sw0", 4);
        for &n in &nodes {
            world.connect(n, sw, LinkConfig::fast_ethernet());
        }
        let runner = Runner::try_install(&mut world, tables.clone(), EngineConfig::default())?;
        runner.settle(&mut world);
        if nodes.len() >= 2 {
            world.add_protocol(
                nodes[1],
                Binding::EtherType(EtherType::IPV4),
                Box::new(UdpSink::new(0x6363)),
            );
            let flooder = UdpFlooder::new(
                world.host_mac(nodes[1]),
                world.host_ip(nodes[1]),
                0x6363,
                9000,
                2_000_000,
                200,
                30 * 200,
            );
            world.add_protocol(
                nodes[0],
                Binding::EtherType(EtherType::IPV4),
                Box::new(flooder),
            );
        }
        Ok((world, runner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_resolves_udp_flood() {
        let registry = SetupRegistry::builtin();
        assert!(registry.get("udp_flood").is_some());
        assert!(registry.get("ghost").is_none());
        assert_eq!(registry.names(), vec!["udp_flood"]);
    }

    #[test]
    fn udp_flood_runs_with_the_packet_trace_off() {
        let tables = virtualwire::compile_script(
            r#"
            FILTER_TABLE
            udp_data: (23 1 0x11), (36 2 0x6363)
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 192.168.1.2
            node2 02:00:00:00:00:02 192.168.1.3
            END
            SCENARIO Flood 50msec
            Rcvd: (udp_data, node1, node2, RECV)
            (TRUE) >> ENABLE_CNTR(Rcvd);
            ((Rcvd = 5)) >> STOP;
            END
            "#,
        )
        .unwrap();
        let setup = SetupRegistry::builtin().get("udp_flood").unwrap();
        let (mut world, runner) = setup.build(&tables, &RunConfig::default()).unwrap();
        let report = runner.run(&mut world, vw_netsim::SimDuration::from_millis(100));
        assert_eq!(report.counter("Rcvd"), Some(5), "the flood ran");
        assert!(world.trace().is_empty());
    }
}

//! Ready-made protocol handlers: traffic sources and sinks used by the
//! evaluation harness and tests.
//!
//! * [`UdpEcho`] — echoes UDP datagrams back to their sender (the paper's
//!   Figure 8 latency experiment uses "an echo connection using UDP").
//! * [`UdpPinger`] — sends numbered UDP probes and records round-trip
//!   times.
//! * [`UdpFlooder`] — a constant-bit-rate UDP source for offered-load
//!   sweeps.
//! * [`UdpSink`] — counts received datagrams/bytes for throughput
//!   measurement.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use vw_packet::{Frame, MacAddr, UdpBuilder};

use crate::context::Context;
use crate::protocol::Protocol;
use crate::time::{serialization_time, SimDuration, SimTime};

/// Echoes every UDP datagram addressed to (this host, `port`) back to the
/// sender, swapping addresses at every layer.
#[derive(Debug)]
pub struct UdpEcho {
    port: u16,
    echoed: u64,
}

impl UdpEcho {
    /// Creates an echo responder on a UDP port.
    pub fn new(port: u16) -> Self {
        UdpEcho { port, echoed: 0 }
    }

    /// How many datagrams have been echoed.
    pub fn echoed(&self) -> u64 {
        self.echoed
    }
}

impl Protocol for UdpEcho {
    fn name(&self) -> &str {
        "udp-echo"
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let Some(udp) = frame.udp() else { return };
        if udp.dst_port() != self.port {
            return;
        }
        let Some(ip) = frame.ipv4() else { return };
        if ip.dst() != ctx.ip() {
            return;
        }
        if !udp.verify_checksum() || !ip.verify_checksum() {
            return; // corrupted in transit; a real stack would drop it too
        }
        let reply = UdpBuilder::new()
            .src_mac(ctx.mac())
            .dst_mac(frame.src())
            .src_ip(ip.dst())
            .dst_ip(ip.src())
            .src_port(udp.dst_port())
            .dst_port(udp.src_port())
            .payload(udp.payload())
            .build();
        self.echoed += 1;
        ctx.send(reply);
    }
}

/// Sends numbered UDP probes at a fixed interval and records round-trip
/// times from the echoed replies.
#[derive(Debug)]
pub struct UdpPinger {
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    src_port: u16,
    interval: SimDuration,
    /// The probe payload, rewritten and reused for every probe.
    payload: Vec<u8>,
    count: u64,
    sent: u64,
    outstanding: HashMap<u64, SimTime>,
    rtts: Vec<SimDuration>,
}

impl UdpPinger {
    /// Creates a pinger that sends `count` probes of `payload_len` bytes
    /// every `interval` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `payload_len < 8` (the probe sequence number needs 8
    /// bytes).
    pub fn new(
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        interval: SimDuration,
        payload_len: usize,
        count: u64,
    ) -> Self {
        assert!(
            payload_len >= 8,
            "probe payload carries an 8-byte sequence number"
        );
        UdpPinger {
            dst_mac,
            dst_ip,
            dst_port,
            src_port,
            interval,
            payload: vec![0; payload_len],
            count,
            sent: 0,
            outstanding: HashMap::new(),
            rtts: Vec::new(),
        }
    }

    /// Round-trip times of completed probes, in send order of completion.
    pub fn rtts(&self) -> &[SimDuration] {
        &self.rtts
    }

    /// Number of probes sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of probes never answered (so far).
    pub fn lost(&self) -> usize {
        self.outstanding.len()
    }

    /// Mean RTT over completed probes, if any completed.
    pub fn mean_rtt(&self) -> Option<SimDuration> {
        if self.rtts.is_empty() {
            return None;
        }
        let total: u64 = self.rtts.iter().map(|d| d.as_nanos()).sum();
        Some(SimDuration::from_nanos(total / self.rtts.len() as u64))
    }

    fn send_probe(&mut self, ctx: &mut Context<'_>) {
        let seq = self.sent;
        self.sent += 1;
        self.payload[..8].copy_from_slice(&seq.to_be_bytes());
        let frame = UdpBuilder::new()
            .src_mac(ctx.mac())
            .dst_mac(self.dst_mac)
            .src_ip(ctx.ip())
            .dst_ip(self.dst_ip)
            .src_port(self.src_port)
            .dst_port(self.dst_port)
            .ident(seq as u16)
            .payload(&self.payload)
            .build();
        self.outstanding.insert(seq, ctx.now());
        ctx.send(frame);
        if self.sent < self.count {
            ctx.set_timer(self.interval, 0);
        }
    }
}

impl Protocol for UdpPinger {
    fn name(&self) -> &str {
        "udp-pinger"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.sent == 0 && self.count > 0 {
            self.send_probe(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.sent < self.count {
            self.send_probe(ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        let Some(udp) = frame.udp() else { return };
        if udp.dst_port() != self.src_port || udp.src_port() != self.dst_port {
            return;
        }
        let payload = udp.payload();
        if payload.len() < 8 {
            return;
        }
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&payload[..8]);
        let seq = u64::from_be_bytes(seq_bytes);
        if let Some(sent_at) = self.outstanding.remove(&seq) {
            self.rtts.push(ctx.now().saturating_since(sent_at));
        }
    }
}

/// A constant-bit-rate UDP source: offers `rate_bps` of application payload
/// toward a sink until stopped or `total_bytes` have been offered.
#[derive(Debug)]
pub struct UdpFlooder {
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    src_port: u16,
    rate_bps: u64,
    /// The datagram payload, refilled and reused for every datagram.
    payload: Vec<u8>,
    total_bytes: u64,
    offered_bytes: u64,
    seq: u64,
}

impl UdpFlooder {
    /// Creates a CBR source offering `rate_bps` of payload in
    /// `payload_len`-byte datagrams, up to `total_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` or `payload_len` is zero.
    pub fn new(
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        rate_bps: u64,
        payload_len: usize,
        total_bytes: u64,
    ) -> Self {
        assert!(rate_bps > 0, "offered rate must be positive");
        assert!(payload_len > 0, "payload length must be positive");
        UdpFlooder {
            dst_mac,
            dst_ip,
            dst_port,
            src_port,
            rate_bps,
            payload: vec![0; payload_len],
            total_bytes,
            offered_bytes: 0,
            seq: 0,
        }
    }

    /// Bytes offered to the network so far.
    pub fn offered_bytes(&self) -> u64 {
        self.offered_bytes
    }

    fn gap(&self) -> SimDuration {
        serialization_time(self.payload.len(), self.rate_bps)
    }

    fn send_one(&mut self, ctx: &mut Context<'_>) {
        self.payload.fill((self.seq % 251) as u8);
        let frame = UdpBuilder::new()
            .src_mac(ctx.mac())
            .dst_mac(self.dst_mac)
            .src_ip(ctx.ip())
            .dst_ip(self.dst_ip)
            .src_port(self.src_port)
            .dst_port(self.dst_port)
            .ident(self.seq as u16)
            .payload(&self.payload)
            .build();
        self.seq += 1;
        self.offered_bytes += self.payload.len() as u64;
        ctx.send(frame);
        if self.offered_bytes < self.total_bytes {
            ctx.set_timer(self.gap(), 0);
        }
    }
}

impl Protocol for UdpFlooder {
    fn name(&self) -> &str {
        "udp-flooder"
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.offered_bytes == 0 && self.total_bytes > 0 {
            self.send_one(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.offered_bytes < self.total_bytes {
            self.send_one(ctx);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: Frame) {}
}

/// Counts UDP datagrams addressed to (this host, `port`).
#[derive(Debug)]
pub struct UdpSink {
    port: u16,
    frames: u64,
    payload_bytes: u64,
}

impl UdpSink {
    /// Creates a sink on a UDP port.
    pub fn new(port: u16) -> Self {
        UdpSink {
            port,
            frames: 0,
            payload_bytes: 0,
        }
    }

    /// Datagrams received.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Payload bytes received.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }
}

impl Protocol for UdpSink {
    fn name(&self) -> &str {
        "udp-sink"
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, frame: Frame) {
        let Some(udp) = frame.udp() else { return };
        if udp.dst_port() != self.port {
            return;
        }
        if !udp.verify_checksum() {
            return;
        }
        self.frames += 1;
        self.payload_bytes += udp.payload().len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::protocol::Binding;
    use crate::world::World;
    use vw_packet::EtherType;

    fn echo_pair(world: &mut World) -> (crate::id::DeviceId, crate::id::DeviceId) {
        let a = world.add_host("a");
        let b = world.add_host("b");
        let sw = world.add_switch("sw", 4);
        world.connect(a, sw, LinkConfig::fast_ethernet());
        world.connect(b, sw, LinkConfig::fast_ethernet());
        (a, b)
    }

    #[test]
    fn ping_pong_measures_rtt() {
        let mut world = World::new(1);
        let (a, b) = echo_pair(&mut world);
        world.add_protocol(
            b,
            Binding::EtherType(EtherType::IPV4),
            Box::new(UdpEcho::new(7)),
        );
        let pinger = UdpPinger::new(
            world.host_mac(b),
            world.host_ip(b),
            7,
            9001,
            SimDuration::from_millis(1),
            64,
            10,
        );
        let pid = world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(pinger));
        world.run_for(SimDuration::from_millis(50));
        let pinger = world.protocol::<UdpPinger>(a, pid).unwrap();
        assert_eq!(pinger.sent(), 10);
        assert_eq!(pinger.rtts().len(), 10);
        assert_eq!(pinger.lost(), 0);
        let mean = pinger.mean_rtt().unwrap();
        // Two switch traversals each way plus propagation: tens of µs.
        assert!(mean.as_nanos() > 10_000, "mean RTT {mean}");
        assert!(mean.as_nanos() < 1_000_000, "mean RTT {mean}");
    }

    #[test]
    fn flooder_delivers_to_sink() {
        let mut world = World::new(2);
        let (a, b) = echo_pair(&mut world);
        world.add_protocol(
            b,
            Binding::EtherType(EtherType::IPV4),
            Box::new(UdpSink::new(9)),
        );
        let flooder = UdpFlooder::new(
            world.host_mac(b),
            world.host_ip(b),
            9,
            9002,
            10_000_000, // 10 Mb/s offered on a 100 Mb/s path
            1000,
            100_000,
        );
        world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
        world.run_for(SimDuration::from_millis(200));
        // Locate the sink (index 0 on host b).
        let sink = world
            .protocol::<UdpSink>(b, crate::id::ProtocolId::from_index(0))
            .unwrap();
        assert_eq!(sink.frames(), 100);
        assert_eq!(sink.payload_bytes(), 100_000);
    }

    #[test]
    fn sink_ignores_wrong_port_and_corruption() {
        let mut world = World::new(3);
        let (a, b) = echo_pair(&mut world);
        world.add_protocol(
            b,
            Binding::EtherType(EtherType::IPV4),
            Box::new(UdpSink::new(9)),
        );
        let flooder = UdpFlooder::new(
            world.host_mac(b),
            world.host_ip(b),
            10, // wrong port
            9002,
            1_000_000,
            500,
            5_000,
        );
        world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(flooder));
        world.run_for(SimDuration::from_millis(100));
        let sink = world
            .protocol::<UdpSink>(b, crate::id::ProtocolId::from_index(0))
            .unwrap();
        assert_eq!(sink.frames(), 0);
    }

    #[test]
    fn pinger_counts_losses() {
        let mut world = World::new(4);
        let a = world.add_host("a");
        let b = world.add_host("b");
        world.connect(
            a,
            b,
            LinkConfig::fast_ethernet().errors(crate::error_model::ErrorModel::lossy(1.0)),
        );
        world.add_protocol(
            b,
            Binding::EtherType(EtherType::IPV4),
            Box::new(UdpEcho::new(7)),
        );
        let pinger = UdpPinger::new(
            world.host_mac(b),
            world.host_ip(b),
            7,
            9001,
            SimDuration::from_millis(1),
            64,
            5,
        );
        let pid = world.add_protocol(a, Binding::EtherType(EtherType::IPV4), Box::new(pinger));
        world.run_for(SimDuration::from_millis(50));
        let pinger = world.protocol::<UdpPinger>(a, pid).unwrap();
        assert_eq!(pinger.sent(), 5);
        assert_eq!(pinger.lost(), 5);
        assert!(pinger.mean_rtt().is_none());
    }
}

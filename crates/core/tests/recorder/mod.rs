//! A host that is only a log: it drives an [`Engine`] through
//! [`EngineIo`] with no `World` behind it.
//!
//! The clock is whatever the driver sets. Every call the engine makes is
//! logged, and an effect is stamped with the time the simulator would
//! carry it out: the call's time plus the CPU time charged before it, as
//! `vw_netsim::Context` does.

// Each test that includes this module uses part of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use virtualwire::{Engine, EngineIo};
use vw_fsl::Dir;
use vw_netsim::{SimDuration, SimTime, Verdict};
use vw_packet::{Frame, MacAddr};

pub struct Recorder {
    now: SimTime,
    mac: MacAddr,
    charged: SimDuration,
    rng: StdRng,
    /// Frames passed on toward the wire, with when they move on.
    pub sent: Vec<(SimTime, Frame)>,
    /// Frames passed on toward the stack, with when they move on.
    pub delivered: Vec<(SimTime, Frame)>,
    /// Every timer armed, with when it falls due, in arming order.
    pub timers: Vec<(SimTime, u64)>,
    /// Every stop requested, with when.
    pub stops: Vec<(SimTime, String)>,
    /// Armed timers not yet fired, in arming order.
    pending: Vec<(SimTime, u64)>,
}

impl Recorder {
    /// A host with address `mac` whose random source is seeded as a
    /// `World::new(seed)`'s is.
    pub fn new(mac: MacAddr, seed: u64) -> Self {
        Recorder {
            now: SimTime::ZERO,
            mac,
            charged: SimDuration::ZERO,
            rng: StdRng::seed_from_u64(seed),
            sent: Vec::new(),
            delivered: Vec::new(),
            timers: Vec::new(),
            stops: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Begins a call at `now`, with nothing charged yet.
    pub fn begin(&mut self, now: SimTime) -> &mut Self {
        self.now = now;
        self.charged = SimDuration::ZERO;
        self
    }

    /// When an effect requested now takes place.
    fn due(&self) -> SimTime {
        self.now.saturating_add(self.charged)
    }

    /// Passes on what a verdict lets through, in `dir`, as a hook chain
    /// would: after the call's charge.
    pub fn pass(&mut self, verdict: Verdict, dir: Dir) {
        match verdict {
            Verdict::Accept(frame) => self.release(frame, dir),
            Verdict::Consume => {}
            Verdict::Replace(frames) => frames.into_iter().for_each(|f| self.release(f, dir)),
        }
    }

    /// Fires every armed timer due before `until`, earliest first and, at
    /// one instant, in arming order, as the world's queue pops them; ends
    /// early at a stop.
    pub fn fire_timers(&mut self, engine: &mut Engine, until: SimTime) {
        while self.stops.is_empty() {
            let next = (self.pending.iter().enumerate())
                .filter(|(_, &(at, _))| at < until)
                .min_by_key(|&(i, &(at, _))| (at, i))
                .map(|(i, _)| i);
            let Some(i) = next else { return };
            let (at, token) = self.pending.remove(i);
            engine.timer(self.begin(at), token);
        }
    }
}

impl EngineIo for Recorder {
    fn now(&self) -> SimTime {
        self.now
    }
    fn mac(&self) -> MacAddr {
        self.mac
    }
    fn charge(&mut self, cost: SimDuration) {
        self.charged = self.charged.saturating_add(cost);
    }
    fn charged(&self) -> SimDuration {
        self.charged
    }
    fn send(&mut self, frame: Frame) {
        self.sent.push((self.due(), frame));
    }
    fn deliver_up(&mut self, frame: Frame) {
        self.delivered.push((self.due(), frame));
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.due().saturating_add(delay);
        self.timers.push((at, token));
        self.pending.push((at, token));
    }
    fn request_stop(&mut self, reason: String) {
        self.stops.push((self.now, reason));
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

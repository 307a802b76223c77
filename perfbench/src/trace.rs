//! Timing pass-throughs around the simulator's three trait-object seams —
//! [`RoutingAgent`], [`NodeStack`] and [`MobilityModel`] — for the traced run.
//!
//! Each wrapper forwards every call unchanged and times it with
//! [`Instant`].  Spans are summed per wrapper instance (no shared state on
//! the hot path, so worker threads of a sharded run never contend) and
//! flushed into the run's [`Ledger`] when the wrapper is dropped at the end
//! of the run.
//!
//! Nesting: routing calls happen only inside stack callbacks, so the stack's
//! self time is its span total minus the routing total.  Mobility legs are
//! drawn by the engine itself, outside any stack span.  Simulator work reached
//! through `Ctx` callbacks (`send_frame` → MAC enqueue, neighbour queries) is
//! counted inside the routing or stack span that made the call.

use manet_netsim::mobility::{MobilityModel, Waypoint};
use manet_netsim::{Ctx, NodeStack, Position, SimTime, TimerToken};
use manet_routing::{RoutingAgent, RoutingStats};
use manet_wire::{DataPacket, Frame, NetPacket, NodeId, SharedPacket};
use rand::RngCore;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Span totals of one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Calls into routing agents.
    pub routing_calls: u64,
    /// Nanoseconds spent inside routing agents.
    pub routing_ns: u64,
    /// `RoutingAgent::on_packet` calls (packets handed to routing).
    pub routing_on_packet_calls: u64,
    /// Calls into node stacks.
    pub stack_calls: u64,
    /// Nanoseconds spent inside node stacks, routing spans included.
    pub stack_ns: u64,
    /// Mobility legs drawn after time zero (one per completed leg).
    pub mobility_legs: u64,
    /// Nanoseconds spent drawing those legs.
    pub mobility_ns: u64,
}

impl LayerTotals {
    fn add(&mut self, o: &LayerTotals) {
        self.routing_calls += o.routing_calls;
        self.routing_ns += o.routing_ns;
        self.routing_on_packet_calls += o.routing_on_packet_calls;
        self.stack_calls += o.stack_calls;
        self.stack_ns += o.stack_ns;
        self.mobility_legs += o.mobility_legs;
        self.mobility_ns += o.mobility_ns;
    }
}

/// Where one traced run's wrappers deposit their spans.
#[derive(Debug, Default)]
pub struct Ledger {
    totals: Mutex<LayerTotals>,
    routing_stats: Mutex<RoutingStats>,
    first_start: OnceLock<Instant>,
}

impl Ledger {
    /// A fresh ledger for one run.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger::default())
    }

    /// Span totals flushed so far (complete once the run's stacks and
    /// mobility models are dropped).
    pub fn totals(&self) -> LayerTotals {
        *self.totals.lock().expect("ledger mutex")
    }

    /// Routing statistics summed over every wrapped agent.
    pub fn routing_stats(&self) -> RoutingStats {
        *self.routing_stats.lock().expect("ledger mutex")
    }

    /// When the first stack was started: the end of set-up.
    pub fn first_start(&self) -> Option<Instant> {
        self.first_start.get().copied()
    }

    /// Called from `Drop`, so a poisoned lock is skipped rather than
    /// turned into a second panic.
    fn flush(&self, local: &LayerTotals) {
        if let Ok(mut totals) = self.totals.lock() {
            totals.add(local);
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Timing pass-through around a routing agent.
pub struct TimedAgent {
    inner: Box<dyn RoutingAgent>,
    local: LayerTotals,
    ledger: Arc<Ledger>,
}

impl TimedAgent {
    /// Wrap `inner`; spans go to `ledger` when the wrapper drops.
    pub fn new(inner: Box<dyn RoutingAgent>, ledger: &Arc<Ledger>) -> Self {
        TimedAgent {
            inner,
            local: LayerTotals::default(),
            ledger: Arc::clone(ledger),
        }
    }

    fn span<R>(&mut self, f: impl FnOnce(&mut dyn RoutingAgent) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.local.routing_ns += elapsed_ns(t);
        self.local.routing_calls += 1;
        r
    }
}

impl RoutingAgent for TimedAgent {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.span(|a| a.start(ctx))
    }
    fn send_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        self.span(|a| a.send_data(ctx, packet))
    }
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        packet: SharedPacket,
    ) -> Vec<DataPacket> {
        self.local.routing_on_packet_calls += 1;
        self.span(|a| a.on_packet(ctx, from, packet))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.span(|a| a.on_timer(ctx, token))
    }
    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.span(|a| a.on_link_failure(ctx, next_hop, packet))
    }
    fn stats(&self) -> RoutingStats {
        self.inner.stats()
    }
}

impl Drop for TimedAgent {
    fn drop(&mut self) {
        self.ledger.flush(&self.local);
        let s = self.inner.stats();
        if let Ok(mut sum) = self.ledger.routing_stats.lock() {
            sum.discoveries += s.discoveries;
            sum.rreq_tx += s.rreq_tx;
            sum.rrep_tx += s.rrep_tx;
            sum.rerr_tx += s.rerr_tx;
            sum.check_tx += s.check_tx;
            sum.check_err_tx += s.check_err_tx;
            sum.data_forwarded += s.data_forwarded;
            sum.data_dropped_no_route += s.data_dropped_no_route;
            sum.route_switches += s.route_switches;
        }
    }
}

/// Timing pass-through around a node stack.
pub struct TimedStack {
    inner: Box<dyn NodeStack + Send>,
    local: LayerTotals,
    ledger: Arc<Ledger>,
}

impl TimedStack {
    /// Wrap `inner`; spans go to `ledger` when the wrapper drops.
    pub fn new(inner: Box<dyn NodeStack + Send>, ledger: &Arc<Ledger>) -> Self {
        TimedStack {
            inner,
            local: LayerTotals::default(),
            ledger: Arc::clone(ledger),
        }
    }

    fn span<R>(&mut self, f: impl FnOnce(&mut dyn NodeStack) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.local.stack_ns += elapsed_ns(t);
        self.local.stack_calls += 1;
        r
    }
}

impl NodeStack for TimedStack {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.ledger.first_start.get_or_init(Instant::now);
        self.span(|s| s.start(ctx))
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.span(|s| s.on_timer(ctx, token))
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        self.span(|s| s.on_receive(ctx, from, packet))
    }
    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        self.span(|s| s.on_promiscuous(ctx, frame))
    }
    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.span(|s| s.on_link_failure(ctx, next_hop, packet))
    }
    fn on_run_end(&mut self, ctx: &mut Ctx<'_>) {
        self.span(|s| s.on_run_end(ctx))
    }
}

impl Drop for TimedStack {
    fn drop(&mut self) {
        self.ledger.flush(&self.local);
    }
}

/// Timing pass-through around a mobility model.  Only legs drawn after time
/// zero are timed: the initial placement belongs to set-up.
pub struct TimedMobility {
    inner: Box<dyn MobilityModel + Send>,
    local: LayerTotals,
    ledger: Arc<Ledger>,
}

impl TimedMobility {
    /// Wrap `inner`; spans go to `ledger` when the wrapper drops.
    pub fn new(inner: Box<dyn MobilityModel + Send>, ledger: &Arc<Ledger>) -> Self {
        TimedMobility {
            inner,
            local: LayerTotals::default(),
            ledger: Arc::clone(ledger),
        }
    }
}

impl MobilityModel for TimedMobility {
    fn initial_position(&mut self, idx: usize, rng: &mut dyn RngCore) -> Position {
        self.inner.initial_position(idx, rng)
    }
    fn next_leg(
        &mut self,
        idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        rng: &mut dyn RngCore,
    ) -> Waypoint {
        if now == SimTime::ZERO {
            return self.inner.next_leg(idx, current, now, epoch, rng);
        }
        let t = Instant::now();
        let leg = self.inner.next_leg(idx, current, now, epoch, rng);
        self.local.mobility_ns += elapsed_ns(t);
        self.local.mobility_legs += 1;
        leg
    }
}

impl Drop for TimedMobility {
    fn drop(&mut self) {
        self.ledger.flush(&self.local);
    }
}

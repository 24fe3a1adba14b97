//! Outside-in layer timing.
//!
//! Each wrapper here decorates one of the simulator's public trait
//! boundaries (`AgentFactory`/`FlowAgent`, `HostService`, `Qdisc`,
//! `SwitchPlugin`) and forwards every call unchanged, timing it with
//! [`Instant`]. Downcasts (`as_any_mut`) reach the wrapped object, so
//! code that looks up the concrete PASE service or plugin still finds
//! it. Nothing inside the simulator changes.
//!
//! A wrapped call's *self time* is its duration minus the time spent in
//! wrapped calls nested inside it (an agent's `send` reaching a qdisc's
//! `enqueue`, a host service waking an agent). The simulation runs on one
//! thread, so the accumulators are thread-local cells.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::time::Instant;

use netsim::fault::NodeFault;
use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentCtx, AgentFactory, FlowAgent, HostIo, HostService};
use netsim::ids::{NodeId, PortId};
use netsim::packet::Packet;
use netsim::queue::{Enqueued, Qdisc, QdiscStats};
use netsim::switch::{SwitchIo, SwitchPlugin, Verdict};
use netsim::time::SimTime;

/// Queue tiers, in report order.
pub const TIERS: [&str; 4] = ["host", "tor", "agg", "core"];
const TIER_UNRESOLVED: u8 = u8::MAX;

/// Accumulator slots. Agents of the DCTCP family report as `transport`,
/// PASE agents as `pase.endpoint`.
pub const TRANSPORT: usize = 0;
pub const PASE_ENDPOINT: usize = 1;
const HOST_SERVICE: usize = 2;
const PLUGIN_TRANSIT: usize = 3;
const PLUGIN_CTRL: usize = 4;
const PLUGIN_OTHER: usize = 5;
const ENQUEUE: usize = 6;
const DEQUEUE: usize = ENQUEUE + TIERS.len();
const SLOTS: usize = DEQUEUE + TIERS.len();

/// Names of the slots as printed by [`Snapshot::render`].
fn slot_name(slot: usize) -> String {
    match slot {
        TRANSPORT => "transport".into(),
        PASE_ENDPOINT => "pase.endpoint".into(),
        HOST_SERVICE => "pase.host_service".into(),
        PLUGIN_TRANSIT => "pase.plugin.transit".into(),
        PLUGIN_CTRL => "pase.plugin.ctrl".into(),
        PLUGIN_OTHER => "pase.plugin.other".into(),
        s if s < DEQUEUE => format!("netsim.queue.{}.enqueue", TIERS[s - ENQUEUE]),
        s => format!("netsim.queue.{}.dequeue", TIERS[s - DEQUEUE]),
    }
}

struct Profile {
    calls: [Cell<u64>; SLOTS],
    self_ns: [Cell<u64>; SLOTS],
    /// Time covered by wrapped calls nested in the currently open one.
    nested_ns: Cell<u64>,
    agent_timer_calls: [Cell<u64>; 2],
    dequeue_hits: Cell<u64>,
    peak_depth: Cell<u64>,
}

thread_local! {
    static PROFILE: Profile = const {
        Profile {
            calls: [const { Cell::new(0) }; SLOTS],
            self_ns: [const { Cell::new(0) }; SLOTS],
            nested_ns: Cell::new(0),
            agent_timer_calls: [const { Cell::new(0) }; 2],
            dequeue_hits: Cell::new(0),
            peak_depth: Cell::new(0),
        }
    };
    /// Tier of every node, by node index; filled once the topology is
    /// built, read lazily by each switch-side qdisc wrapper.
    static SWITCH_TIERS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Run `f` as one call of `slot`, charging it its self time.
#[inline]
fn timed<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    let outer = PROFILE.with(|p| p.nested_ns.replace(0));
    let start = Instant::now();
    let out = f();
    let total = start.elapsed().as_nanos() as u64;
    PROFILE.with(|p| {
        bump(&p.calls[slot], 1);
        bump(&p.self_ns[slot], total.saturating_sub(p.nested_ns.get()));
        p.nested_ns.set(outer + total);
    });
    out
}

/// Record the tier (index into [`TIERS`]) of every node, indexed by node
/// id. Must be called before the simulation runs.
pub fn set_switch_tiers(tiers: Vec<u8>) {
    SWITCH_TIERS.with(|t| *t.borrow_mut() = tiers);
}

/// Zero every accumulator.
pub fn reset() {
    PROFILE.with(|p| {
        for c in p.calls.iter().chain(&p.self_ns).chain(&p.agent_timer_calls) {
            c.set(0);
        }
        p.nested_ns.set(0);
        p.dequeue_hits.set(0);
        p.peak_depth.set(0);
    });
}

/// The accumulators at one point in time.
pub struct Snapshot {
    calls: [u64; SLOTS],
    self_ns: [u64; SLOTS],
    agent_timer_calls: [u64; 2],
    dequeue_hits: u64,
    peak_depth: u64,
}

impl Snapshot {
    /// Read the current accumulators.
    pub fn take() -> Snapshot {
        PROFILE.with(|p| Snapshot {
            calls: p.calls.each_ref().map(Cell::get),
            self_ns: p.self_ns.each_ref().map(Cell::get),
            agent_timer_calls: p.agent_timer_calls.each_ref().map(Cell::get),
            dequeue_hits: p.dequeue_hits.get(),
            peak_depth: p.peak_depth.get(),
        })
    }

    /// JSON object body: `"<slot>": [calls, self_ns]` per slot plus the
    /// extra counters.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = (0..SLOTS)
            .map(|s| {
                format!(
                    "\"{}\": [{}, {}]",
                    slot_name(s),
                    self.calls[s],
                    self.self_ns[s]
                )
            })
            .collect();
        parts.push(format!(
            "\"transport.timer_calls\": {}",
            self.agent_timer_calls[TRANSPORT]
        ));
        parts.push(format!(
            "\"pase.endpoint.timer_calls\": {}",
            self.agent_timer_calls[PASE_ENDPOINT]
        ));
        parts.push(format!(
            "\"netsim.queue.dequeue.hits\": {}",
            self.dequeue_hits
        ));
        parts.push(format!(
            "\"netsim.queue.peak_depth_pkts\": {}",
            self.peak_depth
        ));
        format!("{{{}}}", parts.join(", "))
    }
}

/// Times every agent the wrapped factory builds, and the builds.
pub struct TimedFactory<F> {
    inner: F,
    slot: usize,
}

impl<F: AgentFactory> TimedFactory<F> {
    /// Wrap `inner`; its agents report under `slot` ([`TRANSPORT`] or
    /// [`PASE_ENDPOINT`]).
    pub fn new(inner: F, slot: usize) -> Self {
        assert!(slot == TRANSPORT || slot == PASE_ENDPOINT);
        TimedFactory { inner, slot }
    }
}

impl<F: AgentFactory> AgentFactory for TimedFactory<F> {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        let inner = timed(self.slot, || self.inner.sender(spec));
        Box::new(TimedAgent {
            inner,
            slot: self.slot,
        })
    }

    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        let inner = timed(self.slot, || self.inner.receiver(hint));
        Box::new(TimedAgent {
            inner,
            slot: self.slot,
        })
    }
}

struct TimedAgent {
    inner: Box<dyn FlowAgent>,
    slot: usize,
}

impl FlowAgent for TimedAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_, '_>) {
        timed(self.slot, || self.inner.on_start(ctx));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut AgentCtx<'_, '_>) {
        timed(self.slot, || self.inner.on_packet(pkt, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_, '_>) {
        PROFILE.with(|p| bump(&p.agent_timer_calls[self.slot], 1));
        timed(self.slot, || self.inner.on_timer(token, ctx));
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.inner.as_any_mut()
    }
}

/// Times a host-local control service.
pub struct TimedService(pub Box<dyn HostService>);

impl HostService for TimedService {
    fn on_ctrl(&mut self, pkt: Packet, host: &mut HostIo<'_, '_, '_>) {
        timed(HOST_SERVICE, || self.0.on_ctrl(pkt, host));
    }

    fn on_timer(&mut self, token: u64, host: &mut HostIo<'_, '_, '_>) {
        timed(HOST_SERVICE, || self.0.on_timer(token, host));
    }

    fn on_fault(&mut self, fault: NodeFault, host: &mut HostIo<'_, '_, '_>) {
        timed(HOST_SERVICE, || self.0.on_fault(fault, host));
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Times a switch plugin, transit and control calls separately.
pub struct TimedPlugin(pub Box<dyn SwitchPlugin>);

impl SwitchPlugin for TimedPlugin {
    fn process_transit(
        &mut self,
        pkt: &mut Packet,
        out_port: PortId,
        io: &mut SwitchIo<'_, '_>,
    ) -> Verdict {
        timed(PLUGIN_TRANSIT, || self.0.process_transit(pkt, out_port, io))
    }

    fn on_ctrl(&mut self, pkt: Packet, io: &mut SwitchIo<'_, '_>) {
        timed(PLUGIN_CTRL, || self.0.on_ctrl(pkt, io));
    }

    fn on_timer(&mut self, token: u64, io: &mut SwitchIo<'_, '_>) {
        timed(PLUGIN_OTHER, || self.0.on_timer(token, io));
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut SwitchIo<'_, '_>) {
        timed(PLUGIN_OTHER, || self.0.on_fault(fault, io));
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Times a port's queue discipline, attributed to the tier of the node
/// that owns the port.
pub struct TimedQdisc {
    inner: Box<dyn Qdisc>,
    node: NodeId,
    tier: u8,
}

impl TimedQdisc {
    /// Wrap the qdisc of a port on `node`.
    pub fn new(inner: Box<dyn Qdisc>, node: NodeId, node_is_host: bool) -> Self {
        let tier = if node_is_host { 0 } else { TIER_UNRESOLVED };
        TimedQdisc { inner, node, tier }
    }

    fn tier(&mut self) -> usize {
        if self.tier == TIER_UNRESOLVED {
            self.tier = SWITCH_TIERS.with(|t| {
                *t.borrow()
                    .get(self.node.index())
                    .expect("switch tiers recorded before the run")
            });
        }
        self.tier as usize
    }
}

impl Qdisc for TimedQdisc {
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        let slot = ENQUEUE + self.tier();
        let out = timed(slot, || self.inner.enqueue(pkt, now));
        let depth = self.inner.len_pkts() as u64;
        PROFILE.with(|p| p.peak_depth.set(p.peak_depth.get().max(depth)));
        out
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        let slot = DEQUEUE + self.tier();
        let out = timed(slot, || self.inner.dequeue(now));
        if out.is_some() {
            PROFILE.with(|p| bump(&p.dequeue_hits, 1));
        }
        out
    }

    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        self.inner.for_each_queued(f)
    }

    fn stats(&self) -> QdiscStats {
        self.inner.stats()
    }
}

//! The arbitrator core every PASE control process shares.
//!
//! PASE runs the same bottom-up arbitration at every level of the tree
//! (paper §3.1): end hosts arbitrate their own access links
//! ([`crate::host_service`]), ToR and aggregation switches the links
//! above them ([`crate::plugin`]). Both node types wrap one
//! [`ArbiterCore`], which owns what they have in common: the bounded
//! control inbox and its shedding, the per-link arbitrate-then-climb
//! step and the reply it ends in, and the crash/storm/restart lifecycle
//! with its lease-GC tick. The node types keep only their own
//! arbitrators and message arms.
//!
//! The helpers return the [`Packet`] to send rather than sending it, so
//! each node type's own `send` (host incarnation stamping, switch FIB
//! routing) stays with the caller.

use netsim::engine::Ctx;
use netsim::event::EventKind;
use netsim::fault::NodeFault;
use netsim::host::MAINTENANCE_TIMER_BASE;
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::time::SimTime;
use netsim::trace::TraceEvent;

use crate::algorithm::{FlowEntry, LinkArbitrator};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, ArbResponse};
use crate::shed::InboxBudget;

/// What a [`NodeFault`] did to the control process, for the caller to
/// finish on its own state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lifecycle {
    /// Nothing for the caller to do: a storm edge, or a restart of a
    /// process that never crashed.
    Unchanged,
    /// The process died: the caller wipes its arbitration soft state.
    Crashed,
    /// A fresh process came up under a new maintenance epoch: the caller
    /// restarts its own loops, then calls [`ArbiterCore::arm_lease_gc`].
    Restarted,
}

/// Inbox, lifecycle and per-link step shared by every PASE arbitrator.
pub(crate) struct ArbiterCore {
    pub(crate) cfg: PaseConfig,
    pub(crate) me: NodeId,
    /// Injected-fault state: a crashed control process ignores control
    /// traffic and timers until restarted (a switch's data plane keeps
    /// forwarding; only the co-located control process dies).
    crashed: bool,
    /// Generation counter for the periodic lease-GC tick; bumped on
    /// restart so pre-crash ticks die silently.
    maint_epoch: u64,
    /// Control-inbox meter shared by every arbitrator of the node
    /// (overload protection; see [`crate::shed`]).
    budget: InboxBudget,
}

impl ArbiterCore {
    /// A live control process for node `me`. Arms no timer: the first
    /// lease-GC tick is scheduled by [`crate::install`].
    pub(crate) fn new(cfg: PaseConfig, me: NodeId) -> ArbiterCore {
        ArbiterCore {
            cfg,
            me,
            crashed: false,
            maint_epoch: 0,
            budget: InboxBudget::new(&cfg),
        }
    }

    /// Whether an injected crash has the control process down.
    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether an injected control storm is amplifying the inbox.
    pub(crate) fn is_stormed(&self) -> bool {
        self.budget.stormed()
    }

    /// Admit one arriving control packet into the bounded inbox. Returns
    /// the message and the weighted inbox depth it arrived at, or `None`
    /// when the packet dies here (counted either way).
    pub(crate) fn admit(&mut self, pkt: &mut Packet, sim: &mut Ctx<'_>) -> Option<(ArbMsg, u64)> {
        if self.crashed {
            // A crashed control process is a black hole: requests and
            // leg responses die here, and the senders' watchdogs handle
            // the silence (see [`crate::endpoint`]).
            sim.stats.note_ctrl_lost_to_crash();
            return None;
        }
        let Some(msg) = pkt.take_proto::<ArbMsg>() else {
            sim.stats.note_ctrl_unattended();
            return None;
        };
        let depth = self.budget.charge(sim.now());
        sim.stats.note_ctrl_epoch_depth(depth);
        if !self.budget.protected() && self.budget.overflowed(depth) {
            // Unprotected bounded inbox: silent tail drop of whatever
            // arrived — responses and FlowDone releases included, so
            // leases leak until expiry and senders hear nothing but their
            // watchdogs. This is the failure mode the priority-aware shed
            // policy exists to prevent.
            self.note_shed(pkt.flow, false, sim);
            return None;
        }
        Some((*msg, depth))
    }

    /// Shed verdict for an admitted message that arrived at inbox depth
    /// `depth`. Only requests are ever shed — releases, responses and
    /// delegation traffic always get through — and `stale` tells whether
    /// a request refreshes a flow the node already arbitrates. A shed
    /// request returns the backpressure reply to send: it carries whatever
    /// the leg accumulated so far plus the load-shed signal, so the sender
    /// still gets an answer — just not a fresh decision — and backs off.
    /// Anything else is counted as processed and returns `None`.
    pub(crate) fn shed_or_process(
        &self,
        msg: &ArbMsg,
        depth: u64,
        stale: impl FnOnce(&ArbRequest) -> bool,
        sim: &mut Ctx<'_>,
    ) -> Option<Packet> {
        if let ArbMsg::Request(req) = msg {
            let stale = stale(req);
            if self.budget.should_shed(depth, stale) {
                self.note_shed(req.flow, stale, sim);
                return Some(self.reply(req, true));
            }
        }
        sim.stats.note_ctrl_processed(self.me);
        None
    }

    fn note_shed(&self, flow: FlowId, stale: bool, sim: &mut Ctx<'_>) {
        sim.stats.note_ctrl_shed(self.me);
        if sim.stats.tracing() {
            let now = sim.now();
            sim.stats.trace_event(
                now,
                &TraceEvent::Shed {
                    node: self.me,
                    flow,
                    stale,
                },
            );
        }
    }

    /// One per-link arbitration step: expire stale leases on `arb`,
    /// decide for the request's flow, and fold the decision into the
    /// request's accumulators.
    pub(crate) fn arbitrate(&self, arb: &mut LinkArbitrator, req: &mut ArbRequest, now: SimTime) {
        arb.gc(now, self.cfg.arb_expiry);
        let d = arb.update_and_decide(
            req.flow,
            FlowEntry {
                remaining: req.remaining,
                deadline: req.deadline,
                demand: req.demand,
                task: req.task,
                last_update: now,
            },
        );
        req.accumulate(d.queue, d.rate);
    }

    /// End of a request's visit: forward it to `parent` — the next
    /// arbitrator on its leg, `None` when this node is the last — unless
    /// early pruning stops it; otherwise answer the source.
    pub(crate) fn climb_or_reply(
        &self,
        req: ArbRequest,
        parent: Option<NodeId>,
        sim: &mut Ctx<'_>,
    ) -> Packet {
        if let Some(parent) = parent {
            if !self.cfg.prunes(req.acc_queue) {
                sim.stats.note_arb_climbed(self.me);
                return Packet::ctrl(req.flow, self.me, parent, Box::new(ArbMsg::Request(req)));
            }
            sim.stats.note_arb_pruned(self.me);
        }
        self.reply(&req, false)
    }

    /// The response to `req`: its leg's accumulated queue and rate.
    fn reply(&self, req: &ArbRequest, shedding: bool) -> Packet {
        let resp = ArbMsg::Response(ArbResponse {
            flow: req.flow,
            leg: req.leg,
            queue: req.acc_queue,
            rate: req.acc_rate,
            shedding,
        });
        Packet::ctrl(req.flow, self.me, req.reply_to, Box::new(resp))
    }

    /// Apply a node fault to the control process.
    pub(crate) fn on_fault(&mut self, fault: NodeFault, now: SimTime) -> Lifecycle {
        match fault {
            NodeFault::Crash => {
                self.crashed = true;
                self.budget.clear(now);
                Lifecycle::Crashed
            }
            NodeFault::CtrlStormStart { amplify } => {
                self.budget.storm_start(amplify);
                Lifecycle::Unchanged
            }
            NodeFault::CtrlStormEnd => {
                self.budget.storm_end();
                Lifecycle::Unchanged
            }
            NodeFault::Restart if self.crashed => {
                // Fresh process, fresh GC loop: a tick still pending from
                // before the crash is now stale and inert.
                self.crashed = false;
                self.maint_epoch += 1;
                Lifecycle::Restarted
            }
            NodeFault::Restart => Lifecycle::Unchanged,
        }
    }

    /// Schedule the next lease-GC tick under the current epoch. The tick
    /// is infrastructure, not flow progress: its token rides above
    /// [`MAINTENANCE_TIMER_BASE`] so the stuck-flow oracle ignores it.
    pub(crate) fn arm_lease_gc(&self, sim: &mut Ctx<'_>) {
        sim.schedule_self(
            self.cfg.arb_expiry,
            EventKind::PluginTimer(MAINTENANCE_TIMER_BASE + self.maint_epoch),
        );
    }

    /// Periodic lease GC: when `token` is this process's live tick,
    /// expire every entry of `arbs` whose owner stopped refreshing
    /// (crashed endpoint, lost `FlowDone`) — even with no request traffic
    /// to trigger the request-path GC, so a dead flow cannot wedge the
    /// top queue — and re-arm. A crashed process skips the tick (its
    /// state is already gone); the restart re-arms under a new epoch.
    /// Returns whether `token` was the live tick.
    pub(crate) fn lease_tick<'a>(
        &self,
        token: u64,
        sim: &mut Ctx<'_>,
        arbs: impl IntoIterator<Item = &'a mut LinkArbitrator>,
    ) -> bool {
        if token != MAINTENANCE_TIMER_BASE + self.maint_epoch || self.crashed {
            return false;
        }
        let now = sim.now();
        for arb in arbs {
            arb.gc(now, self.cfg.arb_expiry);
        }
        self.arm_lease_gc(sim);
        true
    }
}

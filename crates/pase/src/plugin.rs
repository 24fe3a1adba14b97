//! PASE switch-resident arbitrators.
//!
//! One plugin instance runs co-located with each ToR and aggregation
//! switch. A ToR arbitrates its uplink (`ToR → agg`) for sender legs and
//! its downlink (`agg → ToR`) for receiver legs; with **delegation** it
//! additionally owns a virtual slice of the `agg → core` (sender) and
//! `core → agg` (receiver) links so inter-rack flows get a decision one
//! hop from the source (paper §3.1.2). An aggregation switch arbitrates
//! the real agg–core links when delegation is off, and rebalances the
//! delegated virtual capacities when it is on.
//!
//! **Early pruning** stops requests from climbing once a flow falls
//! outside the top `prune_depth` queues.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::host::MAINTENANCE_TIMER_BASE;
use netsim::ids::NodeId;
use netsim::packet::Packet;
use netsim::switch::{SwitchIo, SwitchPlugin};
use netsim::time::{Rate, SimTime};

use crate::algorithm::{FlowEntry, LinkArbitrator};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, ArbResponse, Leg};
use crate::shed::InboxBudget;
use crate::tree::{Level, TreeInfo};

/// Base timer token for the periodic delegation report (child side). The
/// live token is `DELEG_TIMER_TOKEN + epoch`, where the epoch bumps on
/// every arbitrator restart so stale pre-crash timers die silently.
pub const DELEG_TIMER_TOKEN: u64 = 1;

/// PASE arbitrator co-located with a switch.
pub struct PaseSwitchPlugin {
    cfg: PaseConfig,
    me: NodeId,
    level: Level,
    tree: Arc<TreeInfo>,
    /// Arbitrates `me → parent` for sender legs.
    up: Option<LinkArbitrator>,
    /// Arbitrates `parent → me` for receiver legs.
    down: Option<LinkArbitrator>,
    /// ToR only, delegation on: virtual slice of `agg → core`.
    deleg_up: Option<LinkArbitrator>,
    /// ToR only, delegation on: virtual slice of `core → agg`.
    deleg_down: Option<LinkArbitrator>,
    /// Agg only, delegation on: children's last reported demands.
    child_demands: HashMap<NodeId, (Rate, Rate)>,
    /// Injected-fault state: a crashed arbitrator ignores all control
    /// traffic and timers until restarted (the data plane keeps
    /// forwarding — only the co-located control process dies).
    crashed: bool,
    /// Generation counter for the delegation report loop. A restart
    /// starts a fresh chain under a new epoch so a timer still pending
    /// from before the crash cannot double the reporting rate.
    deleg_epoch: u64,
    /// Generation counter for the periodic lease-GC tick (same restart
    /// discipline as `deleg_epoch`).
    maint_epoch: u64,
    /// Control-inbox meter shared by every arbitrator this plugin owns
    /// (overload protection; see [`crate::shed`]).
    budget: InboxBudget,
}

impl PaseSwitchPlugin {
    /// Build the arbitrator for switch `me`.
    pub fn new(cfg: PaseConfig, me: NodeId, tree: Arc<TreeInfo>) -> Self {
        let level = tree.level(me);
        let uplink_rate = tree.uplink_rate(me);
        let (up, down) = match uplink_rate {
            Some(rate) => (
                Some(LinkArbitrator::new(rate, &cfg)),
                Some(LinkArbitrator::new(rate, &cfg)),
            ),
            None => (None, None),
        };
        // A ToR under an agg that itself has a core uplink gets delegated
        // slices of the agg–core links.
        let (deleg_up, deleg_down) = if cfg.delegation && level == Level::Tor {
            match tree.parent(me).and_then(|agg| {
                tree.uplink_rate(agg)
                    .map(|r| (r, tree.children(agg).len().max(1)))
            }) {
                Some((agg_core_rate, n_children)) => {
                    let slice = agg_core_rate.mul_f64(1.0 / n_children as f64);
                    (
                        Some(LinkArbitrator::new(slice, &cfg)),
                        Some(LinkArbitrator::new(slice, &cfg)),
                    )
                }
                None => (None, None),
            }
        } else {
            (None, None)
        };
        PaseSwitchPlugin {
            cfg,
            me,
            level,
            tree,
            up,
            down,
            deleg_up,
            deleg_down,
            child_demands: HashMap::new(),
            crashed: false,
            deleg_epoch: 0,
            maint_epoch: 0,
            budget: InboxBudget::new(&cfg),
        }
    }

    /// Expire leases on every arbitrator this plugin owns: entries whose
    /// endpoint stopped refreshing (crashed host) are dropped after
    /// `arb_expiry` even when no request traffic arrives to trigger the
    /// request-path GC, so a dead flow cannot wedge the top queue.
    fn gc_all(&mut self, now: SimTime) {
        let expiry = self.cfg.arb_expiry;
        for arb in [
            self.up.as_mut(),
            self.down.as_mut(),
            self.deleg_up.as_mut(),
            self.deleg_down.as_mut(),
        ]
        .into_iter()
        .flatten()
        {
            arb.gc(now, expiry);
        }
    }

    /// Whether an injected crash currently has this arbitrator down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Whether an injected control storm is amplifying this arbitrator's
    /// inbox (tests).
    pub fn is_stormed(&self) -> bool {
        self.budget.stormed()
    }

    /// Current delegated uplink-slice capacity (tests).
    pub fn deleg_up_capacity(&self) -> Option<Rate> {
        self.deleg_up.as_ref().map(|a| a.capacity())
    }

    /// Flows tracked by the uplink arbitrator (tests).
    pub fn up_flows(&self) -> usize {
        self.up.as_ref().map_or(0, |a| a.n_flows())
    }

    /// Flows tracked by the downlink arbitrator (tests).
    pub fn down_flows(&self) -> usize {
        self.down.as_ref().map_or(0, |a| a.n_flows())
    }

    fn entry_from(req: &ArbRequest, now: SimTime) -> FlowEntry {
        FlowEntry {
            remaining: req.remaining,
            deadline: req.deadline,
            demand: req.demand,
            task: req.task,
            last_update: now,
        }
    }

    /// Does this flow's path cross the core (i.e. leave the agg subtree)?
    fn crosses_core(&self, req: &ArbRequest) -> bool {
        !self.tree.same_agg_subtree(req.src, req.dst)
    }

    fn reply(&self, req: &ArbRequest, shedding: bool, io: &mut SwitchIo<'_, '_>) {
        let resp = ArbMsg::Response(ArbResponse {
            flow: req.flow,
            leg: req.leg,
            queue: req.acc_queue,
            rate: req.acc_rate,
            shedding,
        });
        io.send(Packet::ctrl(
            req.flow,
            self.me,
            req.reply_to,
            Box::new(resp),
        ));
    }

    /// Whether any arbitrator on this request's leg already holds a live
    /// entry for the flow (making the request a *stale refresh* — the
    /// first thing an overloaded arbitrator sheds).
    fn is_refresh(&self, req: &ArbRequest) -> bool {
        let (primary, deleg) = match req.leg {
            Leg::Sender => (self.up.as_ref(), self.deleg_up.as_ref()),
            Leg::Receiver => (self.down.as_ref(), self.deleg_down.as_ref()),
        };
        primary.is_some_and(|a| a.contains(req.flow)) || deleg.is_some_and(|a| a.contains(req.flow))
    }

    fn handle_request(&mut self, mut req: ArbRequest, io: &mut SwitchIo<'_, '_>) {
        let now = io.now();
        let expiry = self.cfg.arb_expiry;
        // Which of my links lie on this leg of the path?
        let primary = match req.leg {
            Leg::Sender => self.up.as_mut(),
            Leg::Receiver => self.down.as_mut(),
        };
        if let Some(arb) = primary {
            arb.gc(now, expiry);
            let d = arb.update_and_decide(req.flow, Self::entry_from(&req, now));
            req.accumulate(d.queue, d.rate);
        }
        let crosses_core = self.crosses_core(&req);
        if self.level == Level::Tor && crosses_core {
            // The agg–core hop still needs arbitration.
            let deleg = match req.leg {
                Leg::Sender => self.deleg_up.as_mut(),
                Leg::Receiver => self.deleg_down.as_mut(),
            };
            if let Some(arb) = deleg {
                // Delegation: decide locally on the virtual slice.
                arb.gc(now, expiry);
                let d = arb.update_and_decide(req.flow, Self::entry_from(&req, now));
                req.accumulate(d.queue, d.rate);
            } else if let Some(parent) = self.tree.parent(self.me) {
                // No delegation: climb, unless pruned.
                let pruned = self.cfg.early_pruning && req.acc_queue >= self.cfg.prune_depth;
                if !pruned {
                    io.sim.stats.note_arb_climbed(self.me);
                    io.send(Packet::ctrl(
                        req.flow,
                        self.me,
                        parent,
                        Box::new(ArbMsg::Request(req)),
                    ));
                    return;
                }
                io.sim.stats.note_arb_pruned(self.me);
            }
        }
        self.reply(&req, false, io);
    }

    fn handle_flow_done(
        &mut self,
        flow: netsim::ids::FlowId,
        src: NodeId,
        dst: NodeId,
        leg: Leg,
        io: &mut SwitchIo<'_, '_>,
    ) {
        match leg {
            Leg::Sender => {
                if let Some(a) = self.up.as_mut() {
                    a.remove(flow);
                }
                if let Some(a) = self.deleg_up.as_mut() {
                    a.remove(flow);
                }
            }
            Leg::Receiver => {
                if let Some(a) = self.down.as_mut() {
                    a.remove(flow);
                }
                if let Some(a) = self.deleg_down.as_mut() {
                    a.remove(flow);
                }
            }
        }
        // Without delegation the parent also holds state for core-crossing
        // flows.
        let crosses_core = !self.tree.same_agg_subtree(src, dst);
        if self.level == Level::Tor && crosses_core && !self.cfg.delegation {
            if let Some(parent) = self.tree.parent(self.me) {
                io.send(Packet::ctrl(
                    flow,
                    self.me,
                    parent,
                    Box::new(ArbMsg::FlowDone {
                        flow,
                        src,
                        dst,
                        leg,
                    }),
                ));
            }
        }
    }

    /// Agg side: rebalance the delegated virtual links across children in
    /// proportion to their reported demands (with a minimum share so idle
    /// children can ramp up).
    fn rebalance_and_grant(&mut self, reporter: NodeId, io: &mut SwitchIo<'_, '_>) {
        let Some(total) = self.tree.uplink_rate(self.me) else {
            return;
        };
        let min_share = self.cfg.deleg_min_share;
        let floor_up =
            |d: Rate| -> f64 { (d.as_bps() as f64).max(total.as_bps() as f64 * min_share) };
        let children = self.tree.children(self.me).to_vec();
        let sum_up: f64 = children
            .iter()
            .map(|c| floor_up(self.child_demands.get(c).map_or(Rate::ZERO, |d| d.0)))
            .sum();
        let sum_down: f64 = children
            .iter()
            .map(|c| floor_up(self.child_demands.get(c).map_or(Rate::ZERO, |d| d.1)))
            .sum();
        let (rep_up, rep_down) = self
            .child_demands
            .get(&reporter)
            .copied()
            .unwrap_or((Rate::ZERO, Rate::ZERO));
        let up_capacity = total.mul_f64(floor_up(rep_up) / sum_up.max(1.0));
        let down_capacity = total.mul_f64(floor_up(rep_down) / sum_down.max(1.0));
        io.send(Packet::ctrl(
            netsim::ids::FlowId(u64::MAX),
            self.me,
            reporter,
            Box::new(ArbMsg::DelegGrant {
                up_capacity,
                down_capacity,
            }),
        ));
    }
}

impl SwitchPlugin for PaseSwitchPlugin {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut SwitchIo<'_, '_>) {
        if self.crashed {
            // A crashed arbitrator is a black hole: requests addressed to
            // it die here, and the sending endpoints' watchdogs handle
            // the silence (see [`crate::endpoint`]).
            io.sim.stats.note_ctrl_lost_to_crash();
            return;
        }
        let Some(msg) = pkt.take_proto::<ArbMsg>() else {
            io.sim.stats.note_ctrl_unattended();
            return;
        };
        let now = io.now();
        let depth = self.budget.charge(now);
        io.sim.stats.note_ctrl_epoch_depth(depth);
        if !self.budget.protected() && self.budget.overflowed(depth) {
            // Unprotected bounded inbox: silent tail drop of whatever
            // arrived — responses and FlowDone releases included, so
            // leases leak until expiry and senders hear nothing but their
            // watchdogs. This is the failure mode the priority-aware shed
            // policy exists to prevent.
            io.sim.stats.note_ctrl_shed(self.me);
            if io.sim.stats.tracing() {
                io.sim.stats.trace_event(
                    now,
                    &netsim::trace::TraceEvent::Shed {
                        node: self.me,
                        flow: pkt.flow,
                        stale: false,
                    },
                );
            }
            return;
        }
        match *msg {
            ArbMsg::Request(req) => {
                // Overloaded: shed instead of arbitrating. The reply
                // carries whatever the leg accumulated so far plus the
                // load-shed signal, so the sender still gets an answer —
                // just not a fresh decision — and backs off. Releases
                // (`FlowDone`) and delegation traffic are never shed.
                let stale = self.is_refresh(&req);
                if self.budget.should_shed(depth, stale) {
                    io.sim.stats.note_ctrl_shed(self.me);
                    if io.sim.stats.tracing() {
                        io.sim.stats.trace_event(
                            now,
                            &netsim::trace::TraceEvent::Shed {
                                node: self.me,
                                flow: req.flow,
                                stale,
                            },
                        );
                    }
                    self.reply(&req, true, io);
                    return;
                }
                io.sim.stats.note_ctrl_processed(self.me);
                self.handle_request(req, io)
            }
            ArbMsg::FlowDone {
                flow,
                src,
                dst,
                leg,
            } => {
                io.sim.stats.note_ctrl_processed(self.me);
                self.handle_flow_done(flow, src, dst, leg, io)
            }
            ArbMsg::DelegUpdate {
                child,
                up_demand,
                down_demand,
            } => {
                io.sim.stats.note_ctrl_processed(self.me);
                self.child_demands.insert(child, (up_demand, down_demand));
                self.rebalance_and_grant(child, io);
            }
            ArbMsg::DelegGrant {
                up_capacity,
                down_capacity,
            } => {
                io.sim.stats.note_ctrl_processed(self.me);
                if let Some(a) = self.deleg_up.as_mut() {
                    a.set_capacity(up_capacity);
                }
                if let Some(a) = self.deleg_down.as_mut() {
                    a.set_capacity(down_capacity);
                }
            }
            ArbMsg::Response(_) => {
                // Responses are addressed to hosts, never to switches.
                io.sim.stats.note_ctrl_processed(self.me);
                debug_assert!(false, "arbitration response delivered to a switch");
            }
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut SwitchIo<'_, '_>) {
        if token == MAINTENANCE_TIMER_BASE + self.maint_epoch {
            // Lease GC. A crashed plugin skips the tick (its state is
            // already gone); the restart path re-arms under a new epoch.
            if !self.crashed {
                let now = io.now();
                self.gc_all(now);
                io.set_timer(
                    self.cfg.arb_expiry,
                    MAINTENANCE_TIMER_BASE + self.maint_epoch,
                );
            }
            return;
        }
        if self.crashed
            || token != DELEG_TIMER_TOKEN + self.deleg_epoch
            || !self.cfg.delegation
            || self.level != Level::Tor
        {
            return;
        }
        let Some(parent) = self.tree.parent(self.me) else {
            return;
        };
        // Report demand on the delegated slices so the parent can
        // rebalance; only aggregate information travels (paper §3.1.2).
        if self.deleg_up.is_some() || self.deleg_down.is_some() {
            let up_demand = self
                .deleg_up
                .as_ref()
                .map_or(Rate::ZERO, |a| a.top_queue_demand());
            let down_demand = self
                .deleg_down
                .as_ref()
                .map_or(Rate::ZERO, |a| a.top_queue_demand());
            io.send(Packet::ctrl(
                netsim::ids::FlowId(u64::MAX),
                self.me,
                parent,
                Box::new(ArbMsg::DelegUpdate {
                    child: self.me,
                    up_demand,
                    down_demand,
                }),
            ));
        }
        io.set_timer(self.cfg.deleg_period, DELEG_TIMER_TOKEN + self.deleg_epoch);
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut SwitchIo<'_, '_>) {
        match fault {
            NodeFault::Crash => {
                self.crashed = true;
                // All arbitration soft state dies with the process; only
                // the periodic endpoint refreshes can rebuild it.
                if let Some(a) = self.up.as_mut() {
                    a.clear();
                }
                if let Some(a) = self.down.as_mut() {
                    a.clear();
                }
                if let Some(a) = self.deleg_up.as_mut() {
                    a.clear();
                }
                if let Some(a) = self.deleg_down.as_mut() {
                    a.clear();
                }
                self.child_demands.clear();
                self.budget.clear(io.now());
            }
            NodeFault::CtrlStormStart { amplify } => self.budget.storm_start(amplify),
            NodeFault::CtrlStormEnd => self.budget.storm_end(),
            NodeFault::Restart => {
                if !self.crashed {
                    return;
                }
                self.crashed = false;
                // The fresh process starts empty and re-learns purely from
                // the next refresh round (within `arb_expiry`). Restart the
                // delegation report and lease-GC loops under new epochs: a
                // timer still pending from before the crash is now stale
                // and inert.
                self.deleg_epoch += 1;
                if self.cfg.delegation
                    && self.level == Level::Tor
                    && self.tree.parent(self.me).is_some()
                {
                    io.set_timer(self.cfg.deleg_period, DELEG_TIMER_TOKEN + self.deleg_epoch);
                }
                self.maint_epoch += 1;
                io.set_timer(
                    self.cfg.arb_expiry,
                    MAINTENANCE_TIMER_BASE + self.maint_epoch,
                );
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

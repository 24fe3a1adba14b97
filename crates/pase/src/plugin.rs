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
//! outside the top `prune_depth` queues. Inbox admission, shedding, the
//! per-link step and the crash/restart lifecycle live in
//! `crate::arbiter`.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::ids::NodeId;
use netsim::packet::Packet;
use netsim::switch::{SwitchIo, SwitchPlugin};
use netsim::time::Rate;

use crate::algorithm::LinkArbitrator;
use crate::arbiter::{ArbiterCore, Lifecycle};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, Leg};
use crate::tree::{Level, TreeInfo};

/// Base timer token for the periodic delegation report (child side). The
/// live token is `DELEG_TIMER_TOKEN + epoch`, where the epoch bumps on
/// every arbitrator restart so stale pre-crash timers die silently.
pub const DELEG_TIMER_TOKEN: u64 = 1;

/// PASE arbitrator co-located with a switch.
pub struct PaseSwitchPlugin {
    core: ArbiterCore,
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
    /// Generation counter for the delegation report loop. A restart
    /// starts a fresh chain under a new epoch so a timer still pending
    /// from before the crash cannot double the reporting rate.
    deleg_epoch: u64,
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
            core: ArbiterCore::new(cfg, me),
            level,
            tree,
            up,
            down,
            deleg_up,
            deleg_down,
            child_demands: HashMap::new(),
            deleg_epoch: 0,
        }
    }

    /// Every arbitrator this plugin owns.
    fn arbitrators(&mut self) -> impl Iterator<Item = &mut LinkArbitrator> {
        [
            self.up.as_mut(),
            self.down.as_mut(),
            self.deleg_up.as_mut(),
            self.deleg_down.as_mut(),
        ]
        .into_iter()
        .flatten()
    }

    /// Whether this switch runs the delegation report loop: a ToR with
    /// delegation on and a parent to report to.
    fn reports_demand(&self) -> bool {
        self.core.cfg.delegation
            && self.level == Level::Tor
            && self.tree.parent(self.core.me).is_some()
    }

    /// Whether an injected crash currently has this arbitrator down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed()
    }

    /// Whether an injected control storm is amplifying this arbitrator's
    /// inbox (tests).
    pub fn is_stormed(&self) -> bool {
        self.core.is_stormed()
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
        // Which of my links lie on this leg of the path?
        let (primary, deleg) = match req.leg {
            Leg::Sender => (self.up.as_mut(), self.deleg_up.as_mut()),
            Leg::Receiver => (self.down.as_mut(), self.deleg_down.as_mut()),
        };
        if let Some(arb) = primary {
            self.core.arbitrate(arb, &mut req, now);
        }
        let mut parent = None;
        if self.level == Level::Tor && !self.tree.same_agg_subtree(req.src, req.dst) {
            // The agg–core hop still needs arbitration: decide locally on
            // the delegated virtual slice, or climb.
            match deleg {
                Some(arb) => self.core.arbitrate(arb, &mut req, now),
                None => parent = self.tree.parent(self.core.me),
            }
        }
        let pkt = self.core.climb_or_reply(req, parent, io.sim);
        io.send(pkt);
    }

    fn handle_flow_done(
        &mut self,
        flow: netsim::ids::FlowId,
        src: NodeId,
        dst: NodeId,
        leg: Leg,
        io: &mut SwitchIo<'_, '_>,
    ) {
        let arbs = match leg {
            Leg::Sender => [self.up.as_mut(), self.deleg_up.as_mut()],
            Leg::Receiver => [self.down.as_mut(), self.deleg_down.as_mut()],
        };
        for arb in arbs.into_iter().flatten() {
            arb.remove(flow);
        }
        // Without delegation the parent also holds state for core-crossing
        // flows.
        let crosses_core = !self.tree.same_agg_subtree(src, dst);
        if self.level == Level::Tor && crosses_core && !self.core.cfg.delegation {
            if let Some(parent) = self.tree.parent(self.core.me) {
                io.send(Packet::ctrl(
                    flow,
                    self.core.me,
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
        let Some(total) = self.tree.uplink_rate(self.core.me) else {
            return;
        };
        let min_share = self.core.cfg.deleg_min_share;
        let floor_up =
            |d: Rate| -> f64 { (d.as_bps() as f64).max(total.as_bps() as f64 * min_share) };
        let children = self.tree.children(self.core.me).to_vec();
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
            self.core.me,
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
        let Some((msg, depth)) = self.core.admit(&mut pkt, io.sim) else {
            return;
        };
        let stale = |req: &ArbRequest| self.is_refresh(req);
        if let Some(reply) = self.core.shed_or_process(&msg, depth, stale, io.sim) {
            io.send(reply);
            return;
        }
        match msg {
            ArbMsg::Request(req) => self.handle_request(req, io),
            ArbMsg::FlowDone {
                flow,
                src,
                dst,
                leg,
            } => self.handle_flow_done(flow, src, dst, leg, io),
            ArbMsg::DelegUpdate {
                child,
                up_demand,
                down_demand,
            } => {
                self.child_demands.insert(child, (up_demand, down_demand));
                self.rebalance_and_grant(child, io);
            }
            ArbMsg::DelegGrant {
                up_capacity,
                down_capacity,
            } => {
                if let Some(a) = self.deleg_up.as_mut() {
                    a.set_capacity(up_capacity);
                }
                if let Some(a) = self.deleg_down.as_mut() {
                    a.set_capacity(down_capacity);
                }
            }
            ArbMsg::Response(_) => {
                // Responses are addressed to hosts, never to switches.
                debug_assert!(false, "arbitration response delivered to a switch");
            }
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut SwitchIo<'_, '_>) {
        let arbs = [
            self.up.as_mut(),
            self.down.as_mut(),
            self.deleg_up.as_mut(),
            self.deleg_down.as_mut(),
        ]
        .into_iter()
        .flatten();
        if self.core.lease_tick(token, io.sim, arbs) {
            return;
        }
        // Otherwise only the live delegation report tick of a running
        // process does anything.
        if self.core.is_crashed()
            || token != DELEG_TIMER_TOKEN + self.deleg_epoch
            || !self.reports_demand()
        {
            return;
        }
        let me = self.core.me;
        let parent = self.tree.parent(me).expect("reporting ToR has a parent");
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
                me,
                parent,
                Box::new(ArbMsg::DelegUpdate {
                    child: me,
                    up_demand,
                    down_demand,
                }),
            ));
        }
        io.set_timer(
            self.core.cfg.deleg_period,
            DELEG_TIMER_TOKEN + self.deleg_epoch,
        );
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut SwitchIo<'_, '_>) {
        match self.core.on_fault(fault, io.now()) {
            Lifecycle::Crashed => {
                // All arbitration soft state dies with the process; only
                // the periodic endpoint refreshes can rebuild it.
                self.arbitrators().for_each(LinkArbitrator::clear);
                self.child_demands.clear();
            }
            Lifecycle::Restarted => {
                // The fresh process starts empty and re-learns purely from
                // the next refresh round (within `arb_expiry`). Restart the
                // delegation report loop under a new epoch too. It is armed
                // before the lease-GC tick: timers due at the same instant
                // fire in the order they were scheduled.
                self.deleg_epoch += 1;
                if self.reports_demand() {
                    io.set_timer(
                        self.core.cfg.deleg_period,
                        DELEG_TIMER_TOKEN + self.deleg_epoch,
                    );
                }
                self.core.arm_lease_gc(io.sim);
            }
            Lifecycle::Unchanged => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

//! The PASE endpoint control plane.
//!
//! Each host runs two leaf arbitrators (paper §3.1: arbitration "can be
//! implemented at the end-hosts themselves, e.g., for their own links to
//! the switch"):
//!
//! * the **uplink** arbitrator for `host → ToR`, consulted synchronously
//!   by local sender agents (zero latency — this is why intra-rack flows
//!   "incur no additional network latency for arbitration");
//! * the **downlink** arbitrator for `ToR → host`, driven by receiver-leg
//!   requests arriving as control packets from remote sources.
//!
//! The service also caches arbitration responses per flow so sender agents
//! can read them when woken.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::host::{HostIo, HostService, MAINTENANCE_TIMER_BASE};
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::time::{Rate, SimTime};

use crate::algorithm::{Decision, FlowEntry, LinkArbitrator};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, ArbResponse, Leg};
use crate::shed::InboxBudget;
use crate::tree::TreeInfo;

/// Cached per-flow results from the two legs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegResults {
    /// Latest sender-leg (network) response.
    pub sender: Option<Decision>,
    /// Latest receiver-leg response.
    pub receiver: Option<Decision>,
    /// A leg response arrived carrying the load-shed signal since the
    /// sender last consumed it (see [`PaseHostService::take_shed`]).
    pub shed: bool,
}

/// Where a source must send its arbitration traffic for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbPlan {
    /// ToR to contact for the sender leg (`None`: intra-rack or
    /// local-only arbitration).
    pub sender_leg_to: Option<NodeId>,
    /// Destination host to contact for the receiver leg (`None`:
    /// local-only arbitration).
    pub receiver_leg_to: Option<NodeId>,
}

/// Host-local PASE control state.
pub struct PaseHostService {
    cfg: PaseConfig,
    me: NodeId,
    tree: Arc<TreeInfo>,
    uplink: LinkArbitrator,
    downlink: LinkArbitrator,
    legs: HashMap<FlowId, LegResults>,
    /// Injected-fault state: a crashed control process ignores control
    /// packets and timers until restarted (mirrors
    /// [`crate::plugin::PaseSwitchPlugin`]).
    crashed: bool,
    /// Generation counter for the periodic lease-GC tick; bumped on
    /// restart so pre-crash ticks die silently.
    gc_epoch: u64,
    /// Control-inbox meter shared by the two leaf arbitrators (overload
    /// protection; see [`crate::shed`]).
    budget: InboxBudget,
}

impl PaseHostService {
    /// Create the service for host `me` with access link `access_rate`.
    pub fn new(cfg: PaseConfig, me: NodeId, access_rate: Rate, tree: Arc<TreeInfo>) -> Self {
        PaseHostService {
            cfg,
            me,
            tree,
            uplink: LinkArbitrator::new(access_rate, &cfg),
            downlink: LinkArbitrator::new(access_rate, &cfg),
            legs: HashMap::new(),
            crashed: false,
            gc_epoch: 0,
            budget: InboxBudget::new(&cfg),
        }
    }

    /// Whether an injected crash currently has the control process down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Compute the control-plane plan for a flow sourced at this host.
    pub fn plan(&self, dst: NodeId) -> ArbPlan {
        if !self.cfg.end_to_end {
            return ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            };
        }
        let sender_leg_to = if self.tree.same_rack(self.me, dst) {
            None // intra-rack: endpoints only (paper §3.1.2)
        } else {
            Some(self.tree.tor_of(self.me))
        };
        ArbPlan {
            sender_leg_to,
            receiver_leg_to: Some(dst),
        }
    }

    /// Synchronous arbitration of the local uplink for a sender agent.
    /// Inserts/refreshes the entry and returns the decision.
    #[allow(clippy::too_many_arguments)]
    pub fn local_update(
        &mut self,
        flow: FlowId,
        remaining: u64,
        deadline: Option<SimTime>,
        task: Option<u64>,
        demand: Rate,
        now: SimTime,
    ) -> Decision {
        self.uplink.gc(now, self.cfg.arb_expiry);
        self.legs.entry(flow).or_default();
        self.uplink.update_and_decide(
            flow,
            FlowEntry {
                remaining,
                deadline,
                demand,
                task,
                last_update: now,
            },
        )
    }

    /// Remove a finished flow from local state.
    pub fn local_remove(&mut self, flow: FlowId) {
        self.uplink.remove(flow);
        self.legs.remove(&flow);
    }

    /// Latest leg responses for a flow.
    pub fn leg_results(&self, flow: FlowId) -> LegResults {
        self.legs.get(&flow).copied().unwrap_or_default()
    }

    /// Read and clear the load-shed signal for `flow`. The local sender
    /// consumes it once per wake-up to drive its refresh backoff.
    pub fn take_shed(&mut self, flow: FlowId) -> bool {
        match self.legs.get_mut(&flow) {
            Some(slot) => core::mem::take(&mut slot.shed),
            None => false,
        }
    }

    /// Whether an injected control storm is amplifying this host's
    /// arbitrators (tests).
    pub fn is_stormed(&self) -> bool {
        self.budget.stormed()
    }

    /// Number of flows tracked by the uplink arbitrator (tests).
    pub fn uplink_flows(&self) -> usize {
        self.uplink.n_flows()
    }

    /// Number of flows tracked by the downlink arbitrator (tests).
    pub fn downlink_flows(&self) -> usize {
        self.downlink.n_flows()
    }

    /// Handle a receiver-leg request for a flow destined to this host.
    fn on_receiver_request(&mut self, mut req: ArbRequest, io: &mut HostIo<'_, '_, '_>) {
        let now = io.now();
        self.downlink.gc(now, self.cfg.arb_expiry);
        let d = self.downlink.update_and_decide(
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
        // Forward up the destination half of the tree unless intra-rack or
        // pruned (paper §3.1.2).
        let cross_rack = !self.tree.same_rack(req.src, self.me);
        let pruned = self.cfg.early_pruning && req.acc_queue >= self.cfg.prune_depth;
        if cross_rack && pruned {
            io.sim.stats.note_arb_pruned(self.me);
        }
        let forward = cross_rack && !pruned;
        if forward {
            io.sim.stats.note_arb_climbed(self.me);
            let tor = self.tree.tor_of(self.me);
            io.send(Packet::ctrl(
                req.flow,
                self.me,
                tor,
                Box::new(ArbMsg::Request(req)),
            ));
        } else {
            let resp = ArbMsg::Response(ArbResponse {
                flow: req.flow,
                leg: Leg::Receiver,
                queue: req.acc_queue,
                rate: req.acc_rate,
                shedding: false,
            });
            io.send(Packet::ctrl(
                req.flow,
                self.me,
                req.reply_to,
                Box::new(resp),
            ));
        }
    }
}

impl HostService for PaseHostService {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut HostIo<'_, '_, '_>) {
        if self.crashed {
            // A crashed control process is a black hole: remote requests
            // and leg responses die here and the senders' watchdogs
            // handle the silence (see [`crate::endpoint`]).
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
                debug_assert_eq!(req.leg, Leg::Receiver, "hosts only serve receiver legs");
                // Overloaded: shed instead of arbitrating. The reply
                // carries whatever the leg accumulated so far plus the
                // load-shed signal, so the sender still gets an answer —
                // just not a fresh decision — and backs off.
                let stale = self.downlink.contains(req.flow);
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
                    io.send(Packet::ctrl(
                        req.flow,
                        self.me,
                        req.reply_to,
                        Box::new(ArbMsg::Response(ArbResponse {
                            flow: req.flow,
                            leg: Leg::Receiver,
                            queue: req.acc_queue,
                            rate: req.acc_rate,
                            shedding: true,
                        })),
                    ));
                    return;
                }
                io.sim.stats.note_ctrl_processed(self.me);
                self.on_receiver_request(req, io);
            }
            ArbMsg::Response(resp) => {
                io.sim.stats.note_ctrl_processed(self.me);
                let slot = self.legs.entry(resp.flow).or_default();
                if resp.shedding {
                    // A shed reply is backpressure, not a decision — its
                    // queue/rate merely echo what the sender already
                    // believed. Age the leg out so the flow rides its
                    // always-fresh local (uplink) arbitration until the
                    // overloaded arbitrator answers for real: a stale
                    // crowd-era allocation held across a backed-off
                    // refresh gap would keep throttling or suppressing
                    // the flow long after the burst has drained.
                    match resp.leg {
                        Leg::Sender => slot.sender = None,
                        Leg::Receiver => slot.receiver = None,
                    }
                } else {
                    let d = Decision {
                        queue: resp.queue,
                        rate: resp.rate,
                    };
                    match resp.leg {
                        Leg::Sender => slot.sender = Some(d),
                        Leg::Receiver => slot.receiver = Some(d),
                    }
                }
                slot.shed |= resp.shedding;
                io.wake_flow(resp.flow);
            }
            ArbMsg::FlowDone { flow, src, leg, .. } => {
                io.sim.stats.note_ctrl_processed(self.me);
                debug_assert_eq!(leg, Leg::Receiver);
                self.downlink.remove(flow);
                // Propagate up the destination half if the flow left the
                // rack (the ToR and above also hold state).
                if self.cfg.end_to_end && !self.tree.same_rack(src, self.me) {
                    let tor = self.tree.tor_of(self.me);
                    io.send(Packet::ctrl(
                        flow,
                        self.me,
                        tor,
                        Box::new(ArbMsg::FlowDone {
                            flow,
                            src,
                            dst: self.me,
                            leg,
                        }),
                    ));
                }
            }
            ArbMsg::DelegUpdate { .. } | ArbMsg::DelegGrant { .. } => {
                // Delegation messages never target hosts.
                io.sim.stats.note_ctrl_processed(self.me);
            }
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut HostIo<'_, '_, '_>) {
        // Periodic lease GC: entries whose owner stopped refreshing
        // (crashed endpoint, lost FlowDone) expire after `arb_expiry` even
        // when no request traffic touches the arbitrator in the meantime,
        // so a dead flow cannot wedge the top priority queue. The tick is
        // infrastructure (not flow progress): the token rides above
        // [`MAINTENANCE_TIMER_BASE`] so the stuck-flow oracle ignores it.
        if token != MAINTENANCE_TIMER_BASE + self.gc_epoch || self.crashed {
            return;
        }
        let now = io.now();
        self.uplink.gc(now, self.cfg.arb_expiry);
        self.downlink.gc(now, self.cfg.arb_expiry);
        io.set_timer(self.cfg.arb_expiry, MAINTENANCE_TIMER_BASE + self.gc_epoch);
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut HostIo<'_, '_, '_>) {
        match fault {
            NodeFault::Crash => {
                // The endpoint control process loses everything: both leaf
                // arbitrators and the cached leg responses. Local senders
                // repopulate the uplink (and re-request the legs) on their
                // next refresh; remote senders repopulate the downlink the
                // same way once the process restarts.
                self.crashed = true;
                self.uplink.clear();
                self.downlink.clear();
                self.legs.clear();
                self.budget.clear(io.now());
            }
            NodeFault::CtrlStormStart { amplify } => self.budget.storm_start(amplify),
            NodeFault::CtrlStormEnd => self.budget.storm_end(),
            NodeFault::Restart => {
                if !self.crashed {
                    return;
                }
                self.crashed = false;
                // Fresh process, fresh GC loop: a tick still pending from
                // before the crash is now stale and inert.
                self.gc_epoch += 1;
                io.set_timer(self.cfg.arb_expiry, MAINTENANCE_TIMER_BASE + self.gc_epoch);
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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
//! can read them when woken. Inbox admission, shedding, the per-link step
//! and the crash/restart lifecycle live in `crate::arbiter`.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::fault::NodeFault;
use netsim::host::{HostIo, HostService};
use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::time::{Rate, SimTime};

use crate::algorithm::{Decision, FlowEntry, LinkArbitrator};
use crate::arbiter::{ArbiterCore, Lifecycle};
use crate::config::PaseConfig;
use crate::messages::{ArbMsg, ArbRequest, Leg};
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
    core: ArbiterCore,
    tree: Arc<TreeInfo>,
    uplink: LinkArbitrator,
    downlink: LinkArbitrator,
    legs: HashMap<FlowId, LegResults>,
}

impl PaseHostService {
    /// Create the service for host `me` with access link `access_rate`.
    pub fn new(cfg: PaseConfig, me: NodeId, access_rate: Rate, tree: Arc<TreeInfo>) -> Self {
        PaseHostService {
            core: ArbiterCore::new(cfg, me),
            tree,
            uplink: LinkArbitrator::new(access_rate, &cfg),
            downlink: LinkArbitrator::new(access_rate, &cfg),
            legs: HashMap::new(),
        }
    }

    /// Whether an injected crash currently has the control process down
    /// (tests).
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed()
    }

    /// Compute the control-plane plan for a flow sourced at this host.
    pub fn plan(&self, dst: NodeId) -> ArbPlan {
        let me = self.core.me;
        if !self.core.cfg.end_to_end {
            return ArbPlan {
                sender_leg_to: None,
                receiver_leg_to: None,
            };
        }
        let sender_leg_to = if self.tree.same_rack(me, dst) {
            None // intra-rack: endpoints only (paper §3.1.2)
        } else {
            Some(self.tree.tor_of(me))
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
        self.uplink.gc(now, self.core.cfg.arb_expiry);
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
    /// consumes it once per refresh round to judge the round.
    pub fn take_shed(&mut self, flow: FlowId) -> bool {
        match self.legs.get_mut(&flow) {
            Some(slot) => core::mem::take(&mut slot.shed),
            None => false,
        }
    }

    /// Whether an injected control storm is amplifying this host's
    /// arbitrators (tests).
    pub fn is_stormed(&self) -> bool {
        self.core.is_stormed()
    }

    /// Number of flows tracked by the uplink arbitrator (tests).
    pub fn uplink_flows(&self) -> usize {
        self.uplink.n_flows()
    }

    /// Number of flows tracked by the downlink arbitrator (tests).
    pub fn downlink_flows(&self) -> usize {
        self.downlink.n_flows()
    }
}

impl HostService for PaseHostService {
    fn on_ctrl(&mut self, mut pkt: Packet, io: &mut HostIo<'_, '_, '_>) {
        let Some((msg, depth)) = self.core.admit(&mut pkt, io.sim) else {
            return;
        };
        let downlink = &self.downlink;
        let stale = |req: &ArbRequest| downlink.contains(req.flow);
        if let Some(reply) = self.core.shed_or_process(&msg, depth, stale, io.sim) {
            io.send(reply);
            return;
        }
        let me = self.core.me;
        match msg {
            ArbMsg::Request(mut req) => {
                debug_assert_eq!(req.leg, Leg::Receiver, "hosts only serve receiver legs");
                // Arbitrate the downlink, then climb the destination half
                // of the tree unless intra-rack or pruned (paper §3.1.2).
                self.core.arbitrate(&mut self.downlink, &mut req, io.now());
                let tor = (!self.tree.same_rack(req.src, me)).then(|| self.tree.tor_of(me));
                let pkt = self.core.climb_or_reply(req, tor, io.sim);
                io.send(pkt);
            }
            ArbMsg::Response(resp) => {
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
                debug_assert_eq!(leg, Leg::Receiver);
                self.downlink.remove(flow);
                // Propagate up the destination half if the flow left the
                // rack (the ToR and above also hold state).
                if self.core.cfg.end_to_end && !self.tree.same_rack(src, me) {
                    let tor = self.tree.tor_of(me);
                    io.send(Packet::ctrl(
                        flow,
                        me,
                        tor,
                        Box::new(ArbMsg::FlowDone {
                            flow,
                            src,
                            dst: me,
                            leg,
                        }),
                    ));
                }
            }
            // Delegation messages never target hosts.
            ArbMsg::DelegUpdate { .. } | ArbMsg::DelegGrant { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut HostIo<'_, '_, '_>) {
        self.core
            .lease_tick(token, io.sim, [&mut self.uplink, &mut self.downlink]);
    }

    fn on_fault(&mut self, fault: NodeFault, io: &mut HostIo<'_, '_, '_>) {
        match self.core.on_fault(fault, io.now()) {
            Lifecycle::Crashed => {
                // The endpoint control process loses everything: both leaf
                // arbitrators and the cached leg responses. Local senders
                // repopulate the uplink (and re-request the legs) on their
                // next refresh; remote senders repopulate the downlink the
                // same way once the process restarts.
                self.uplink.clear();
                self.downlink.clear();
                self.legs.clear();
            }
            Lifecycle::Restarted => self.core.arm_lease_gc(io.sim),
            Lifecycle::Unchanged => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

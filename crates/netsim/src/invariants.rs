//! Global simulation invariants.
//!
//! The chaos harness ([`crate::chaos`]) throws randomized fault schedules
//! at the simulator; this module is the oracle that says whether the run
//! stayed sane. Five invariants are checked:
//!
//! 1. **Packet conservation.** Every data packet injected by a host is
//!    eventually accounted for exactly once:
//!    `injected = delivered + dropped + corrupted + blackholed +
//!    consumed + in-network + lost-to-crash`, where *in-network* counts
//!    packets sitting in queues, mid-serialization, or propagating
//!    (pending `Deliver` events) at the moment of the check,
//!    *lost-to-crash* counts packets that arrived at a crashed
//!    destination host, and *corrupted* counts packets mangled by a
//!    degraded link and discarded by the destination's checksum.
//! 2. **Control-message conservation.** Every control packet put on the
//!    wire is likewise accounted for exactly once:
//!    `sent = processed + shed + dropped + corrupted + blackholed +
//!    lost-to-crash + unattended + in-network`, where *processed* and
//!    *shed* are what arbitrators did with messages that reached them,
//!    *lost-to-crash* covers messages arriving at a crashed control
//!    process or host, and *unattended* counts messages delivered to a
//!    node with no control plugin/service installed.
//! 3. **No stuck flow.** An incomplete flow must have *some* way to make
//!    progress: a pending event referencing it (timer, delivery, start),
//!    one of its packets still in the network, or a control-plane timer
//!    pending at its endpoints. A flow with none of these will never
//!    finish — a lost-wakeup bug, not congestion. Background maintenance
//!    timers (tokens at or above
//!    [`crate::host::MAINTENANCE_TIMER_BASE`]) are *not* progress
//!    evidence: a perpetual GC tick can never advance a flow. Flows that
//!    ended in the terminal `Aborted` state count as complete — an
//!    endpoint crash with a recorded abort reason is a legitimate
//!    terminal outcome, not a stuck flow.
//! 4. **Monotonic event time.** The clock never runs backwards while
//!    processing events (checked online, every event).
//! 5. **Bounded queues.** No port's queue occupancy ever exceeds a
//!    configured packet bound (checked online, periodically, and once at
//!    the end).
//!
//! Online checks run inside [`crate::sim::Simulation::run`] once
//! [`crate::sim::Simulation::enable_invariants`] has been called; the
//! full (conservation + stuck-flow) audit is performed by
//! [`crate::sim::Simulation::check_invariants`], typically after the run
//! stops. Violations are collected, not panicked on, so a chaos sweep can
//! report every failing seed; [`InvariantReport::assert_clean`] converts
//! them into a panic for tests.

use std::collections::BTreeSet;

use crate::event::EventKind;
use crate::ids::{FlowId, NodeId};
use crate::packet::PacketKind;
use crate::time::SimTime;

/// Tuning knobs for the invariant checker.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Maximum tolerated queue occupancy, in packets, on any single port.
    /// The default is far above any configured qdisc capacity in this
    /// repo, so tripping it means a queue is growing without bound.
    pub max_queue_pkts: usize,
    /// How often (in executed events) the online queue-bound scan runs.
    pub check_interval_events: u64,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            max_queue_pkts: 4096,
            check_interval_events: 8192,
        }
    }
}

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Data-packet conservation (injected vs. accounted).
    Conservation,
    /// Control-message conservation (sent vs. accounted).
    CtrlConservation,
    /// An incomplete flow with no pending means of progress.
    StuckFlow,
    /// The event clock ran backwards.
    MonotonicTime,
    /// A port queue exceeded the configured occupancy bound.
    QueueBound,
    /// Arena-outstanding packet count disagrees with the packets actually
    /// held in ports and on the wire (a leaked or double-released box).
    ArenaBalance,
}

impl core::fmt::Display for Invariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Invariant::Conservation => "conservation",
            Invariant::CtrlConservation => "ctrl-conservation",
            Invariant::StuckFlow => "stuck-flow",
            Invariant::MonotonicTime => "monotonic-time",
            Invariant::QueueBound => "queue-bound",
            Invariant::ArenaBalance => "arena-balance",
        };
        f.write_str(name)
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time at which the violation was detected.
    pub at: SimTime,
    /// The invariant that was broken.
    pub invariant: Invariant,
    /// Human-readable specifics (counters, node/flow ids).
    pub detail: String,
}

impl Violation {
    /// A port queue on `node` holding `len` packets, over `bound`.
    pub(crate) fn queue_bound(at: SimTime, node: NodeId, len: usize, bound: usize) -> Violation {
        Violation {
            at,
            invariant: Invariant::QueueBound,
            detail: format!("queue on {node} holds {len} pkts (bound {bound})"),
        }
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.invariant, self.detail)
    }
}

/// The outcome of an invariant audit.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable listing if any invariant was violated.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "invariant violations:\n{self}");
    }
}

impl core::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.violations.is_empty() {
            return writeln!(f, "all invariants hold");
        }
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Online invariant state threaded through the run loop.
///
/// Owned by [`crate::sim::Simulation`] once
/// [`crate::sim::Simulation::enable_invariants`] is called.
#[derive(Debug)]
pub(crate) struct InvariantMonitor {
    pub(crate) cfg: InvariantConfig,
    last_event_time: SimTime,
    events_seen: u64,
    pub(crate) violations: Vec<Violation>,
}

impl InvariantMonitor {
    pub(crate) fn new(cfg: InvariantConfig) -> InvariantMonitor {
        InvariantMonitor {
            cfg,
            last_event_time: SimTime::ZERO,
            events_seen: 0,
            violations: Vec::new(),
        }
    }

    /// Record one executed event; checks clock monotonicity and reports
    /// whether the periodic queue scan is due.
    pub(crate) fn on_event(&mut self, now: SimTime) -> bool {
        if now < self.last_event_time {
            self.violations.push(Violation {
                at: now,
                invariant: Invariant::MonotonicTime,
                detail: format!("clock went backwards: {} -> {now}", self.last_event_time),
            });
        }
        self.last_event_time = now;
        self.events_seen += 1;
        self.events_seen
            .is_multiple_of(self.cfg.check_interval_events)
    }

    /// Record a queue-bound violation found by a scan.
    pub(crate) fn note_queue_violation(&mut self, now: SimTime, node: NodeId, len: usize) {
        let bound = self.cfg.max_queue_pkts;
        self.violations
            .push(Violation::queue_bound(now, node, len, bound));
    }
}

/// Snapshot of in-network data packets, taken by the conservation walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InNetwork {
    /// Data packets queued or mid-serialization on ports.
    pub in_ports: u64,
    /// Data packets propagating (pending `Deliver` events).
    pub on_wire: u64,
}

impl InNetwork {
    /// Total in-network data packets.
    pub fn total(&self) -> u64 {
        self.in_ports + self.on_wire
    }
}

/// Evidence that an incomplete flow can still make progress.
///
/// Built once per audit by scanning the pending event queue and the
/// in-network packet population; the stuck-flow check then queries it per
/// flow.
#[derive(Debug, Default)]
pub(crate) struct ProgressEvidence {
    /// Flows referenced by a pending event or an in-network packet.
    flows: BTreeSet<FlowId>,
    /// Nodes with a pending control-plane (plugin/service) timer.
    plugin_timer_nodes: BTreeSet<NodeId>,
}

impl ProgressEvidence {
    pub(crate) fn note_flow(&mut self, flow: FlowId) {
        self.flows.insert(flow);
    }

    pub(crate) fn note_plugin_timer(&mut self, node: NodeId) {
        self.plugin_timer_nodes.insert(node);
    }

    pub(crate) fn note_event(&mut self, target: NodeId, kind: &EventKind) {
        match kind {
            EventKind::Deliver(pkt) => self.note_flow(pkt.flow),
            EventKind::AgentTimer { flow, .. } => self.note_flow(*flow),
            EventKind::FlowStart(spec) => self.note_flow(spec.id),
            // Maintenance ticks (state GC) recur forever and advance no
            // flow; counting them would blind the stuck-flow check.
            EventKind::PluginTimer(token) if *token >= crate::host::MAINTENANCE_TIMER_BASE => {}
            EventKind::PluginTimer(_) => self.note_plugin_timer(target),
            // A pending TxComplete proves a port will drain, but the
            // packet it carries is already counted via the port walk;
            // faults reference no flow.
            EventKind::TxComplete(_) | EventKind::Fault(_) => {}
        }
    }

    /// Can `flow` (between `src` and `dst`) still make progress?
    pub(crate) fn can_progress(&self, flow: FlowId, src: NodeId, dst: NodeId) -> bool {
        self.flows.contains(&flow)
            || self.plugin_timer_nodes.contains(&src)
            || self.plugin_timer_nodes.contains(&dst)
    }
}

/// Inputs to the conservation equation, gathered by
/// [`crate::sim::Simulation::check_invariants`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConservationTerms {
    pub injected: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub blackholed: u64,
    pub consumed: u64,
    pub lost_to_crash: u64,
    pub in_network: InNetwork,
}

impl ConservationTerms {
    /// Check the books; push a violation on mismatch.
    pub(crate) fn check(&self, now: SimTime, out: &mut Vec<Violation>) {
        let accounted = self.delivered
            + self.dropped
            + self.corrupted
            + self.blackholed
            + self.consumed
            + self.lost_to_crash
            + self.in_network.total();
        if self.injected != accounted {
            out.push(Violation {
                at: now,
                invariant: Invariant::Conservation,
                detail: format!(
                    "injected {} != accounted {} (delivered {} + dropped {} + \
                     corrupted {} + blackholed {} + consumed {} + \
                     lost-to-crash {} + in-ports {} + on-wire {})",
                    self.injected,
                    accounted,
                    self.delivered,
                    self.dropped,
                    self.corrupted,
                    self.blackholed,
                    self.consumed,
                    self.lost_to_crash,
                    self.in_network.in_ports,
                    self.in_network.on_wire,
                ),
            });
        }
    }
}

/// Does this pending event carry an in-flight *data* packet?
pub(crate) fn is_data_deliver(kind: &EventKind) -> bool {
    matches!(kind, EventKind::Deliver(pkt) if pkt.kind == PacketKind::Data)
}

/// Does this pending event carry an in-flight *control* packet?
pub(crate) fn is_ctrl_deliver(kind: &EventKind) -> bool {
    matches!(kind, EventKind::Deliver(pkt) if pkt.kind == PacketKind::Ctrl)
}

/// Inputs to the control-message conservation equation, gathered by
/// [`crate::sim::Simulation::check_invariants`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtrlConservationTerms {
    pub sent: u64,
    pub processed: u64,
    pub shed: u64,
    pub dropped: u64,
    pub corrupted: u64,
    pub blackholed: u64,
    pub lost_to_crash: u64,
    pub unattended: u64,
    pub in_network: InNetwork,
}

impl CtrlConservationTerms {
    /// Check the control-plane books; push a violation on mismatch.
    pub(crate) fn check(&self, now: SimTime, out: &mut Vec<Violation>) {
        let accounted = self.processed
            + self.shed
            + self.dropped
            + self.corrupted
            + self.blackholed
            + self.lost_to_crash
            + self.unattended
            + self.in_network.total();
        if self.sent != accounted {
            out.push(Violation {
                at: now,
                invariant: Invariant::CtrlConservation,
                detail: format!(
                    "ctrl sent {} != accounted {} (processed {} + shed {} + \
                     dropped {} + corrupted {} + blackholed {} + \
                     lost-to-crash {} + unattended {} + in-ports {} + on-wire {})",
                    self.sent,
                    accounted,
                    self.processed,
                    self.shed,
                    self.dropped,
                    self.corrupted,
                    self.blackholed,
                    self.lost_to_crash,
                    self.unattended,
                    self.in_network.in_ports,
                    self.in_network.on_wire,
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balanced_books_are_clean() {
        let terms = ConservationTerms {
            injected: 10,
            delivered: 4,
            dropped: 1,
            corrupted: 1,
            blackholed: 1,
            consumed: 0,
            lost_to_crash: 1,
            in_network: InNetwork {
                in_ports: 1,
                on_wire: 1,
            },
        };
        let mut out = Vec::new();
        terms.check(SimTime::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn conservation_mismatch_is_reported() {
        let terms = ConservationTerms {
            injected: 10,
            delivered: 6,
            dropped: 1,
            corrupted: 0,
            blackholed: 0,
            consumed: 0,
            lost_to_crash: 0,
            in_network: InNetwork::default(),
        };
        let mut out = Vec::new();
        terms.check(SimTime::from_micros(3), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].invariant, Invariant::Conservation);
        assert!(out[0].detail.contains("injected 10"), "{}", out[0].detail);
        assert!(out[0].detail.contains("corrupted 0"), "{}", out[0].detail);
        assert!(
            out[0].detail.contains("lost-to-crash 0"),
            "{}",
            out[0].detail
        );
    }

    #[test]
    fn ctrl_conservation_balanced_books_are_clean() {
        let terms = CtrlConservationTerms {
            sent: 12,
            processed: 5,
            shed: 2,
            dropped: 1,
            corrupted: 1,
            blackholed: 0,
            lost_to_crash: 1,
            unattended: 1,
            in_network: InNetwork {
                in_ports: 0,
                on_wire: 1,
            },
        };
        let mut out = Vec::new();
        terms.check(SimTime::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn ctrl_conservation_mismatch_is_reported() {
        let terms = CtrlConservationTerms {
            sent: 10,
            processed: 6,
            shed: 0,
            dropped: 1,
            corrupted: 0,
            blackholed: 0,
            lost_to_crash: 0,
            unattended: 0,
            in_network: InNetwork::default(),
        };
        let mut out = Vec::new();
        terms.check(SimTime::from_micros(3), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].invariant, Invariant::CtrlConservation);
        assert!(out[0].detail.contains("ctrl sent 10"), "{}", out[0].detail);
        assert!(out[0].detail.contains("shed 0"), "{}", out[0].detail);
    }

    #[test]
    fn monitor_flags_backwards_clock() {
        let mut m = InvariantMonitor::new(InvariantConfig::default());
        m.on_event(SimTime::from_micros(5));
        m.on_event(SimTime::from_micros(3));
        assert_eq!(m.violations.len(), 1);
        assert_eq!(m.violations[0].invariant, Invariant::MonotonicTime);
    }

    #[test]
    fn monitor_scan_cadence() {
        let mut m = InvariantMonitor::new(InvariantConfig {
            max_queue_pkts: 10,
            check_interval_events: 4,
        });
        let due: Vec<bool> = (0..8)
            .map(|i| m.on_event(SimTime::from_micros(i)))
            .collect();
        assert_eq!(
            due,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn progress_evidence_covers_timers_and_packets() {
        let mut ev = ProgressEvidence::default();
        ev.note_flow(FlowId(1));
        ev.note_plugin_timer(NodeId(9));
        assert!(ev.can_progress(FlowId(1), NodeId(0), NodeId(2)));
        // No direct reference, but a control timer pends at the source.
        assert!(ev.can_progress(FlowId(2), NodeId(9), NodeId(3)));
        assert!(!ev.can_progress(FlowId(2), NodeId(0), NodeId(3)));
    }

    #[test]
    fn maintenance_timers_are_not_progress_evidence() {
        use crate::host::MAINTENANCE_TIMER_BASE;
        let mut ev = ProgressEvidence::default();
        ev.note_event(NodeId(4), &EventKind::PluginTimer(MAINTENANCE_TIMER_BASE));
        ev.note_event(
            NodeId(4),
            &EventKind::PluginTimer(MAINTENANCE_TIMER_BASE + 17),
        );
        assert!(!ev.can_progress(FlowId(0), NodeId(4), NodeId(5)));
        // An ordinary control timer below the base still counts.
        ev.note_event(NodeId(4), &EventKind::PluginTimer(1));
        assert!(ev.can_progress(FlowId(0), NodeId(4), NodeId(5)));
    }

    #[test]
    fn report_formatting_and_assert() {
        let mut rep = InvariantReport::default();
        assert!(rep.is_clean());
        rep.assert_clean();
        rep.violations.push(Violation {
            at: SimTime::from_micros(1),
            invariant: Invariant::QueueBound,
            detail: "queue on n3 holds 9000 pkts (bound 4096)".into(),
        });
        assert!(!rep.is_clean());
        let text = format!("{rep}");
        assert!(text.contains("queue-bound"), "{text}");
    }
}

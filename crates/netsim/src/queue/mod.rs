//! Queue disciplines for switch output ports.
//!
//! The paper's evaluation exercises three families of queueing behaviour:
//!
//! * plain FIFO drop-tail ([`DropTailQdisc`]) — baseline TCP;
//! * RED/ECN marking on instantaneous queue length ([`RedEcnQdisc`]) — the
//!   DCTCP family and each band of PASE's priority queues;
//! * strict priority scheduling over a small number of bands
//!   ([`StrictPrioQdisc`]) — PASE's use of the 4–10 hardware priority
//!   queues that commodity switches expose (paper Table 2).
//!
//! pFabric's rank-based scheduling/dropping queue lives in the `pfabric`
//! crate and plugs in through the same [`Qdisc`] trait.
//!
//! Qdiscs reserve no packet storage at construction: a queue's buffer
//! grows with its occupancy, and its packet cap is only an admission check.

mod droptail;
mod red;
mod strict_prio;

pub use droptail::DropTailQdisc;
pub use red::RedEcnQdisc;
pub use strict_prio::StrictPrioQdisc;

use crate::packet::Packet;
use crate::time::SimTime;

/// Outcome of an enqueue attempt.
///
/// Disciplines that drop on overflow may drop either the arriving packet or
/// a previously queued one (pFabric evicts the lowest-priority resident);
/// the dropped packet is handed back so the port can account for it.
#[derive(Debug)]
pub enum Enqueued {
    /// The packet was accepted (it may have been ECN-marked in place).
    Ok,
    /// The arriving packet was rejected and dropped.
    RejectedArrival(Box<Packet>),
    /// The arriving packet was accepted; a lower-priority resident was
    /// evicted to make room (pFabric-style dropping).
    Evicted(Box<Packet>),
}

/// Counters every discipline keeps; read by the tracing layer. They count
/// queueing outcomes only: fault-injected loss is tallied by the port
/// (see [`crate::port::Port::synthetic_drops`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QdiscStats {
    /// Packets accepted into the queue.
    pub enqueued_pkts: u64,
    /// Bytes accepted into the queue.
    pub enqueued_bytes: u64,
    /// Packets dropped (on arrival or by eviction).
    pub dropped_pkts: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Packets that received an ECN CE mark.
    pub marked_pkts: u64,
}

/// A queue discipline on a switch/host output port.
///
/// Implementations must be deterministic: identical sequences of calls must
/// produce identical outcomes.
///
/// Packets move in and out as `Box<Packet>`: a packet is boxed once when
/// a host injects it and stays in the same allocation through every
/// queue, in-flight slot and `Deliver` event until it is consumed, so
/// queue churn shuffles pointers instead of ~140-byte payloads.
pub trait Qdisc: Send {
    /// Offer `pkt` to the queue at time `now`.
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued;

    /// Remove the next packet to transmit, if any.
    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>>;

    /// Number of packets currently queued.
    fn len_pkts(&self) -> usize;

    /// Number of bytes currently queued.
    fn len_bytes(&self) -> u64;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len_pkts() == 0
    }

    /// Visit every queued packet, in an unspecified but deterministic
    /// order. Used by accounting walks that must count in-network packets
    /// independently of the queue's own counters (e.g. the
    /// [`crate::invariants`] conservation check).
    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet));

    /// Cumulative counters.
    fn stats(&self) -> QdiscStats;
}

/// A boxed constructor for a queue discipline, used by topology builders so
/// one configuration can stamp out a fresh qdisc per port.
pub type QdiscFactory = Box<dyn Fn() -> Box<dyn Qdisc> + Send + Sync>;

/// Convenience: build a [`QdiscFactory`] from a closure.
pub fn factory<F, Q>(f: F) -> QdiscFactory
where
    F: Fn() -> Q + Send + Sync + 'static,
    Q: Qdisc + 'static,
{
    Box::new(move || Box::new(f()))
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::ids::{FlowId, NodeId};

    /// A data packet with a given flow id, priority band and rank.
    pub fn pkt(flow: u64, prio: u8, rank: u64) -> Box<Packet> {
        let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, 1460);
        p.prio = prio;
        p.rank = rank;
        Box::new(p)
    }

    /// A header-only, non-ECN-capable packet (like an ACK).
    pub fn ack_pkt(flow: u64) -> Box<Packet> {
        Box::new(Packet::ack(FlowId(flow), NodeId(1), NodeId(0), 0))
    }
}

//! Strict-priority scheduling over a small number of bands.
//!
//! Models the PRIO + per-class RED/ECN configuration PASE uses on commodity
//! switches (paper §3.3): packets are classified into one of `n` bands by
//! their `prio` field (0 = highest); dequeue always serves the lowest
//! non-empty band index; each band is an independent [`RedEcnQdisc`] with
//! its own capacity and marking threshold.
//!
//! Preemption between bands is what gives PASE its seamless flow switching:
//! as soon as the top band drains, the next band's head packet is eligible
//! on the very next transmission opportunity — no control-plane round trip.

use super::{Enqueued, Qdisc, QdiscStats, RedEcnQdisc};
use crate::packet::Packet;
use crate::time::SimTime;

/// Strict-priority qdisc with per-band RED/ECN.
#[derive(Debug)]
pub struct StrictPrioQdisc {
    bands: Vec<RedEcnQdisc>,
}

impl StrictPrioQdisc {
    /// Create `n_bands` bands, each holding up to `band_cap_pkts` packets
    /// and marking at `mark_thresh` packets.
    ///
    /// Commodity switches expose 3–10 such queues per port (paper Table 2);
    /// the paper's PASE configuration uses 8 bands and a 500-packet buffer.
    pub fn new(n_bands: usize, band_cap_pkts: usize, mark_thresh: usize) -> Self {
        assert!(n_bands > 0, "need at least one band");
        assert!(n_bands <= 64, "unreasonable number of priority bands");
        StrictPrioQdisc {
            bands: (0..n_bands)
                .map(|_| RedEcnQdisc::new(band_cap_pkts, mark_thresh))
                .collect(),
        }
    }

    /// Number of bands.
    pub fn n_bands(&self) -> usize {
        self.bands.len()
    }

    /// Occupancy of an individual band in packets.
    pub fn band_len_pkts(&self, band: usize) -> usize {
        self.bands[band].len_pkts()
    }

    /// Clamp a packet's priority to a valid band index.
    fn band_of(&self, pkt: &Packet) -> usize {
        (pkt.prio as usize).min(self.bands.len() - 1)
    }
}

impl Qdisc for StrictPrioQdisc {
    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> Enqueued {
        let band = self.band_of(&pkt);
        self.bands[band].enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        for band in &mut self.bands {
            if !band.is_empty() {
                return band.dequeue(now);
            }
        }
        None
    }

    fn len_pkts(&self) -> usize {
        self.bands.iter().map(|b| b.len_pkts()).sum()
    }

    fn len_bytes(&self) -> u64 {
        self.bands.iter().map(|b| b.len_bytes()).sum()
    }

    fn for_each_queued(&self, f: &mut dyn FnMut(&Packet)) {
        for b in &self.bands {
            b.for_each_queued(f);
        }
    }

    fn stats(&self) -> QdiscStats {
        let mut total = QdiscStats::default();
        for b in &self.bands {
            let s = b.stats();
            total.enqueued_pkts += s.enqueued_pkts;
            total.enqueued_bytes += s.enqueued_bytes;
            total.dropped_pkts += s.dropped_pkts;
            total.dropped_bytes += s.dropped_bytes;
            total.marked_pkts += s.marked_pkts;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::pkt;
    use super::*;

    #[test]
    fn higher_band_preempts() {
        let mut q = StrictPrioQdisc::new(4, 100, 100);
        q.enqueue(pkt(0, 3, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 1, 0), SimTime::ZERO);
        q.enqueue(pkt(2, 2, 0), SimTime::ZERO);
        q.enqueue(pkt(3, 1, 0), SimTime::ZERO);
        let order: Vec<u64> = (0..4)
            .map(|_| q.dequeue(SimTime::ZERO).unwrap().flow.0)
            .collect();
        // Band 1 FIFO first (flows 1 then 3), then band 2, then band 3.
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn out_of_range_priority_clamps_to_lowest_band() {
        let mut q = StrictPrioQdisc::new(2, 100, 100);
        q.enqueue(pkt(0, 200, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, 1);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().flow.0, 0);
    }

    #[test]
    fn per_band_marking_is_independent() {
        // K = 1: second packet in the same band gets marked, but the first
        // packet of a different band does not.
        let mut q = StrictPrioQdisc::new(2, 100, 1);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO); // band 0, occ 0 -> unmarked
        q.enqueue(pkt(1, 0, 0), SimTime::ZERO); // band 0, occ 1 -> marked
        q.enqueue(pkt(2, 1, 0), SimTime::ZERO); // band 1, occ 0 -> unmarked
        assert!(!q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert!(q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert!(!q.dequeue(SimTime::ZERO).unwrap().ecn_ce);
        assert_eq!(q.stats().marked_pkts, 1);
    }

    #[test]
    fn band_overflow_drops_only_that_band() {
        let mut q = StrictPrioQdisc::new(2, 1, 1);
        // No band reserves packet storage up front (PASE ports build
        // eight 500-packet bands each).
        assert!(q.bands.iter().all(|b| b.reserved_slots() == 0));
        assert!(matches!(
            q.enqueue(pkt(0, 0, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert!(matches!(
            q.enqueue(pkt(1, 0, 0), SimTime::ZERO),
            Enqueued::RejectedArrival(_)
        ));
        assert!(matches!(
            q.enqueue(pkt(2, 1, 0), SimTime::ZERO),
            Enqueued::Ok
        ));
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.stats().dropped_pkts, 1);
    }

    #[test]
    fn aggregate_accounting() {
        let mut q = StrictPrioQdisc::new(3, 10, 10);
        q.enqueue(pkt(0, 0, 0), SimTime::ZERO);
        q.enqueue(pkt(1, 2, 0), SimTime::ZERO);
        assert_eq!(q.len_pkts(), 2);
        assert_eq!(q.len_bytes(), 3000);
        assert_eq!(q.band_len_pkts(0), 1);
        assert_eq!(q.band_len_pkts(1), 0);
        assert_eq!(q.band_len_pkts(2), 1);
    }
}

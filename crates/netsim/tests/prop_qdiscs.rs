//! Randomized tests for the queue disciplines: conservation, bounds and
//! ordering invariants under arbitrary operation sequences. Sequences are
//! generated from the crate's own seeded [`Rng`] so the suite is
//! deterministic and dependency-free.

use netsim::ids::{FlowId, NodeId};
use netsim::packet::Packet;
use netsim::queue::{DropTailQdisc, Enqueued, Qdisc, RedEcnQdisc, StrictPrioQdisc};
use netsim::rng::Rng;
use netsim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Enqueue { flow: u64, prio: u8, len: u16 },
    Dequeue,
}

/// Random op sequence: ~2/3 enqueues, ~1/3 dequeues, up to 200 ops.
fn ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_index(200);
    (0..n)
        .map(|_| {
            if rng.gen_below(3) < 2 {
                Op::Enqueue {
                    flow: rng.gen_below(20),
                    prio: rng.gen_below(10) as u8,
                    len: rng.gen_range_inclusive(1, 1459) as u16,
                }
            } else {
                Op::Dequeue
            }
        })
        .collect()
}

fn mk_pkt(flow: u64, prio: u8, len: u16) -> Box<Packet> {
    let mut p = Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, len as u32);
    p.prio = prio;
    p.rank = flow * 1000;
    Box::new(p)
}

/// Run an op sequence, checking the universal qdisc invariants:
/// * packet and byte occupancy never go negative or exceed what entered;
/// * `len_pkts == 0` iff `len_bytes == 0`;
/// * conservation: enqueued = dequeued + dropped + still-queued.
fn check_invariants(mut q: Box<dyn Qdisc>, ops: Vec<Op>, cap: usize) {
    let now = SimTime::ZERO;
    let mut in_count = 0u64;
    let mut out_count = 0u64;
    let mut drop_count = 0u64;
    for op in ops {
        match op {
            Op::Enqueue { flow, prio, len } => match q.enqueue(mk_pkt(flow, prio, len), now) {
                Enqueued::Ok => in_count += 1,
                Enqueued::RejectedArrival(_) => drop_count += 1,
                Enqueued::Evicted(_) => {
                    in_count += 1;
                    drop_count += 1;
                }
            },
            Op::Dequeue => {
                if q.dequeue(now).is_some() {
                    out_count += 1;
                }
            }
        }
        assert!(q.len_pkts() <= cap * 16, "occupancy explosion");
        assert_eq!(q.len_pkts() == 0, q.len_bytes() == 0, "byte/pkt mismatch");
    }
    // Conservation.
    assert_eq!(
        in_count,
        out_count + q.len_pkts() as u64,
        "packets lost or duplicated inside the qdisc"
    );
    // Drain fully.
    let mut drained = 0u64;
    while q.dequeue(now).is_some() {
        drained += 1;
    }
    assert_eq!(drained, in_count - out_count);
    assert_eq!(q.len_bytes(), 0);
    let stats = q.stats();
    assert_eq!(stats.dropped_pkts, drop_count);
}

const CASES: u64 = 64;

#[test]
fn droptail_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x0d70 ^ seed);
        let cap = rng.gen_range_inclusive(1, 63) as usize;
        let ops = ops(&mut rng);
        check_invariants(Box::new(DropTailQdisc::new(cap)), ops, cap);
    }
}

#[test]
fn red_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4ed0 ^ seed);
        let cap = rng.gen_range_inclusive(1, 63) as usize;
        let ops = ops(&mut rng);
        check_invariants(Box::new(RedEcnQdisc::new(cap, cap / 2)), ops, cap);
    }
}

#[test]
fn strict_prio_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5710 ^ seed);
        let cap = rng.gen_range_inclusive(1, 31) as usize;
        let bands = rng.gen_range_inclusive(1, 9) as usize;
        let ops = ops(&mut rng);
        check_invariants(
            Box::new(StrictPrioQdisc::new(bands, cap, cap)),
            ops,
            cap * bands,
        );
    }
}

/// Strict priority: a dequeued packet never has a (strictly) higher band
/// available in the queue at dequeue time.
#[test]
fn strict_prio_always_serves_highest_band() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xba2d ^ seed);
        let mut q = StrictPrioQdisc::new(8, 64, 64);
        let now = SimTime::ZERO;
        for op in ops(&mut rng) {
            match op {
                Op::Enqueue { flow, prio, len } => {
                    let _ = q.enqueue(mk_pkt(flow, prio % 8, len), now);
                }
                Op::Dequeue => {
                    let before: Vec<usize> = (0..8).map(|b| q.band_len_pkts(b)).collect();
                    if let Some(pkt) = q.dequeue(now) {
                        let band = pkt.prio as usize;
                        for (b, &occ) in before.iter().enumerate().take(band) {
                            assert_eq!(
                                occ, 0,
                                "dequeued band {band} while band {b} had {occ} packets"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// RED marking threshold: CE only ever set when occupancy at arrival was
/// at least K, and never on non-ECN packets.
#[test]
fn red_marks_only_above_threshold() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4edc ^ seed);
        let k = rng.gen_index(16);
        let n_flows = rng.gen_range_inclusive(1, 79) as usize;
        let mut q = RedEcnQdisc::new(64, k);
        let now = SimTime::ZERO;
        let mut occupancy_at_arrival = std::collections::VecDeque::new();
        for _ in 0..n_flows {
            let f = rng.gen_below(9);
            occupancy_at_arrival.push_back(q.len_pkts());
            let _ = q.enqueue(mk_pkt(f, 0, 1000), now);
        }
        while let Some(p) = q.dequeue(now) {
            let occ = occupancy_at_arrival.pop_front().unwrap();
            assert_eq!(p.ecn_ce, occ >= k, "occupancy {occ} vs K {k}");
        }
    }
}

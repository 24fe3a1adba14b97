//! Fault injection: how PASE behaves on a lossy fabric.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```
//!
//! Degrades every host–ToR link with a seeded loss profile
//! ([`netsim::fault::DegradeProfile`] through [`FaultPlan::link_degrade`])
//! and compares PASE flows on a clean fabric against the same flows when
//! 1 in N packets (data, ACKs and control alike) dies on every hop. The
//! losses are drawn from a per-direction RNG, so each run replays
//! byte-identically. Demonstrates the two recovery paths of the paper's
//! transport: top-queue flows use ordinary retransmission timeouts while
//! lower-queue flows probe first (§3.2), so injected loss degrades FCTs
//! smoothly instead of stalling flows for 200 ms RTOs.

use std::sync::Arc;

use pase::{install, pase_qdisc, PaseConfig, PaseFactory};
use pase_repro::netsim::prelude::*;

fn run(drop_every: u32) -> (f64, u64, u64, u64) {
    let cfg = PaseConfig {
        base_rtt: SimDuration::from_micros(100),
        arb_refresh: SimDuration::from_micros(100),
        arb_expiry: SimDuration::from_micros(400),
        ..PaseConfig::default()
    };
    let mut b = TopologyBuilder::new();
    let tor = b.add_switch();
    let hosts = b.add_hosts(8);
    for &h in &hosts {
        b.connect(h, tor, Rate::from_gbps(1), SimDuration::from_micros(25));
    }
    let net = b.build(Arc::new(PaseFactory::new(cfg)), &|_| {
        Box::new(pase_qdisc(&cfg, 500, 20))
    });
    let mut sim = Simulation::new(net);
    install(&mut sim, cfg);
    // `drop_every = 0` leaves the fabric clean.
    if let Some(loss_ppm) = 1_000_000u32.checked_div(drop_every) {
        let lossy = DegradeProfile {
            seed: 7,
            loss_ppm,
            ..DegradeProfile::default()
        };
        let plan = hosts.iter().fold(FaultPlan::new(), |plan, &h| {
            plan.link_degrade(SimTime::ZERO, h, tor, lossy)
        });
        sim.inject_faults(&plan);
    }
    for i in 0..40u64 {
        let src = (i % 7) as usize;
        let dst = {
            let d = ((i + 3) % 8) as usize;
            if d == src {
                7
            } else {
                d
            }
        };
        sim.add_flow(FlowSpec::new(
            FlowId(i),
            hosts[src],
            hosts[dst],
            60_000 + (i % 5) * 30_000,
            SimTime::from_micros(i * 180),
        ));
    }
    let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(30)));
    assert_eq!(
        outcome,
        RunOutcome::MeasuredComplete,
        "all flows must finish"
    );
    let m = pase_repro::workloads::collect(&sim, outcome);
    (
        m.afct_ms,
        m.timeouts,
        m.retransmitted_bytes,
        sim.stats().data_pkts_dropped,
    )
}

fn main() {
    println!(
        "{:>14} {:>10} {:>9} {:>10} {:>8}",
        "loss per hop", "AFCT(ms)", "timeouts", "rtx(B)", "drops"
    );
    for (label, drop_every) in [
        ("none", 0u32),
        ("1/1000 pkts", 1000),
        ("1/200 pkts", 200),
        ("1/50 pkts", 50),
    ] {
        let (afct, timeouts, rtx, drops) = run(drop_every);
        println!("{label:>14} {afct:>10.3} {timeouts:>9} {rtx:>10} {drops:>8}");
    }
    println!("\nAll flows completed under every fault rate. Most injected losses");
    println!("are repaired by fast retransmit within a few RTTs; flows parked in");
    println!("low-priority queues fall back to probe-first timeout recovery, so");
    println!("AFCT degrades smoothly rather than by 200 ms RTO cliffs.");
}

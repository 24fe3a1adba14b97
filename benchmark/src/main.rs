//! One iteration of one benchmark workload, in a process of its own.
//!
//! Usage: `pase-benchmark --workload NAME --seed N [--traced]`
//!
//! Prints one JSON line with the host times of the set-up calls and the
//! run phase, the host time of a fixed reference kernel run after them
//! (see `reference.rs`), the simulated outcome (counts, sorted FCTs, a
//! digest) and the process's peak resident memory. With `--traced`, every layer
//! boundary is wrapped (see `layers.rs`) and the line also carries each
//! layer's call counts and self time. `run.py` repeats this process,
//! checks the outputs and turns the lines into the benchmark's metrics.

mod chaos_slice;
mod layers;
mod reference;
mod sims;

use std::fmt::Write as _;

use netsim::sim::RunOutcome;
use netsim::time::{Rate, SimDuration};
use workloads::{Pattern, Scenario, Scheme, SizeDist, TopologySpec};

use sims::{Outcome, Setup};

/// Flow sizes of both simulator workloads: uniform 2–198 KB.
const SIZES: SizeDist = SizeDist::UniformBytes {
    lo: 2_000,
    hi: 198_000,
};
/// Offered load of both simulator workloads.
const LOAD: f64 = 0.6;
/// Simulated-time backstop; a run that reaches it fails the check.
const BACKSTOP_S: u64 = 120;

/// `fattree-pase`: all-to-all on the k=16 fat-tree (1024 hosts), k³ flows.
fn fattree_pase() -> (Scheme, Scenario) {
    let k = 16;
    let scenario = Scenario {
        name: "fattree-pase",
        topo: TopologySpec::fat_tree(k),
        pattern: Pattern::AllToAll,
        sizes: SIZES,
        deadlines: None,
        n_background: 0,
        n_flows: k * k * k,
    };
    (Scheme::Pase, scenario)
}

/// `incast-dctcp`: every host sends to host 0 on the paper's three-tier
/// shape (4 racks × 8 hosts, 1/10 Gbps, 25 µs per hop).
fn incast_dctcp() -> (Scheme, Scenario) {
    let scenario = Scenario {
        name: "incast-dctcp",
        topo: TopologySpec::ThreeTier {
            hosts_per_rack: 8,
            racks: 4,
            access: Rate::from_gbps(1),
            fabric: Rate::from_gbps(10),
            link_delay: SimDuration::from_micros(25),
        },
        pattern: Pattern::Incast { server: 0 },
        sizes: SIZES,
        deadlines: None,
        n_background: 0,
        n_flows: 6_000,
    };
    (Scheme::Dctcp, scenario)
}

/// What one iteration measured.
#[derive(Default)]
struct Iteration {
    errors: Vec<String>,
    setup: Setup,
    collect_s: f64,
    /// Host seconds inside `Simulation::run`.
    run_s: f64,
    /// `VmHWM` after the simulation, in KiB.
    peak_rss_kib: u64,
    /// Host seconds of the reference kernel, run after the simulation
    /// (and after the peak memory is read).
    reference_s: f64,
    outcome: Outcome,
    layers: Option<layers::Snapshot>,
    chaos: Option<String>,
}

fn simulate(scheme: Scheme, scenario: &Scenario, seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let mut prep = sims::prepare(scheme, scenario, LOAD, seed, traced);
    layers::reset();
    let (run_s, outcome) = prep.run(BACKSTOP_S);
    if traced {
        it.layers = Some(layers::Snapshot::take());
    }
    if outcome != RunOutcome::MeasuredComplete {
        it.errors
            .push(format!("{} ended {outcome:?}", scenario.name));
    }
    let (out, collect_s) = prep.read_out(outcome, &mut it.errors);
    it.setup = prep.setup;
    it.collect_s = collect_s;
    it.run_s = run_s;
    it.outcome = out;
    it.peak_rss_kib = peak_rss_kib();
    it.reference_s = reference::kernel_seconds();
    if traced {
        it.chaos = Some(chaos_slice::run(scheme, seed, &mut it.errors));
    }
    it
}

/// `VmHWM` of this process in KiB (0 where `/proc` is unavailable).
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn render(workload: &str, seed: u64, traced: bool, it: &Iteration) -> String {
    let o = &it.outcome;
    let mut s = String::new();
    let errors: Vec<String> = it
        .errors
        .iter()
        .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, \
         \"errors\": [{}], \"build_sim_s\": {:e}, \"generate_flows_s\": {:e}, \
         \"add_flows_s\": {:e}, \"setup_s\": {:e}, \"collect_s\": {:e}, \
         \"run_s\": {:e}, \"reference_s\": {:e}, \"peak_rss_kib\": {}, ",
        errors.join(", "),
        it.setup.build_sim_s,
        it.setup.generate_flows_s,
        it.setup.add_flows_s,
        it.setup.total(),
        it.collect_s,
        it.run_s,
        it.reference_s,
        it.peak_rss_kib,
    );
    let _ = write!(
        s,
        "\"events\": {}, \"peak_pending\": {}, \"arena_allocated\": {}, \
         \"arena_recycled\": {}, \"arena_peak\": {}, \"attempted\": {}, \
         \"completed\": {}, \"aborted\": {}, \"incomplete\": {}, \
         \"ctrl_processed\": {:?}, \"ctrl_shed\": {}, \"arb_pruned\": {}, \
         \"arb_climbed\": {}, \"timeouts\": {}, \"retx_bytes\": {}, \
         \"queue_drops\": {}, \"ecn_marks\": {}, \"digest\": \"{:016x}\", ",
        o.events,
        o.peak_pending,
        o.arena_allocated,
        o.arena_recycled,
        o.arena_peak,
        o.attempted,
        o.fct_ns.len(),
        o.aborted,
        o.incomplete,
        o.ctrl_processed,
        o.ctrl_shed,
        o.arb_pruned,
        o.arb_climbed,
        o.timeouts,
        o.retx_bytes,
        o.queue_drops,
        o.ecn_marks,
        o.digest(),
    );
    let layers = it
        .layers
        .as_ref()
        .map_or("null".to_string(), |l| l.render());
    let chaos = it.chaos.as_deref().unwrap_or("null");
    let _ = write!(
        s,
        "\"layers\": {layers}, \"chaos\": {chaos}, \"fct_ns\": {:?}}}",
        o.fct_ns
    );
    s
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced) = (None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--traced" => traced = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        eprintln!("usage: pase-benchmark --workload NAME --seed N [--traced]");
        std::process::exit(2);
    };
    let it = match workload.as_str() {
        "fattree-pase" => {
            let (scheme, scenario) = fattree_pase();
            simulate(scheme, &scenario, seed, traced)
        }
        "incast-dctcp" => {
            let (scheme, scenario) = incast_dctcp();
            simulate(scheme, &scenario, seed, traced)
        }
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", render(&workload, seed, traced, &it));
}

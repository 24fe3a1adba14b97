//! Building, running and reading out one simulation, untraced or with
//! every layer boundary wrapped by [`crate::layers`].

use std::sync::Arc;
use std::time::Instant;

use netsim::ids::NodeId;
use netsim::node::Node;
use netsim::queue::{Qdisc, RedEcnQdisc};
use netsim::sim::{RunLimit, RunOutcome, Simulation};
use netsim::time::{Rate, SimTime};
use netsim::topology::{NodeKind, PortSpec};
use pase::{Level, PaseFactory, PaseHostService, PaseSwitchPlugin, TreeInfo};
use transport::FamilyFactory;
use workloads::{Scenario, Scheme, TopologySpec};

use crate::layers::{self, TimedFactory, TimedPlugin, TimedQdisc, TimedService};

/// Host seconds spent in each public set-up call.
#[derive(Default)]
pub struct Setup {
    /// `Scheme::build_sim`, or in a traced build `TopologySpec::build`
    /// plus `pase::install` and the re-installed wrappers.
    pub build_sim_s: f64,
    /// `Scenario::generate_flows`.
    pub generate_flows_s: f64,
    /// `Simulation::add_flows`.
    pub add_flows_s: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build_sim_s + self.generate_flows_s + self.add_flows_s
    }
}

/// Simulated outcome of a run. Everything here is a
/// deterministic function of the workload and seed.
#[derive(Default)]
pub struct Outcome {
    pub events: u64,
    pub peak_pending: u64,
    pub arena_allocated: u64,
    pub arena_recycled: u64,
    pub arena_peak: u64,
    /// Measured flows registered.
    pub attempted: u64,
    pub aborted: u64,
    pub incomplete: u64,
    /// FCTs in simulated nanoseconds of completed, non-aborted measured
    /// flows, sorted.
    pub fct_ns: Vec<u64>,
    /// Control messages processed, by tier of the processing node
    /// (host, tor, agg, core).
    pub ctrl_processed: [u64; 4],
    pub ctrl_shed: u64,
    pub arb_pruned: u64,
    pub arb_climbed: u64,
    pub timeouts: u64,
    pub retx_bytes: u64,
    pub queue_drops: u64,
    pub ecn_marks: u64,
}

impl Outcome {
    /// FNV-1a over every counter and the sorted FCTs: equal digests mean
    /// the same simulated result.
    pub fn digest(&self) -> u64 {
        let mut words = vec![
            self.events,
            self.peak_pending,
            self.arena_allocated,
            self.arena_recycled,
            self.arena_peak,
            self.attempted,
            self.aborted,
            self.incomplete,
            self.ctrl_shed,
            self.arb_pruned,
            self.arb_climbed,
            self.timeouts,
            self.retx_bytes,
            self.queue_drops,
            self.ecn_marks,
        ];
        words.extend(self.ctrl_processed);
        words.extend(&self.fct_ns);
        fnv1a(&words)
    }
}

pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// DCTCP marking threshold by link rate, as `Scheme::build_sim` sets it.
fn mark_thresh(rate: Rate) -> usize {
    if rate.as_bps() >= 10_000_000_000 {
        65
    } else {
        20
    }
}

/// `Scheme::build_sim` for DCTCP and PASE with every layer boundary
/// wrapped: the same factory, qdiscs, plugins and services, each inside
/// a timing decorator. The PASE service and plugins are re-installed
/// over the ones `pase::install` placed, so its timers stay as scheduled.
fn build_traced(scheme: Scheme, topo: &TopologySpec) -> (Simulation, Vec<NodeId>) {
    let wrap = |q: Box<dyn Qdisc>, spec: &PortSpec| -> Box<dyn Qdisc> {
        Box::new(TimedQdisc::new(q, spec.node, spec.node_is_host))
    };
    match scheme {
        Scheme::Dctcp => {
            let factory = TimedFactory::new(FamilyFactory::dctcp(), layers::TRANSPORT);
            let q = |spec: &PortSpec| {
                wrap(
                    Box::new(RedEcnQdisc::new(225, mark_thresh(spec.rate))),
                    spec,
                )
            };
            let (net, hosts) = topo.build(Arc::new(factory), &q);
            (Simulation::new(net), hosts)
        }
        Scheme::Pase => {
            let cfg = Scheme::pase_config_for(topo);
            let factory = TimedFactory::new(PaseFactory::new(cfg), layers::PASE_ENDPOINT);
            let q = |spec: &PortSpec| {
                wrap(
                    Box::new(pase::pase_qdisc(&cfg, 500, mark_thresh(spec.rate))),
                    spec,
                )
            };
            let (net, hosts) = topo.build(Arc::new(factory), &q);
            let mut sim = Simulation::new(net);
            let tree = pase::install(&mut sim, cfg);
            for h in sim.topo().hosts() {
                let rate = sim
                    .topo()
                    .link_rate(h, sim.topo().host_tor(h))
                    .expect("access link");
                let svc = PaseHostService::new(cfg, h, rate, Arc::clone(&tree));
                if let Node::Host(host) = sim.node_mut(h) {
                    host.set_service(Box::new(TimedService(Box::new(svc))));
                }
            }
            for sw in sim.topo().switches() {
                if let Node::Switch(s) = sim.node_mut(sw) {
                    if s.plugin_as::<PaseSwitchPlugin>().is_some() {
                        let plugin = PaseSwitchPlugin::new(cfg, sw, Arc::clone(&tree));
                        s.set_plugin(Box::new(TimedPlugin(Box::new(plugin))));
                    }
                }
            }
            (sim, hosts)
        }
        other => panic!("no traced build for {}", other.name()),
    }
}

/// Tier index (into [`layers::TIERS`]) of every node, by node index.
fn node_tiers(sim: &Simulation) -> Vec<u8> {
    let tree = TreeInfo::from_topology(sim.topo());
    (0..sim.topo().n_nodes())
        .map(|i| {
            let id = NodeId(i as u32);
            match sim.topo().kind(id) {
                NodeKind::Host => 0,
                NodeKind::Switch => match tree.level(id) {
                    Level::Tor => 1,
                    Level::Agg => 2,
                    Level::Core => 3,
                },
            }
        })
        .collect()
}

/// A built simulation with its flows registered, and what that cost.
pub struct Prepared {
    sim: Simulation,
    pub setup: Setup,
    tiers: Vec<u8>,
}

/// Build `scheme` on the scenario's topology, traced or not, then
/// generate and register the scenario's flows, timing each call.
pub fn prepare(
    scheme: Scheme,
    scenario: &Scenario,
    load: f64,
    seed: u64,
    traced: bool,
) -> Prepared {
    let t = Instant::now();
    let (mut sim, hosts) = if traced {
        build_traced(scheme, &scenario.topo)
    } else {
        scheme.build_sim(&scenario.topo)
    };
    let build_sim_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let flows = scenario.generate_flows(load, seed, &hosts);
    let generate_flows_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sim.add_flows(flows);
    let add_flows_s = t.elapsed().as_secs_f64();
    let tiers = node_tiers(&sim);
    if traced {
        layers::set_switch_tiers(tiers.clone());
    }
    Prepared {
        sim,
        setup: Setup {
            build_sim_s,
            generate_flows_s,
            add_flows_s,
        },
        tiers,
    }
}

impl Prepared {
    /// Run to completion of every measured flow (or the backstop).
    /// Returns the run's host seconds and its outcome.
    pub fn run(&mut self, backstop_s: u64) -> (f64, RunOutcome) {
        let t = Instant::now();
        let outcome = self
            .sim
            .run(RunLimit::until_measured_done(SimTime::from_secs(
                backstop_s,
            )));
        (t.elapsed().as_secs_f64(), outcome)
    }

    /// Read the simulated outcome. Also times `workloads::metrics::collect`
    /// and cross-checks it against the benchmark's own flow walk.
    pub fn read_out(&self, outcome: RunOutcome, errors: &mut Vec<String>) -> (Outcome, f64) {
        let sim = &self.sim;
        let stats = sim.stats();
        let t = Instant::now();
        let metrics = workloads::metrics::collect(sim, outcome);
        let collect_s = t.elapsed().as_secs_f64();

        let mut out = Outcome {
            events: stats.events_executed,
            peak_pending: sim.scheduler().peak_pending() as u64,
            arena_allocated: stats.arena.allocated,
            arena_recycled: stats.arena.recycled,
            arena_peak: stats.arena.peak_outstanding,
            ctrl_shed: stats.ctrl_msgs_shed,
            arb_pruned: stats.arb_pruned_by_node().map(|(_, n)| n).sum(),
            arb_climbed: stats.arb_climbed_by_node().map(|(_, n)| n).sum(),
            timeouts: metrics.timeouts,
            retx_bytes: metrics.retransmitted_bytes,
            ..Outcome::default()
        };
        for rec in stats.flows().filter(|r| r.spec.measured) {
            out.attempted += 1;
            if rec.aborted {
                out.aborted += 1;
            } else if let Some(fct) = rec.fct() {
                out.fct_ns.push(fct.as_nanos());
            } else {
                out.incomplete += 1;
            }
        }
        out.fct_ns.sort_unstable();
        for (node, n) in stats.ctrl_processed_by_node() {
            out.ctrl_processed[self.tiers[node.index()] as usize] += n;
        }
        if out.ctrl_processed.iter().sum::<u64>() != stats.ctrl_msgs_processed {
            errors.push("per-node control counts do not sum to the total".into());
        }
        for node in sim.nodes() {
            let ports = match node {
                Node::Host(h) => std::slice::from_ref(h.port()),
                Node::Switch(s) => s.ports(),
            };
            for p in ports {
                let q = p.qdisc_stats();
                out.queue_drops += q.dropped_pkts;
                out.ecn_marks += q.marked_pkts;
            }
        }
        if metrics.n_completed != out.fct_ns.len() || metrics.n_flows as u64 != out.attempted {
            errors.push(format!(
                "metrics::collect saw {}/{} completed/attempted, the flow walk {}/{}",
                metrics.n_completed,
                metrics.n_flows,
                out.fct_ns.len(),
                out.attempted
            ));
        }
        (out, collect_s)
    }
}

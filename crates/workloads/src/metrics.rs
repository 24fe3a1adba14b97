//! Experiment metrics: AFCT, tail FCT, CDFs, application throughput,
//! loss rate and control-plane overhead.

use netsim::sim::{RunOutcome, Simulation};

/// Metrics from one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Why the run stopped. [`RunOutcome::TimeLimit`] means the wall
    /// backstop fired with measured flows still in flight: the FCT
    /// population is truncated and sweeps must say so instead of
    /// silently averaging it (see [`crate::runner`]).
    pub outcome: RunOutcome,
    /// Measured flows that completed (excluding aborted ones).
    pub n_completed: usize,
    /// Measured flows registered.
    pub n_flows: usize,
    /// Sorted flow completion times, milliseconds (completed, non-aborted
    /// measured flows).
    pub fcts_ms: Vec<f64>,
    /// Average FCT (ms).
    pub afct_ms: f64,
    /// Median FCT (ms).
    pub median_ms: f64,
    /// 99th-percentile FCT (ms).
    pub p99_ms: f64,
    /// Fraction of deadline flows that met their deadline (`None` when the
    /// workload has no deadlines). The paper calls this *application
    /// throughput*.
    pub app_throughput: Option<f64>,
    /// Data-packet loss rate.
    pub loss_rate: f64,
    /// Control-plane packets put on the wire.
    pub ctrl_pkts: u64,
    /// Control-plane bytes put on the wire (per-scheme bandwidth
    /// accounting: zero for schemes with no control plane).
    pub ctrl_bytes: u64,
    /// Control packets per second of simulated time.
    pub ctrl_per_sec: f64,
    /// Control messages processed by arbitrators.
    pub ctrl_processed: u64,
    /// Control messages shed by overloaded arbitrators.
    pub ctrl_shed: u64,
    /// Total retransmission timeouts across measured flows.
    pub timeouts: u64,
    /// Total retransmitted bytes across measured flows.
    pub retransmitted_bytes: u64,
    /// Total probes sent.
    pub probes: u64,
    /// Simulated duration (s).
    pub sim_seconds: f64,
    /// Events executed (engine cost metric).
    pub events: u64,
    /// The busiest link's utilization over the run (switch ports only).
    pub max_link_utilization: f64,
}

/// Interpolated percentile (p in [0, 100]) of a sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p));
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Collect metrics from a finished run. `outcome` is what
/// [`Simulation::run`] returned for it; callers must pass it through
/// rather than assuming completion, so truncated runs stay visible.
pub fn collect(sim: &Simulation, outcome: RunOutcome) -> RunMetrics {
    let stats = sim.stats();
    let mut fcts_ms: Vec<f64> = Vec::new();
    let mut deadline_total = 0usize;
    let mut deadline_met = 0usize;
    let mut timeouts = 0u64;
    let mut retransmitted = 0u64;
    let mut probes = 0u64;
    let mut n_flows = 0usize;
    for rec in stats.flows() {
        if !rec.spec.measured {
            continue;
        }
        n_flows += 1;
        timeouts += rec.timeouts;
        retransmitted += rec.retransmitted_bytes;
        probes += rec.probes_sent;
        if let Some(met) = rec.met_deadline() {
            deadline_total += 1;
            if met {
                deadline_met += 1;
            }
        }
        if rec.aborted {
            continue;
        }
        if let Some(fct) = rec.fct() {
            fcts_ms.push(fct.as_millis_f64());
        }
    }
    fcts_ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN FCTs"));
    let n_completed = fcts_ms.len();
    let afct_ms = if n_completed == 0 {
        f64::NAN
    } else {
        fcts_ms.iter().sum::<f64>() / n_completed as f64
    };
    let sim_seconds = sim.now().as_secs_f64();
    let max_link_utilization = sim
        .nodes()
        .iter()
        .filter_map(|n| match n {
            netsim::node::Node::Switch(s) => Some(s),
            _ => None,
        })
        .flat_map(|s| s.ports().iter())
        .map(|p| p.utilization(sim.now()))
        .fold(0.0, f64::max);
    RunMetrics {
        outcome,
        n_completed,
        n_flows,
        afct_ms,
        median_ms: percentile(&fcts_ms, 50.0),
        p99_ms: percentile(&fcts_ms, 99.0),
        app_throughput: if deadline_total > 0 {
            Some(deadline_met as f64 / deadline_total as f64)
        } else {
            None
        },
        loss_rate: stats.data_loss_rate(),
        ctrl_pkts: stats.ctrl_pkts,
        ctrl_bytes: stats.ctrl_bytes,
        ctrl_per_sec: if sim_seconds > 0.0 {
            stats.ctrl_pkts as f64 / sim_seconds
        } else {
            0.0
        },
        ctrl_processed: stats.ctrl_msgs_processed,
        ctrl_shed: stats.ctrl_msgs_shed,
        timeouts,
        retransmitted_bytes: retransmitted,
        probes,
        sim_seconds,
        events: stats.events_executed,
        max_link_utilization,
        fcts_ms,
    }
}

/// An empirical CDF over FCTs: `(x_ms, fraction ≤ x)` points.
pub fn fct_cdf(metrics: &RunMetrics, points: usize) -> Vec<(f64, f64)> {
    let n = metrics.fcts_ms.len();
    if n == 0 {
        return vec![];
    }
    let points = points.max(2);
    (0..=points)
        .map(|i| {
            let frac = i as f64 / points as f64;
            let idx = ((frac * (n - 1) as f64).round() as usize).min(n - 1);
            (metrics.fcts_ms[idx], (idx + 1) as f64 / n as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!((percentile(&xs, 75.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 4.96).abs() < 1e-9);
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let m = RunMetrics {
            outcome: RunOutcome::MeasuredComplete,
            n_completed: 4,
            n_flows: 4,
            fcts_ms: vec![1.0, 2.0, 3.0, 10.0],
            afct_ms: 4.0,
            median_ms: 2.5,
            p99_ms: 9.8,
            app_throughput: None,
            loss_rate: 0.0,
            ctrl_pkts: 0,
            ctrl_bytes: 0,
            ctrl_per_sec: 0.0,
            ctrl_processed: 0,
            ctrl_shed: 0,
            timeouts: 0,
            retransmitted_bytes: 0,
            probes: 0,
            sim_seconds: 1.0,
            events: 0,
            max_link_utilization: 0.0,
        };
        let cdf = fct_cdf(&m, 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }
}

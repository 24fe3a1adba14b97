//! The chaos harness as a layer: `experiments::chaos::run_case` over
//! every fault class × {low, high} at the quick profile, for the
//! workload's scheme — the slice of the CI chaos smoke that scheme runs.
//! Traced runs time each case and require it to pass (invariants hold,
//! every flow completes or aborts attributably, the determinism replay
//! matches).

use std::fmt::Write as _;
use std::time::Instant;

use experiments::chaos::{run_case, FaultClass};
use netsim::chaos::ChaosIntensity;
use workloads::Scheme;

use crate::sims::fnv1a;

/// Run the slice with case seed `seed`; returns a JSON object and adds
/// any failed case to `errors`.
pub fn run(scheme: Scheme, seed: u64, errors: &mut Vec<String>) -> String {
    let mut case_s = Vec::new();
    let (mut events, mut aborted, mut shed) = (0u64, 0u64, 0u64);
    let mut hashes = Vec::new();
    for class in FaultClass::all() {
        let mut class_s = 0.0;
        for intensity in [ChaosIntensity::Low, ChaosIntensity::High] {
            let t = Instant::now();
            let r = run_case(scheme, intensity, class, seed, true);
            class_s += t.elapsed().as_secs_f64();
            if !r.passed() {
                errors.push(format!(
                    "chaos {} {intensity:?}/{} seed {seed} failed: {}",
                    scheme.name(),
                    class.name(),
                    r.violations.join("; ")
                ));
            }
            // run_case executes every case twice (the determinism replay).
            events += 2 * r.events;
            aborted += r.aborted_flows as u64;
            shed += r.ctrl_shed;
            hashes.extend([r.trace_hash, r.stats_hash]);
        }
        case_s.push(format!("\"{}\": {:e}", class.name(), class_s / 2.0));
    }
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"events\": {events}, \"aborted_flows\": {aborted}, \"ctrl_shed\": {shed}, \
         \"digest\": \"{:016x}\", \"case_s\": {{{}}}}}",
        fnv1a(&hashes),
        case_s.join(", ")
    );
    s
}

//! A fixed reference computation that times the machine, not the
//! simulator.
//!
//! On a shared host the same iteration's host time drifts by 10–25 %
//! over minutes (other tenants, clock changes), which no number of
//! repetitions inside a 45 s run averages away. Each iteration therefore
//! also times this kernel once its simulation is done and its peak
//! memory read, and `run.py` scales the iteration's host times by how
//! fast the kernel ran then and at the end of the iteration before (the
//! moments just after and just before the iteration). The kernel uses
//! only the standard library, so no change to the simulator can speed it
//! up or slow it down. It mixes the simulator's kinds of work: sorting
//! (branches, streaming memory), hash-map updates and lookups, and
//! random reads over a 25 MB table.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one run of the kernel takes.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..2 {
        let mut v: Vec<u64> = (0..1_000_000).map(|_| next()).collect();
        v.sort_unstable();
        let mut m: HashMap<u64, u64> = HashMap::new();
        for (i, k) in v.iter().enumerate().step_by(2) {
            *m.entry(k % 300_000).or_insert(0) += i as u64;
        }
        for k in v.iter().step_by(2) {
            acc = acc.wrapping_add(*m.get(&(k % 300_000)).unwrap_or(&1));
        }
        let table: Vec<[u64; 16]> = (0..200_000).map(|i| [i; 16]).collect();
        for _ in 0..400_000 {
            let row = &table[(next() % 200_000) as usize];
            acc = acc.wrapping_add(row[(acc % 16) as usize]);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

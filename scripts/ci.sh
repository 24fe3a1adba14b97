#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   scripts/ci.sh            # build + tests (+ fmt/clippy when installed)
#
# The build and the tests are mandatory; fmt/clippy run only where the
# components are installed so the gate works on minimal toolchains.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test (workspace) =="
cargo test --workspace -q

# Chaos smoke: 8 fixed seeds x {low,high} x {PASE,DCTCP} x
# {fabric,host,gray,overload} fault storms at the quick profile, checked
# by the global invariant oracle. The host class adds NIC flap trains
# and end-host crash/restart storms; the gray class adds degrade trains
# (stochastic loss, corruption, latency inflation) with health-aware
# rerouting on; the overload class adds control-plane storms (amplified
# arbitrator inbox charges plus flash-crowd flows) exercising the
# bounded-inbox shed path, with no host crashes so every flow must
# complete; every abort must be attributable to an injected fault.
# A failing seed prints the exact command line that replays just that
# case (all 128 cases run in well under a minute at one job).
# JOBS is pinned (default 2) rather than auto-detected so CI timing is
# reproducible across machines; results are byte-identical either way.
echo "== chaos smoke (8 seeds, fabric+host+gray+overload, quick, ${JOBS:-2} jobs) =="
./target/release/chaos --seeds 8 --faults all --quick --jobs "${JOBS:-2}"

# Scheduler-engine differential: the same 8-seed chaos slice under the
# binary-heap engine and the timing-wheel engine must produce identical
# per-case trace hashes and stats fingerprints — the wheel is a drop-in
# replacement for the heap, not approximately one. The per-case stderr
# lines (`--verbose`) carry both hashes, so a plain diff is the oracle.
echo "== scheduler differential (heap vs wheel, 8 seeds, quick) =="
difftmp="$(mktemp -d)"
trap 'rm -rf "$difftmp"' EXIT
NETSIM_SCHEDULER=heap ./target/release/chaos --seeds 8 --faults all --quick \
    --jobs "${JOBS:-2}" --verbose 2>&1 | grep '^chaos ' > "$difftmp/heap.txt"
NETSIM_SCHEDULER=wheel ./target/release/chaos --seeds 8 --faults all --quick \
    --jobs "${JOBS:-2}" --verbose 2>&1 | grep '^chaos ' > "$difftmp/wheel.txt"
if ! diff -u "$difftmp/heap.txt" "$difftmp/wheel.txt"; then
    echo "FAIL: heap and wheel engines diverged (trace/stats hashes above)" >&2
    exit 1
fi
echo "   $(wc -l < "$difftmp/heap.txt") cases byte-identical across engines"

# Behaviour golden: the same per-case lines (trace hash + stats
# fingerprint; the header line carries the job count and is left out)
# must match the committed baseline byte for byte, so a refactor that
# claims "no behaviour change" is held to it. Reuses the wheel run above
# at no extra cost. A change that moves behaviour on purpose re-baselines
# the file with
#   ./target/release/chaos --seeds 8 --faults all --quick --verbose 2>&1 \
#       | grep '^chaos ' | grep -v '^chaos sweep:' > results/chaos_quick_8seeds.txt
# and explains the diff in CHANGES.md.
echo "== behaviour golden (8 seeds, quick, vs results/chaos_quick_8seeds.txt) =="
if ! grep -v '^chaos sweep:' "$difftmp/wheel.txt" | diff -u results/chaos_quick_8seeds.txt -; then
    echo "FAIL: chaos per-case hashes moved from the committed golden (diff above)" >&2
    exit 1
fi
echo "   $(wc -l < results/chaos_quick_8seeds.txt) cases match the golden"

# Figure golden: every paper figure and extension table at quick scale
# (`run_all --quick` stdout, byte-identical at any job count) must match
# the committed baseline, so a change that moves a table — fault-free or
# faulted — shows it in its diff. Runs from the temp dir so nothing is
# written into the repo. A change that moves a table on purpose
# re-baselines the file with
#   (cd "$(mktemp -d)" && "$OLDPWD/target/release/run_all" --quick) \
#       > results/figs_quick.txt
# and explains every moved cell in CHANGES.md.
echo "== figure golden (run_all --quick, vs results/figs_quick.txt) =="
root="$PWD"
(cd "$difftmp" && "$root/target/release/run_all" --quick --jobs "${JOBS:-2}") > "$difftmp/figs_quick.txt"
if ! diff -u results/figs_quick.txt "$difftmp/figs_quick.txt"; then
    echo "FAIL: run_all --quick tables moved from the committed golden (diff above)" >&2
    exit 1
fi
echo "   $(wc -l < results/figs_quick.txt) lines match the golden"

# Bench smoke: two quick scenarios end-to-end (the env-selected engine
# and the pinned-wheel stress profile); asserts the harness still runs
# and emits a consistent report (throughput numbers are NOT checked here
# — CI machines are too noisy for perf gates; see scripts/bench.sh). The
# pinned job count is recorded in the emitted document's "jobs" field.
echo "== bench smoke (sched-storm + wheel-storm, quick) =="
./target/release/netsim-bench --quick --scenario sched-storm,wheel-storm \
    --jobs "${JOBS:-2}" >/dev/null

# Production-scale smoke: build the k=8 fat-tree (128 hosts) under PASE,
# audit the compact interval FIBs, run a 2k-flow incast slice twice with
# invariants (packet conservation included) under the dual-run
# byte-identical-trace discipline, and hold the process to a peak-RSS
# budget. Catches scale regressions (dense route tables, per-flow metric
# blowup) that the small-topology tests can't see.
echo "== scale smoke (k=8 fat-tree, 2k-flow incast, dual-run, ${JOBS:-2} jobs) =="
./target/release/scale_smoke --jobs "${JOBS:-2}"

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
else
    echo "== cargo fmt not installed; skipping =="
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy -D warnings =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== cargo clippy not installed; skipping =="
fi

echo "CI gate passed."

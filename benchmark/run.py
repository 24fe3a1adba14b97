#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload fattree-pase --seed 1 --seconds 20 --trace 0

Builds `benchmark/` (a cargo package of its own that links the
repository's crates by path) and then, for `--seconds` seconds, runs one
workload iteration per child process from the same seed. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced children and prints the per-layer
metrics. Every child's simulated output must be identical (the traced
ones included) and pass its correctness checks. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import stats  # noqa: E402

WORKLOADS = ("fattree-pase", "incast-dctcp")
# Children of each kind a run makes at least, however short --seconds is.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
CHILD_TIMEOUT_S = 150
TIERS = ("host", "tor", "agg", "core")
# Host times are reported as if the reference kernel (src/reference.rs)
# took this long: an iteration's time t becomes t * REFERENCE_S / k, where
# k is the mean kernel time at the end of this iteration and of the one
# before it. The constant only sets the scale: 0.4 s is about the kernel's
# median over ten minutes on the 2-vCPU Xeon host the benchmark was built
# on (it ranged from 0.19 to 0.56 s there over two hours).
REFERENCE_S = 0.4
CHAOS_CLASSES = ("fabric", "host", "gray", "overload")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the workload runner; returns its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed (exit {done.returncode})")
        return None
    return os.path.join(target, "release", "pase-benchmark")


def run_child(binary, workload, seed, traced):
    """One workload iteration in a fresh process: (result, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"iteration exceeded {CHILD_TIMEOUT_S} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"iteration exited {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError) as e:
        return None, f"unreadable iteration output: {e}"


def fct_summary(r):
    """FCT statistics of one result, in simulated milliseconds."""
    fct = r["fct_ns"]
    if not fct:
        raise ValueError("no completed flows")
    p50, _ = stats.nearest_rank(fct, 50.0)
    p, tail, beyond, n = stats.tail_percentile(fct)
    return {
        "mean": sum(fct) / len(fct) / 1e6,
        "p50": p50 / 1e6,
        "tail": tail / 1e6,
        "tail_label": f"p{p:g}: {beyond} of {n} samples beyond it",
    }


# Simulated outputs the passive-tracing check compares between runs.
SIMULATED = ("events", "attempted", "completed", "aborted", "incomplete",
             "ctrl_processed", "ctrl_shed", "arb_pruned", "arb_climbed",
             "queue_drops", "ecn_marks", "digest")


def check(untraced, traced):
    """Correctness of a run: a list of failures (empty = correct)."""
    failures = []
    every = untraced + traced
    for r in every:
        failures += r["errors"]
    ref = untraced[0]
    ref_fct = fct_summary(ref)
    for r in every[1:]:
        kind = "traced" if r["traced"] else "untraced"
        for key in SIMULATED:
            if r[key] != ref[key]:
                failures.append(f"{kind} iteration changed {key}: {r[key]} != {ref[key]}")
        fct = fct_summary(r)
        for key in ("mean", "p50", "tail"):
            if fct[key].hex() != ref_fct[key].hex():
                failures.append(f"{kind} iteration changed FCT {key}: {fct[key]!r} != {ref_fct[key]!r}")
    for r in traced[1:]:
        if r["chaos"]["digest"] != traced[0]["chaos"]["digest"]:
            failures.append("traced iteration changed the chaos case hashes")
    if ref["completed"] != ref["attempted"]:
        failures.append(f"{ref['completed']} of {ref['attempted']} measured flows completed")
    if ref["incomplete"]:
        failures.append(f"{ref['incomplete']} measured flows never finished")
    # Exact counts of the traced layers repeat between processes.
    for r in traced[1:]:
        a = {k: v[0] if isinstance(v, list) else v for k, v in r["layers"].items()}
        b = {k: v[0] if isinstance(v, list) else v for k, v in traced[0]["layers"].items()}
        if a != b:
            failures.append("traced layer counts differ between iterations")
    return failures


def spread_note(values):
    q1, q3 = stats.quartiles(values)
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}, spread {stats.spread(values):.3f}"


def scaled(r, key):
    """Host seconds `r[key]` at the reference machine speed."""
    return r[key] * REFERENCE_S / r["reference_around_s"]


def end_to_end(untraced):
    ref = untraced[0]
    fct = fct_summary(ref)
    flow_rates = [r["completed"] / scaled(r, "run_s") for r in untraced]
    setups = [scaled(r, "setup_s") for r in untraced]
    rss = [r["peak_rss_kib"] / 1024.0 for r in untraced]
    done = stats.ratio(ref["completed"], ref["attempted"])
    metrics = {
        "flows_per_s": (stats.median(flow_rates), "flows/s", spread_note(flow_rates)),
        "setup_s": (stats.median(setups), "s", spread_note(setups)),
        "peak_rss_mib": (stats.median(rss), "MiB", spread_note(rss)),
        "fct_mean_ms": (fct["mean"], "ms", f"simulated, {ref['completed']} completed flows"),
        "fct_p50_ms": (fct["p50"], "ms", "simulated"),
        "fct_p99_ms": (fct["tail"], "ms", f"simulated, {fct['tail_label']}"),
        "flows_completed_frac": (done["value"], "ratio",
                                 f"base {done['base']} measured flows, {ref['aborted']} aborted"),
    }
    return metrics


def per_layer(untraced, traced):
    ref = traced[0]
    layers = ref["layers"]

    def calls(*slots):
        return sum(layers[s][0] for s in slots)

    def speed(r):
        """Factor taking r's host times to the reference speed."""
        return REFERENCE_S / r["reference_around_s"]

    def ns_per_call(*slots):
        """Median over traced iterations of self time per call."""
        per = []
        for r in traced:
            n = sum(r["layers"][s][0] for s in slots)
            ns = sum(r["layers"][s][1] for s in slots)
            per.append(ns * speed(r) / n if n else 0.0)
        return stats.median(per)

    def wrapped_ns(r):
        return sum(v[1] for v in r["layers"].values() if isinstance(v, list))

    def med(key, rs):
        """Median over `rs` of host seconds `key`, at the reference speed."""
        return stats.median([scaled(r, key) for r in rs])

    enq = [f"netsim.queue.{t}.enqueue" for t in TIERS]
    deq = [f"netsim.queue.{t}.dequeue" for t in TIERS]
    plugin = ["pase.plugin.transit", "pase.plugin.ctrl", "pase.plugin.other"]
    flows = ref["attempted"]
    processed = sum(ref["ctrl_processed"])
    decisions = ref["arb_pruned"] + ref["arb_climbed"]
    offered = processed + ref["ctrl_shed"]
    untraced_run = med("run_s", untraced)
    traced_run = med("run_s", traced)

    m = {}

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    def put_ratio(name, part, base, base_name, unit="ratio"):
        put(name, stats.ratio(part, base)["value"], unit, f"base {base_name} = {base}")

    put("netsim.core.ns_per_event",
        stats.median([(r["run_s"] * 1e9 - wrapped_ns(r)) * speed(r) / r["events"] for r in traced]),
        "ns")
    put("netsim.events", ref["events"], "count")
    put_ratio("netsim.events_per_flow", ref["events"], flows, "workloads.measured_flows", "count")
    put("netsim.engine.peak_pending", ref["peak_pending"], "count")
    put("netsim.arena.peak_outstanding", ref["arena_peak"], "count")
    put_ratio("netsim.arena.recycled_frac", ref["arena_recycled"], ref["arena_allocated"],
              "netsim.arena.allocated")
    put("netsim.arena.allocated", ref["arena_allocated"], "count")
    put("netsim.queue.enqueue.calls", calls(*enq), "count")
    put("netsim.queue.enqueue.ns_per_call", ns_per_call(*enq), "ns")
    put("netsim.queue.dequeue.calls", calls(*deq), "count")
    put("netsim.queue.dequeue.ns_per_call", ns_per_call(*deq), "ns")
    put_ratio("netsim.queue.dequeue.hit_frac", layers["netsim.queue.dequeue.hits"], calls(*deq),
              "netsim.queue.dequeue.calls")
    for t, slot in zip(TIERS, enq):
        put(f"netsim.queue.{t}.enqueue.ns_per_call", ns_per_call(slot), "ns")
    put("netsim.queue.peak_depth_pkts", layers["netsim.queue.peak_depth_pkts"], "count")
    put("netsim.queue.drops", ref["queue_drops"], "count")
    put("netsim.queue.ecn_marks", ref["ecn_marks"], "count")
    put("transport.calls", calls("transport"), "count")
    put("transport.ns_per_call", ns_per_call("transport"), "ns")
    put_ratio("transport.timer_frac", layers["transport.timer_calls"], calls("transport"),
              "transport.calls")
    put("transport.timeouts", ref["timeouts"], "count")
    put("transport.retx_bytes", ref["retx_bytes"], "bytes")
    put("pase.endpoint.calls", calls("pase.endpoint"), "count")
    put("pase.endpoint.ns_per_call", ns_per_call("pase.endpoint"), "ns")
    put("pase.host_service.calls", calls("pase.host_service"), "count")
    put("pase.host_service.ns_per_call", ns_per_call("pase.host_service"), "ns")
    put("pase.plugin.transit_calls", calls("pase.plugin.transit"), "count")
    put("pase.plugin.ctrl_calls", calls("pase.plugin.ctrl"), "count")
    put("pase.plugin.ns_per_call", ns_per_call(*plugin), "ns")
    put("pase.ctrl_processed", processed, "count")
    for t, n in zip(TIERS, ref["ctrl_processed"]):
        put(f"pase.ctrl_processed.{t}", n, "count")
    put_ratio("pase.ctrl_per_flow", processed, flows, "workloads.measured_flows", "count")
    put_ratio("pase.arb_pruned_frac", ref["arb_pruned"], decisions, "pase.arb_decisions")
    put("pase.arb_decisions", decisions, "count")
    put_ratio("pase.ctrl_shed_frac", ref["ctrl_shed"], offered, "pase.ctrl_offered")
    put("pase.ctrl_offered", offered, "count")
    put("workloads.measured_flows", flows, "count")
    put("workloads.build_sim_s", med("build_sim_s", untraced), "s")
    put("workloads.generate_flows_s", med("generate_flows_s", untraced), "s")
    put("netsim.add_flows_s", med("add_flows_s", untraced), "s")
    put("workloads.collect_s", med("collect_s", untraced), "s")
    for c in CHAOS_CLASSES:
        put(f"experiments.chaos.case_s.{c}",
            stats.median([r["chaos"]["case_s"][c] * speed(r) for r in traced]), "s")
    for key in ("events", "aborted_flows", "ctrl_shed"):
        put(f"experiments.chaos.{key}", ref["chaos"][key], "count")
    put("trace.overhead_frac", traced_run / untraced_run - 1.0, "ratio", "base trace.untraced_run_s")
    put("trace.coverage_frac", stats.median([wrapped_ns(r) / (r["run_s"] * 1e9) for r in traced]),
        "ratio", "base trace.traced_run_s")
    put("trace.untraced_run_s", untraced_run, "s")
    put("trace.traced_run_s", traced_run, "s")
    put("host.reference_s", stats.median([r["reference_s"] for r in untraced]), "s")
    put("host.flows_per_s_raw", stats.median([r["completed"] / r["run_s"] for r in untraced]), "flows/s")
    put("host.setup_s_raw", stats.median([r["setup_s"] for r in untraced]), "s")
    return m


def declared_mismatch(metrics, section):
    """Failures when the metrics differ from BENCHMARK.json's `section`
    in names or units."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    except (OSError, ValueError, KeyError) as e:
        return [f"cannot read the declared metrics: {e}"]
    printed = {name: unit for name, (_, unit, _) in metrics.items()}
    if printed == declared:
        return []
    return [f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(printed.items()) ^ set(declared.items()))}"]


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main():
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # reaps the running iteration before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1

    results = {False: [], True: []}
    failures = []
    attempted = 0
    previous = None
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and attempted % 2 == 1
        attempted += 1
        r, err = run_child(binary, args.workload, args.seed, traced)
        if err:
            failures.append(err)
            break
        # The kernel ran at the end of this iteration and of the one
        # before: the machine's speed just after and just before it.
        r["reference_around_s"] = (r["reference_s"] + (previous or r)["reference_s"]) / 2
        previous = r
        results[traced].append(r)
        if r["errors"]:
            break
        enough = len(results[False]) >= (MIN_ITERATIONS if args.trace == 0 else MIN_TRACED_ITERATIONS)
        if args.trace == 1:
            enough = enough and len(results[True]) >= MIN_TRACED_ITERATIONS
        if enough and time.monotonic() - start >= args.seconds:
            break
    elapsed = time.monotonic() - start

    untraced, traced = results[False], results[True]
    if untraced and not failures:
        try:
            failures += check(untraced, traced)
        except ValueError as e:
            failures.append(str(e))
    metrics = {}
    if not failures:
        ref = untraced[0]
        if args.trace == 0:
            metrics = end_to_end(untraced)
        else:
            metrics = per_layer(untraced, traced)
        failures += declared_mismatch(metrics, "per_layer" if args.trace else "end_to_end")
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"{len(untraced)} untraced + {len(traced)} traced iterations in {elapsed:.1f} s, "
              f"one process at a time, one simulation thread each; nproc {os.cpu_count()}; "
              f"commit {commit()}")
        print(f"# digest {ref['digest']} over events ({ref['events']}), flow counts, "
              f"control and queue counters and {len(ref['fct_ns'])} sorted FCTs"
              + (f"; chaos case hashes {traced[0]['chaos']['digest']}" if traced else ""))
        for name, (value, unit, note) in metrics.items():
            print(f"{name:40s} {value:>16.6g} {unit:8s} {note}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    # An iteration fails when its process fails or reports an error; a
    # failed check across iterations counts as one more.
    failed = sum(1 for r in untraced + traced if r["errors"])
    if failures and not failed:
        failed = 1
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

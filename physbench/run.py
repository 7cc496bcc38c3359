#!/usr/bin/env python3
"""physbench: the physnet benchmark.

Run from the root of a physnet checkout:

    python3 physbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0
    python3 physbench/run.py --workload all          # every workload, named table

Builds physnet (Release) and the benchmark engine under .bench_build/,
runs one workload, checks its outputs, prints every metric by name with
its unit, and prints one JSON result object as the last line of standard
output. --trace 1 runs the traced layer census instead and reports the
per-layer metrics. See physbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_sweep", "campaign_replay", "serve_mixed")
BUILD_TIMEOUT_S = 850
# An engine run may take --seconds plus this much for set-up (fleet starts,
# warm-up, reference passes) and teardown before it counts as hung.
RUN_MARGIN_S = 140


def fail(msg, code=1):
    print(f"physbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---- statistics -------------------------------------------------------------


def tail(samples):
    """Highest percentile (capped at p99) with at least ten samples beyond
    it, as (value, level, n). Exact order statistics, no binning."""
    v = sorted(samples)
    n = len(v)
    if n < 11:
        return (float("nan"), 0.0, n)
    level = min(0.99, (n - 10) / n)
    return (v[math.ceil(level * n) - 1], level, n)


def median(samples):
    return statistics.median(samples) if samples else float("nan")


def mean(samples):
    return sum(samples) / len(samples) if samples else float("nan")


# ---- build ------------------------------------------------------------------


def run_logged(cmd, log, cwd):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                             timeout=BUILD_TIMEOUT_S)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail(f"build step failed: {' '.join(cmd)}")


def build(root, build_root):
    """Release build of physnet's libraries, physnet_serve and physnet_proxy,
    then the engine against them. Incremental after the first run."""
    os.makedirs(build_root, exist_ok=True)
    log = os.path.join(build_root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    phys = os.path.join(build_root, "physnet")
    drv = os.path.join(build_root, "engine")
    if not os.path.exists(os.path.join(phys, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", phys,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DPHYSNET_BUILD_TESTS=OFF", "-DPHYSNET_BUILD_BENCH=OFF",
                    "-DPHYSNET_BUILD_EXAMPLES=ON"], log, root)
    run_logged(["cmake", "--build", phys, "-j", jobs, "--target",
                "physnet_serve", "physnet_proxy", "pn_core", "pn_campaign",
                "pn_service"], log, root)
    if not os.path.exists(os.path.join(drv, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(HERE, "engine"), "-B", drv,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DPHYSNET_SOURCE_DIR={root}",
                    f"-DPHYSNET_BUILD_DIR={phys}"], log, root)
    run_logged(["cmake", "--build", drv, "-j", jobs], log, root)
    return os.path.join(drv, "physbench_engine"), os.path.join(phys, "tools")


# ---- running the engine -----------------------------------------------------


def run_engine(engine, bin_dir, root, run_dir, workload, seed, seconds, trace):
    """Runs the engine in its own process group; whatever happens, every
    process in that group (the engine and its fleet) is gone on return."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [engine, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--root={root}",
           f"--bin-dir={bin_dir}", f"--out-dir={run_dir}"]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        # The engine stops and reaps its own fleet on SIGINT; the group kill
        # is the backstop if it does not exit in time.
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=15)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        kill_group()
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGINT, signal.SIGTERM)}
    timeout = seconds + RUN_MARGIN_S
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        fail(f"{workload}: engine did not finish within {timeout:.0f} s")
    finally:
        kill_group()
        for s, h in old.items():
            signal.signal(s, h)
    if rc != 0:
        fail(f"{workload}: engine exited with {rc}")
    with open(os.path.join(run_dir, "raw.json")) as f:
        return json.load(f)


# ---- end-to-end metrics -----------------------------------------------------


def ladder_capacity(raw):
    """Highest ladder rate whose all-request p99 meets the limit with no
    failures and no growing backlog. Each rate gets a stress score: the
    larger of p99 / limit and backlog growth / (limit / 2), infinite on any
    failure; a rate passes at stress <= 1. The capacity is interpolated
    between the last passing rate and the first failing one on that score,
    so it is not quantised to ladder steps."""
    s, limit = raw["series"], raw["scalars"]["limit_ms"]
    steps = []
    for i, qps in enumerate(s["ladder.qps"]):
        key = f"ladder.{int(qps)}."
        lat = s.get(key + "all_ms", [])
        failed = s["ladder.failed"][i]
        q1, q4 = s.get(key + "q1_ms", []), s.get(key + "q4_ms", [])
        growth = median(q4) - median(q1) if q1 and q4 else 0.0
        p99 = tail(lat)[0]
        stress = math.inf if failed or not math.isfinite(p99) else \
            max(p99 / limit, growth / (limit / 2))
        steps.append((qps, p99, stress))
    if not steps:
        return float("nan"), steps
    if steps[0][2] > 1.0:
        qps, _, stress = steps[0]
        return qps / stress if math.isfinite(stress) else 0.0, steps
    k = 0
    while k + 1 < len(steps) and steps[k + 1][2] <= 1.0:
        k += 1
    qps, _, stress = steps[k]
    if k + 1 == len(steps):
        return qps, steps
    nqps, _, nstress = steps[k + 1]
    frac = (1.0 - stress) / (nstress - stress) if math.isfinite(nstress) else 0.0
    return qps + (nqps - qps) * frac, steps


def end_to_end(workload, raw):
    """The BENCHMARK.json metrics (same names on every workload) and the named
    metrics of this workload, each as (name, value, unit, note)."""
    s, c = raw["series"], raw["scalars"]
    attempted, failed = c.get("attempted", 0), c.get("failed", 0)
    fail_ratio = failed / attempted if attempted else 1.0
    p50 = median(s.get("op_ms", []))
    p99, level, n = tail(s.get("op_ms", []))
    setup = median(s.get("setup_s", []))
    rss = c.get("peak_rss_mb", float("nan"))
    named = []
    if workload == "serve_mixed":
        capacity, steps = ladder_capacity(raw)
        throughput = capacity
        for kind in ("hot", "cold"):
            lat = s.get(f"{kind}_ms", [])
            t = tail(lat)
            named += [(f"serve_{kind}_ms.p50", median(lat), "ms", f"n={len(lat)}"),
                      (f"serve_{kind}_ms.p99", t[0], "ms",
                       f"p{100 * t[1]:.2f} of n={t[2]}")]
        named.append(("serve_capacity_qps", capacity, "1/s",
                      "ladder qps:p99ms/stress " + " ".join(
                          f"{int(q)}:{p:.0f}/{st:.2f}" for q, p, st in steps)))
        named.append(("load.late_ms.p99", tail(s.get("late_ms", []))[0], "ms",
                      "validity check at the nominal rate"))
    elif workload == "cold_sweep":
        throughput = median(s.get("throughput_per_s", []))
        named += [("eval_ms.p50", p50, "ms", f"n={n}"),
                  ("eval_ms.p99", p99, "ms", f"p{100 * level:.2f} of n={n}"),
                  ("sweep_designs_per_s", throughput, "1/s",
                   f"jobs={int(c.get('jobs', 0))}, median of "
                   f"{len(s.get('throughput_per_s', []))} sweeps")]
    else:
        throughput = median(s.get("throughput_per_s", []))
        named += [("campaign_evals_per_s", throughput, "1/s",
                   f"median of {len(s.get('throughput_per_s', []))} replays"),
                  ("campaign_row_ms.p50", p50, "ms", f"n={n}"),
                  ("campaign_row_ms.p99", p99, "ms", f"p{100 * level:.2f} of n={n}")]
    named += [("fail_ratio", fail_ratio, "ratio", f"{int(failed)} of {int(attempted)}"),
              ("setup_s", setup, "s", f"median of {len(s.get('setup_s', []))} set-ups"),
              ("peak_rss_mb", rss, "MB",
               "fleet processes summed" if workload == "serve_mixed" else "engine")]
    metrics = {
        "latency_ms.p50": (p50, "ms"),
        "latency_ms.p99": (p99, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, named, int(attempted), int(failed)


def check_digests(raw, run_dir):
    """campaign_replay: the committed campaigns' trajectory CSVs at their
    committed seeds must match the committed digests."""
    with open(os.path.join(HERE, "campaign_digests.json")) as f:
        want = json.load(f)
    bad = []
    for name, digest in want.items():
        path = os.path.join(run_dir, name + ".csv")
        got = None
        if os.path.exists(path):
            with open(path, "rb") as f:
                got = hashlib.sha256(f.read()).hexdigest()
        if got != digest:
            bad.append(f"{name}.csv digest {got} != committed {digest}")
    return bad


# ---- per-layer metrics ------------------------------------------------------

LAYER_SPANS = {
    "topology.distance_warm_ms": "topology.distance_warm",
    "topology.path_stats_ms": "topology.path_stats",
    "topology.ecmp_ms": "topology.ecmp",
    "topology.bisection_ms": "topology.bisection",
    "topology.delta_ms": "topology.delta",
    "physical.floor_ms": "physical.floor",
    "physical.placement_ms": "physical.placement",
    "physical.cabling_ms": "physical.cabling",
    "physical.bundling_ms": "physical.bundling",
    "deploy.order_ms": "deploy.order",
    "deploy.simulate_ms": "deploy.simulate",
    "deploy.repair_ms": "deploy.repair",
    "deploy.scenario_apply_ms": "deploy.scenario_apply",
    "campaign.compile_ms": "campaign.compile",
    "service.parse_ms": "service.parse",
    "service.canon_key_ms": "service.canon_key",
    "twin.decode_ms": "twin.decode",
    "service.response_encode_ms": "service.response_encode",
}
# Spans that only group a request's or design's layer calls; their own self
# time is glue in the benchmark, not a layer.
ROOT_SPANS = {"core.evaluate", "service.request"}


def read_spans(path):
    """Self time (ms) of every span, by workload and name."""
    spans = []
    with open(path) as f:
        for line in f:
            wl, sid, parent, name, op, start, end = line.rstrip("\n").split("\t")
            spans.append((wl, int(sid), int(parent), name, int(end) - int(start)))
    child_ns = {}
    for wl, _sid, parent, _name, dur in spans:
        if parent >= 0:
            child_ns[(wl, parent)] = child_ns.get((wl, parent), 0) + dur
    selfs = {}
    for wl, sid, _parent, name, dur in spans:
        self_ms = (dur - child_ns.get((wl, sid), 0)) / 1e6
        selfs.setdefault(wl, {}).setdefault(name, []).append(self_ms)
    return selfs


def per_layer(raw, run_dir):
    s, c = raw["series"], raw["scalars"]
    selfs = read_spans(os.path.join(run_dir, "spans.tsv"))
    by_name = {}
    for wl in selfs.values():
        for name, v in wl.items():
            by_name.setdefault(name, []).extend(v)
    m = {}
    for metric, span in LAYER_SPANS.items():
        m[metric] = (mean(by_name.get(span, [])), "ms")
    m["service.cache_lookup_us"] = (1e3 * mean(by_name.get("service.cache_lookup", [])), "us")

    cold_calls = c.get("layer_calls.cold_sweep", 0)
    eval_calls = cold_calls + c.get("layer_calls.campaign_replay", 0)
    m["topology.bfs_rows"] = (c.get("topology.bfs_rows", 0) / max(1, cold_calls), "count")
    m["topology.delta_recompute_ratio"] = (c.get("topology.delta_recompute_ratio", 0.0), "ratio")
    m["physical.cabling_runs"] = (c.get("physical.cabling_runs", 0) / max(1, eval_calls), "count")
    m["deploy.tasks"] = (c.get("deploy.tasks", 0) / max(1, eval_calls), "count")

    def layer_total(wl):
        return sum(sum(v) for name, v in selfs.get(wl, {}).items()
                   if name not in ROOT_SPANS)

    m["core.eval_other_ms"] = ((c.get("cold_sweep.untraced_ms", 0) - layer_total("cold_sweep"))
                               / max(1, c.get("cold_sweep.evals", 0)), "ms")
    m["core.sweep_efficiency"] = (median(s.get("core.sweep_efficiency", [])), "ratio")
    m["proxy.hop_ms"] = (c.get("proxy.hop_ms", float("nan")), "ms")
    m["serve.cache_hit_ratio"] = (c.get("serve.cache_hit_ratio", float("nan")), "ratio")
    m["serve.queue_wait_ms.mean"] = (c.get("serve.queue_wait_ms.mean", float("nan")), "ms")
    m["serve.batch_size.mean"] = (c.get("serve.batch_size.mean", float("nan")), "count")
    m["serve.coalesced"] = (c.get("serve.coalesced", float("nan")), "count")
    m["serve.rejected"] = (c.get("serve.rejected", float("nan")), "count")
    m["load.late_ms.p99"] = (tail(s.get("late_ms", []))[0], "ms")

    # Reconciliation per workload, per evaluation (or local request): the
    # layers' summed self time, the traced wall time the layers do not
    # cover, and the traced-minus-untraced tracing overhead.
    for wl in WORKLOADS:
        n = max(1, c.get(f"{wl}.evals", 0))
        traced, untraced = c.get(f"{wl}.traced_ms", 0), c.get(f"{wl}.untraced_ms", 0)
        span = layer_total(wl)
        m[f"reconcile.{wl}.span_ms"] = (span / n, "ms")
        m[f"reconcile.{wl}.unattributed_ms"] = ((traced - span) / n, "ms")
        m[f"reconcile.{wl}.overhead_ms"] = ((traced - untraced) / n, "ms")
    # The served side: a cold request crosses the proxy (parse + key),
    # a worker (parse + key + lookup + decode + evaluate + encode) and the
    # hop; what the layers do not explain is queueing and transport.
    serve = selfs.get("serve_mixed", {})
    cold_path = (2 * (mean(serve.get("service.parse", [])) + mean(serve.get("service.canon_key", [])))
                 + mean(serve.get("service.cache_lookup", [])) + mean(serve.get("twin.decode", []))
                 + mean(serve.get("core.evaluate_design", []))
                 + mean(serve.get("service.response_encode", [])) + c.get("proxy.hop_ms", 0.0))
    m["reconcile.serve_mixed.served_cold_gap_ms"] = (mean(s.get("cold_ms", [])) - cold_path, "ms")
    return m


# ---- output -----------------------------------------------------------------


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) and math.isfinite(v) else str(v)


def run_one(args, root, engine, bin_dir, workload, build_root):
    run_dir = os.path.join(build_root, "run", workload + ("-traced" if args.trace else ""))
    raw = run_engine(engine, bin_dir, root, run_dir, workload, args.seed,
                     args.seconds, args.trace)
    problems = list(raw.get("mismatches", []))
    if not raw.get("correct", False) and not problems:
        problems.append("engine reported incorrect output")
    if args.trace:
        metrics = per_layer(raw, run_dir)
        named = [(k, v, u, "") for k, (v, u) in metrics.items()]
        c = raw["scalars"]
        attempted, failed = int(c.get("attempted", 0)), int(c.get("failed", 0))
    else:
        if workload == "campaign_replay":
            problems += check_digests(raw, run_dir)
        metrics, named, attempted, failed = end_to_end(workload, raw)
    print(f"== {workload}{' (traced census)' if args.trace else ''} seed={args.seed}")
    for name, value, unit, note in named:
        print(f"  {name:44s} {fmt(value):>14s} {unit:6s} {note}")
    for key, note in sorted(raw.get("notes", {}).items()):
        print(f"  note {key}: {note}")
    for p in problems:
        print(f"  MISMATCH: {p}")
    return metrics, not problems, max(1, attempted), failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", os.path.join("examples", "campaigns")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the root of a physnet checkout ({need} is missing)", 2)
    build_root = os.path.join(root, ".bench_build")
    engine, bin_dir = build(root, build_root)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace and args.workload == "all":
        workloads = ("cold_sweep",)  # the census already covers all three
    correct, attempted, failed, metrics = True, 0, 0, {}
    for wl in workloads:
        m, ok, a, f = run_one(args, root, engine, bin_dir, wl, build_root)
        correct &= ok
        attempted += a
        failed += f
        for name, (value, unit) in m.items():
            if not math.isfinite(value):
                print(f"  MISSING: {name} was not measured")
                correct = False
                value = -1.0
            key = name if len(workloads) == 1 else f"{wl}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

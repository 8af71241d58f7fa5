#!/usr/bin/env python3
"""Repository benchmark: build, run, check and report one workload.

    python3 perfbench/run.py --workload fig6_665|hier4096|scale100k \
        --seed N --seconds S --trace 0|1 [--write-reference]

Run from the repository root.  The script

1. builds ``libemcast`` and the ``perfbench`` driver in Release from
   ``src/`` into ``$CARGO_TARGET_DIR/perfbench`` (default
   ``.bench_build/perfbench``), leaving the repository's own build alone;
2. runs the workload's points for ``--seconds`` seconds (whole passes);
3. checks every point's outputs (invariants, repeat determinism across
   passes, cross-engine identity on ``hier4096``, and, wherever a point's
   seeds are the ones recorded in ``perfbench/reference.json``, the stored
   values bit for bit);
4. prints a ``result`` line with the build stamp and per-point detail,
   then, as the last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exit status: 0 when every check passed, 1 when a check failed (the
result is still printed), 2 on a usage or build error (nothing printed).
``--write-reference`` stores this run's outputs as the workload's
reference values instead of checking them (``--seed 11`` only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("fig6_665", "hier4096", "scale100k")
REFERENCE_SEED = 11
ENGINES = ("single", "sharded", "process", "sharded_churn")
# Fields that define a point's outputs: checked against the reference,
# across passes and (hier4096) across engines.
OUTPUTS = ("deliveries", "worst_case_delay", "delay_p50", "delay_p99",
           "mode_switches", "sample_hash")
FLOAT_OUTPUTS = ("worst_case_delay", "delay_p50", "delay_p99")
# The seeds a point's inputs derive from; a reference value applies to a
# point only when they match the ones it was recorded with.
INPUTS = ("seed", "topology_seed", "churn_seed")
# Per-run counters that must also repeat exactly from pass to pass.
COUNTERS = ("rounds", "messages", "messages_spilled", "churn_events")
CHILD_TIMEOUT_S = 170
SAMPLE_K = 64


class UsageError(Exception):
    """Bad arguments, missing sources or a failed build: no result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench")


def build():
    if not (ROOT / "src" / "experiments" / "multigroup_sim.hpp").is_file():
        raise UsageError(f"no emcast sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise UsageError("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"  # compiler temporaries stay inside the checkout
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            raise UsageError(f"build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def git_commit():
    """HEAD's commit, read from .git directly (no git process, which could
    search directories above the checkout); "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -------------------------------------------------------------------- run

def run_driver(binary, args, trace_file):
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if trace_file is not None:
        cmd += ["--trace-out", str(trace_file)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # Process-engine workers too
        proc.communicate()
        raise UsageError(f"driver exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise UsageError(f"driver exited with {proc.returncode}")
    lines = {"setup": [], "point": [], "pass": [], "run": []}
    for line in stdout.splitlines():
        kind, _, payload = line.partition(" ")
        if kind in lines:
            lines[kind].append(json.loads(payload))
    if len(lines["run"]) != 1 or not lines["pass"]:
        raise UsageError("driver printed no run summary")
    return lines["setup"], lines["point"], lines["pass"], lines["run"][0]


# ----------------------------------------------------------------- oracle

def float_bits(x):
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def outputs_of(point):
    """The point's outputs, floats as their exact bit patterns."""
    return {k: point[k + "_bits"] if k in FLOAT_OUTPUTS else point[k]
            for k in OUTPUTS}


def invariant_errors(p):
    errs = []
    if p["error"]:
        return [p["error"]]
    if p["deliveries"] <= 0:
        errs.append("zero deliveries")
    if p["delivery_ratio"] != 1.0:
        errs.append(f"delivery_ratio {p['delivery_ratio']} != 1")
    if not p["delay_p50"] <= p["delay_p99"] <= p["worst_case_delay"]:
        errs.append("delay_p50 <= delay_p99 <= worst_case_delay violated")
    if p["sample_size"] != min(SAMPLE_K, p["deliveries"]):
        errs.append(f"sample holds {p['sample_size']} records")
    # The benchmark's own overlay/partition must be the one the run built.
    if p["overlay_max_height_hops"] != p["max_height_hops"]:
        errs.append("overlay height differs from run_multigroup's")
    if p["engine"] != "single" and p["overlay_cross_edges"] != p["cross_edges"]:
        errs.append("partition cross edges differ from run_multigroup's")
    return errs


def check(points, workload, reference):
    """Marks every point record with its errors; returns the list of
    failure descriptions."""
    first = {}  # point id -> first pass's record
    for p in points:
        p["errors"] = invariant_errors(p)
        base = first.setdefault(p["point"], p)
        if base is not p and not p["errors"] and not base["errors"]:
            for k in OUTPUTS + COUNTERS:
                if p[k] != base[k]:
                    p["errors"].append(f"{k} differs from pass "
                                       f"{base['pass']} (repeat determinism)")
    if workload == "hier4096":
        # Single = Sharded = Process on the static-tree point.
        by_pass = {}
        for p in points:
            by_pass.setdefault(p["pass"], {})[p["engine"]] = p
        for engines in by_pass.values():
            single = engines.get("single")
            for name in ("sharded", "process"):
                other = engines.get(name)
                if single is None or other is None:
                    continue
                for k in OUTPUTS:
                    if other[k] != single[k]:
                        other["errors"].append(f"{k} differs from single")
    for p in points if reference is not None else ():
        want = reference.get(workload, {}).get(p["point"])
        if want is None:
            p["errors"].append("no reference value")
            continue
        # The reference holds for the inputs it was recorded from: every
        # point at the reference seed, and the points a workload pins to
        # those inputs at any seed.
        if all(want["inputs"][k] == p[k] for k in INPUTS):
            got = outputs_of(p)
            for k in OUTPUTS:
                expect = float_bits(want[k]) if k in FLOAT_OUTPUTS else want[k]
                if got[k] != expect:
                    p["errors"].append(f"{k} differs from reference "
                                       f"({p[k]} vs {want[k]})")
    return [f"pass {p['pass']} {p['point']}: {e}"
            for p in points for e in p["errors"]]


# ---------------------------------------------------------------- metrics

def median_over(passes, fn):
    return statistics.median(fn(n) for n in passes)


def setup_seconds(p):
    return p["topology_s"] + p["overlay_s"] + p["partition_s"]


def end_to_end(setups, points, passes, run):
    by_pass = {n["pass"]: [p for p in points if p["pass"] == n["pass"]]
               for n in passes}
    pass_ids = list(by_pass)
    # setup_s: per point, the median over the set-up-only repetitions and
    # the passes' own set-ups; summed over the workload's points.
    samples = {}
    for p in setups + points:
        samples.setdefault(p["point"], []).append(setup_seconds(p))

    def run_s(n, engine=None, key=lambda p: p["run_s"]):
        return sum(key(p) for p in by_pass[n]
                   if engine is None or p["engine"] == engine)

    def run_self(p):
        return p["run_s"] - p["overlay_s"] - p["partition_s"]

    def deliveries_per_s(n):
        return sum(p["deliveries"] for p in by_pass[n]) / run_s(n)

    wall = {n["pass"]: n["wall_s"] for n in passes}
    metrics = {
        "wall_s": (median_over(pass_ids, wall.get), "s"),
        "setup_s": (sum(statistics.median(v) for v in samples.values()),
                    "s"),
        "run_s": (median_over(pass_ids, run_s), "s"),
        "deliveries_per_s": (median_over(pass_ids, deliveries_per_s), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    # Per-engine split of run_s, and of run_multigroup's own time net of
    # its overlay rebuild: in the result line only, as each is zero on
    # the workloads without that engine.
    split = {}
    for e in ENGINES:
        split[f"run_s.{e}"] = median_over(pass_ids,
                                          lambda n, e=e: run_s(n, e))
        split[f"run_self_s.{e}"] = median_over(
            pass_ids, lambda n, e=e: run_s(n, e, run_self))
    return metrics, split


def load_spans(trace_file):
    """Layer spans from the Chrome trace-event file, keyed by pass."""
    events = json.loads(Path(trace_file).read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    spans = {}  # pass span id -> list of layer events
    for e in events:
        if e["name"] in ("pass", "point"):
            continue
        point_span = by_id[e["args"]["parent"]]
        spans.setdefault(point_span["args"]["parent"], []).append(e)
    return spans


def per_layer(points, passes, trace_file):
    """Per-layer metrics: layer times from the traced passes' spans (median
    over those passes), counters from run_multigroup's result.  Metrics in
    seconds are the ones every workload exercises; a layer only some
    workloads reach (partition, engines, transport) is reported as a share
    or ratio, zero where the workload does not reach it."""
    traced = [n["pass"] for n in passes if n["traced"]]
    untraced = [n["pass"] for n in passes if not n["traced"]]
    wall = {n["pass"]: n["wall_s"] for n in passes}
    spans = list(load_spans(trace_file).values())
    if len(spans) != len(traced):
        raise UsageError("trace file does not match the traced passes")
    engine_of = {p["point"]: p["engine"] for p in points}
    sample = [p for p in points if p["pass"] == traced[0]]
    multi = [p for p in sample if p["engine"] != "single"]

    def span_s(pass_spans, name, engine=None):
        return sum(e["dur"] for e in pass_spans if e["name"] == name and (
            engine is None or engine_of[e["args"]["point"]] == engine)) / 1e6

    def med(fn):
        return statistics.median(fn(s) for s in spans)

    def run_s(pass_spans, engine=None):
        return span_s(pass_spans, "experiments.run_multigroup", engine)

    def setup_s(pass_spans):
        return sum(span_s(pass_spans, name) for name in (
            "topology.build", "overlay.build", "overlay.partition"))

    def ratio_or_zero(a, b, fn):
        """fn(a, b) over per-pass run seconds of engines a and b (one
        point each, same scheme and load), or 0 without both engines."""
        have = {p["engine"] for p in sample}
        if a not in have or b not in have:
            return 0.0
        return med(lambda s: fn(run_s(s, a), run_s(s, b)))

    def total(key, pts=sample):
        return sum(p[key] for p in pts)

    msgs, rounds = total("messages"), total("rounds", multi)
    m = {
        "topology.build_s": (med(lambda s: span_s(s, "topology.build")), "s"),
        "topology.delay_provider_mb": (
            max(p["delay_provider_bytes"] for p in sample) / 2**20, "MB"),
        "overlay.build_s": (med(lambda s: span_s(s, "overlay.build")), "s"),
        "overlay.partition_share": (med(
            lambda s: span_s(s, "overlay.partition") / setup_s(s)), "ratio"),
        "overlay.cross_edge_frac": (
            statistics.mean(p["cross_edge_frac"] for p in multi)
            if multi else 0.0, "ratio"),
        "overlay.max_height_hops": (
            max(p["overlay_max_height_hops"] for p in sample), "hops"),
        # run_multigroup rebuilds the overlay (and partition) itself; the
        # benchmark's own builds of the same structures stand in for them.
        "experiments.run_self_s": (med(
            lambda s: run_s(s) - span_s(s, "overlay.build")
            - span_s(s, "overlay.partition")), "s"),
    }
    for e in ENGINES:
        m[f"experiments.run_share.{e}"] = (
            med(lambda s, e=e: run_s(s, e) / run_s(s)), "ratio")
    m.update({
        "experiments.bytes_per_host": (
            max(p["bytes_per_host"] for p in sample), "B"),
        "core.deliveries": (total("deliveries"), "count"),
        "core.mode_switches": (total("mode_switches"), "count"),
        "sim.rounds": (total("rounds"), "count"),
        "sim.messages": (msgs, "count"),
        "sim.messages_spilled": (total("messages_spilled"), "count"),
        "sim.spill_frac": (
            total("messages_spilled") / msgs if msgs else 0.0, "ratio"),
        "sim.deliveries_per_round": (
            total("deliveries", multi) / rounds if rounds else 0.0, "count"),
        # Simulated (not wall) time: the tightest conservative window.
        "sim.lookahead_ms": (
            min(p["lookahead_s"] for p in multi) * 1e3 if multi else 0.0,
            "sim_ms"),
        "sim.transport_overhead_frac": (ratio_or_zero(
            "process", "sharded", lambda a, b: (a - b) / b), "ratio"),
        "sim.parallel_speedup": (
            ratio_or_zero("single", "sharded", lambda a, b: a / b), "ratio"),
        "trace_overhead_s": (
            statistics.median(wall[n] for n in traced)
            - statistics.median(wall[n] for n in untraced), "s"),
    })
    return m


# ------------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    return args


def main(argv):
    args = parse_args(argv)
    t0 = time.monotonic()
    try:
        binary = build()
        build_s = time.monotonic() - t0
        trace_file = None
        if args.trace:
            trace_file = (build_dir() / "traces"
                          / f"{args.workload}-seed{args.seed}.json")
            trace_file.parent.mkdir(exist_ok=True)
        setups, points, passes, run = run_driver(binary, args, trace_file)
    except UsageError as e:
        log(str(e))
        return 2
    if run["build_type"] != "Release" or not run["ndebug"]:
        log(f"refusing to report from a {run['build_type']} build")
        return 2

    reference = None if args.write_reference else json.loads(
        REFERENCE.read_text())
    failures = check(points, args.workload, reference)
    attempted = len(points)
    failed = sum(1 for p in points if p["errors"])

    if args.write_reference:
        if failures:
            for f in failures:
                log(f)
            return 1
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[args.workload] = {
            p["point"]: {"inputs": {k: p[k] for k in INPUTS},
                         **{k: p[k] for k in OUTPUTS}}
            for p in points if p["pass"] == 0}
        REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True)
                             + "\n")
        log(f"wrote {len(stored[args.workload])} reference points for "
            f"{args.workload}")

    e2e, split = end_to_end(setups, points, passes, run)
    try:
        metrics = per_layer(points, passes, trace_file) if args.trace else e2e
    except (UsageError, KeyError, ValueError) as e:
        log(f"trace file unusable: {e}")
        return 2

    stamp = {k: run[k] for k in ("workload", "seed", "passes", "nproc",
                                 "hardware_concurrency", "build_type",
                                 "cxx_flags", "compiler", "peak_rss_mb",
                                 "cache_warm_s")}
    stamp.update({
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_s": round(build_s, 3),
        "error_rate": failed / attempted,
        "pass_wall_s": [n["wall_s"] for n in passes],
        "setup_samples": len(setups) + len(points),
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
        "metrics": {k: v for k, (v, _) in e2e.items()} | split,
        "points": {p["point"]: {k: p[k] for k in ("engine",) + INPUTS
                                + OUTPUTS} for p in points if p["pass"] == 0},
        "failures": failures,
    })
    print("result " + json.dumps(stamp, sort_keys=True))
    for f in failures:
        log(f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Sweep orchestrator: fan a multigroup parameter grid across processes.

Fans the cross product of ρ̄ (``--rho``), topology (``--topo``, a
``hosts[:routers]`` spec), regulation scheme (``--schemes``) and engine
(``--engines``) over worker processes, each running one point of the
grid through the worker command (``--runner``, by default the
``example_sweep_point`` binary) and parsing the single JSON object the
worker prints.

Every completed point is checkpointed to ``<out>/results/<point>.json``
via atomic rename, so a sweep killed at any moment — including mid-write
— resumes with ``orchestrate.py`` re-run on the same ``--out`` directory
and recomputes only the missing points.  The manifest
(``<out>/manifest.json``) pins the grid; resuming with a different grid
is refused rather than silently mixed.

When every point is done the results merge into

  ``<out>/merged.csv``         one row per point, plan order — byte-
                               deterministic for a given grid + results;
  ``<out>/merged_bench.json``  google-benchmark shaped (one iteration
                               entry per point, ``items_per_second`` =
                               deliveries per wall second), directly
                               consumable by ``bench_compare.py``.

Usage:
    orchestrate.py --out sweep_dir \\
        --rho 0.5,0.7,0.9 --topo 120,665:0 \\
        --schemes sigma-rho,adaptive --engines single,process \\
        [--shards 4] [--processes 2] [--jobs N] [--dry-run]

``--dry-run`` prints the deterministic plan (point ids + worker argv)
without running anything.  The multi-core re-record debt from the PR 3/4
snapshots is serviced by running this on a multi-core box: the grid that
regenerates those tables is one invocation per BENCH axis.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

MANIFEST_VERSION = 1

ENGINES = ("single", "sharded", "process")
SCHEMES = ("capacity-aware", "sigma-rho", "sigma-rho-lambda", "adaptive",
           "unregulated")


class OrchestrateError(Exception):
    """Unusable invocation (bad grid, mismatched resume)."""


def say(message, err=False):
    """Progress print that survives a closed pipe (``orchestrate | head``
    must not abort the sweep — checkpoints matter more than narration)."""
    try:
        print(message, file=sys.stderr if err else sys.stdout, flush=True)
    except OSError:
        pass


def _split_csv(text):
    return [t for t in (s.strip() for s in text.split(",")) if t]


def parse_topo(spec):
    """``hosts[:routers]`` -> (hosts, routers); routers defaults to 0 (the
    paper's fixed 19-router backbone)."""
    hosts, _, routers = spec.partition(":")
    try:
        h = int(hosts)
        r = int(routers) if routers else 0
    except ValueError:
        raise OrchestrateError(f"bad --topo entry {spec!r} "
                               "(expected hosts[:routers])")
    if h <= 0 or r < 0:
        raise OrchestrateError(f"bad --topo entry {spec!r}")
    return h, r


def build_grid(args):
    """Normalised grid dict — the manifest's identity for resume checks."""
    rhos = []
    for s in _split_csv(args.rho):
        try:
            rhos.append(float(s))
        except ValueError:
            raise OrchestrateError(f"bad --rho entry {s!r}")
    topos = [parse_topo(s) for s in _split_csv(args.topo)]
    schemes = _split_csv(args.schemes)
    engines = _split_csv(args.engines)
    for s in schemes:
        if s not in SCHEMES:
            raise OrchestrateError(
                f"unknown scheme {s!r} (choose from {', '.join(SCHEMES)})")
    for e in engines:
        if e not in ENGINES:
            raise OrchestrateError(
                f"unknown engine {e!r} (choose from {', '.join(ENGINES)})")
    if not (rhos and topos and schemes and engines):
        raise OrchestrateError("empty grid axis")
    return {
        "rho": rhos,
        "topo": [list(t) for t in topos],
        "schemes": schemes,
        "engines": engines,
        "shards": args.shards,
        "processes": args.processes,
        "seed": args.seed,
        "duration": args.duration,
        "warmup": args.warmup,
        "groups": args.groups,
    }


def point_id(rho, hosts, routers, scheme, engine):
    """Filesystem-safe, self-describing point name (also the CSV key)."""
    rho_part = f"{rho:g}".replace(".", "p")
    return f"u{rho_part}-h{hosts}r{routers}-{scheme}-{engine}"


def plan_points(grid):
    """The deterministic point list: product in rho > topo > scheme >
    engine nesting, axis values in the order given, duplicates dropped."""
    points = []
    seen = set()
    for rho in grid["rho"]:
        for hosts, routers in (tuple(t) for t in grid["topo"]):
            for scheme in grid["schemes"]:
                for engine in grid["engines"]:
                    pid = point_id(rho, hosts, routers, scheme, engine)
                    if pid in seen:
                        continue
                    seen.add(pid)
                    points.append({
                        "id": pid,
                        "rho": rho,
                        "hosts": hosts,
                        "routers": routers,
                        "scheme": scheme,
                        "engine": engine,
                    })
    return points


def worker_argv(runner, grid, point):
    argv = list(runner) + [
        "--utilization", f"{point['rho']:g}",
        "--hosts", str(point["hosts"]),
        "--routers", str(point["routers"]),
        "--scheme", point["scheme"],
        "--engine", point["engine"],
        "--seed", str(grid["seed"]),
        "--duration", f"{grid['duration']:g}",
        "--warmup", f"{grid['warmup']:g}",
        "--groups", str(grid["groups"]),
    ]
    if point["engine"] != "single":
        argv += ["--shards", str(grid["shards"])]
    if point["engine"] == "process":
        argv += ["--processes", str(grid["processes"])]
    return argv


def atomic_write_json(path, obj):
    """tmp-file + rename: a kill mid-write leaves a ``.tmp`` orphan, never
    a half-written checkpoint that a resume would trust."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def load_result(path):
    """The point's checkpoint, or None if absent/corrupt (recompute)."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    return obj if isinstance(obj, dict) else None


def load_or_create_manifest(out_dir, grid, runner):
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        try:
            with open(manifest_path) as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError):
            raise OrchestrateError(
                f"unreadable manifest {manifest_path}; move it aside to "
                "restart the sweep from scratch")
        if manifest.get("version") != MANIFEST_VERSION:
            raise OrchestrateError(
                f"manifest version {manifest.get('version')} != "
                f"{MANIFEST_VERSION}")
        if manifest.get("grid") != grid:
            raise OrchestrateError(
                "manifest grid differs from the requested grid — resuming "
                "would mix sweeps; use a fresh --out directory")
        if manifest.get("runner") != list(runner):
            raise OrchestrateError(
                "manifest runner differs from the requested --runner — "
                "resuming would mix results from different binaries; use a "
                "fresh --out directory")
        return manifest
    manifest = {
        "version": MANIFEST_VERSION,
        "grid": grid,
        "runner": list(runner),
        "completed": [],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results").mkdir(exist_ok=True)
    atomic_write_json(manifest_path, manifest)
    return manifest


def run_point(runner, grid, point, results_dir):
    """Run one worker, parse its JSON object, checkpoint it.  Returns an
    error string on failure (the point stays incomplete for the resume)."""
    argv = worker_argv(runner, grid, point)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
    except OSError as err:
        return f"{point['id']}: cannot exec {argv[0]}: {err}"
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        return (f"{point['id']}: worker exited {proc.returncode}"
                + (f" ({detail[-1]})" if detail else ""))
    # The worker's contract is one JSON object; take the last non-empty
    # line so stray diagnostics on stdout don't wedge the sweep.
    payload = None
    for line in reversed(proc.stdout.splitlines()):
        line = line.strip()
        if line:
            payload = line
            break
    if payload is None:
        return f"{point['id']}: worker printed no output"
    try:
        result = json.loads(payload)
    except json.JSONDecodeError as err:
        return f"{point['id']}: worker output is not JSON: {err}"
    if not isinstance(result, dict):
        return f"{point['id']}: worker output is not a JSON object"
    result["point"] = {k: point[k] for k in
                       ("id", "rho", "hosts", "routers", "scheme", "engine")}
    atomic_write_json(results_dir / f"{point['id']}.json", result)
    return None


def fmt_numeric(value):
    """Exact CSV cell for a worker metric: ints verbatim (``%g`` would
    round big counters to 6 significant digits), floats by shortest
    round-trip repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(value)


def merge(out_dir, grid, points):
    """Write merged.csv + merged_bench.json from the per-point checkpoints.

    Rows follow plan order and every float is re-emitted by json/repr, so
    the merged bytes are a pure function of grid + results: a resumed
    sweep and an uninterrupted one produce identical files.
    """
    results = []
    for point in points:
        result = load_result(out_dir / "results" / f"{point['id']}.json")
        if result is None:
            raise OrchestrateError(f"point {point['id']} has no usable "
                                   "result; re-run to compute it")
        results.append((point, result))

    header = ["point", "rho", "hosts", "routers", "scheme", "engine"]
    numeric_keys = sorted(
        {k for _, r in results
         for k, v in r.items() if isinstance(v, (int, float))}
        - set(header))
    csv_path = out_dir / "merged.csv"
    with open(csv_path, "w") as f:
        f.write(",".join(header + numeric_keys) + "\n")
        for point, result in results:
            row = [point["id"], f"{point['rho']:g}", str(point["hosts"]),
                   str(point["routers"]), point["scheme"], point["engine"]]
            for key in numeric_keys:
                value = result.get(key)
                row.append("" if value is None else fmt_numeric(value))
            f.write(",".join(row) + "\n")

    benchmarks = []
    for point, result in results:
        wall = result.get("wall_seconds")
        entry = {
            "name": bench_name(point),
            "run_name": bench_name(point),
            "run_type": "iteration",
            "iterations": 1,
            "time_unit": "ns",
        }
        if isinstance(wall, (int, float)) and wall > 0:
            entry["real_time"] = wall * 1e9
            deliveries = result.get("deliveries")
            if isinstance(deliveries, (int, float)):
                entry["items_per_second"] = deliveries / wall
        benchmarks.append(entry)
    atomic_write_json(out_dir / "merged_bench.json", {
        "context": {
            "orchestrate_grid": grid,
            "points": len(benchmarks),
        },
        "benchmarks": benchmarks,
    })
    return csv_path


def bench_name(point):
    """BM_Sweep/<scheme>/<engine>/u<rho%>/h<hosts> — slash-structured like
    every other bench family, so --tracked regexes compose."""
    return (f"BM_Sweep/{point['scheme']}/{point['engine']}"
            f"/u{round(point['rho'] * 100)}/h{point['hosts']}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True,
                        help="sweep directory (manifest + checkpoints)")
    parser.add_argument("--runner",
                        default="./build/example_sweep_point",
                        help="worker command; point flags are appended")
    parser.add_argument("--rho", default="0.5,0.7,0.9",
                        help="comma-separated utilisation (ρ̄) axis")
    parser.add_argument("--topo", default="120:0",
                        help="comma-separated hosts[:routers] axis "
                             "(routers 0 = the fixed Fig. 5 backbone)")
    parser.add_argument("--schemes", default="sigma-rho,adaptive",
                        help=f"comma-separated subset of {','.join(SCHEMES)}")
    parser.add_argument("--engines", default="single,process",
                        help=f"comma-separated subset of {','.join(ENGINES)}")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for sharded/process points")
    parser.add_argument("--processes", type=int, default=2,
                        help="worker processes for process points")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--warmup", type=float, default=0.5)
    parser.add_argument("--groups", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=max(os.cpu_count() or 1,
                                                        1),
                        help="concurrent worker processes")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the deterministic plan and exit")
    args = parser.parse_args(argv)

    try:
        grid = build_grid(args)
        runner = shlex.split(args.runner)
        if not runner:
            raise OrchestrateError("--runner is empty")
        points = plan_points(grid)

        if args.dry_run:
            print(f"plan: {len(points)} point(s)")
            for point in points:
                print(f"  {point['id']}: "
                      f"{' '.join(worker_argv(runner, grid, point))}")
            return 0

        out_dir = Path(args.out)
        manifest = load_or_create_manifest(out_dir, grid, runner)
        results_dir = out_dir / "results"

        # Completion is decided by the checkpoints themselves, not the
        # manifest's advisory list: a kill between checkpoint and manifest
        # write must not recompute (or worse, double-count) the point.
        pending = [p for p in points
                   if load_result(results_dir / f"{p['id']}.json") is None]
        done = len(points) - len(pending)
        if done:
            say(f"resume: {done}/{len(points)} point(s) already "
                "checkpointed")

        errors = []
        lock = threading.Lock()

        def run_and_record(point):
            err = run_point(runner, grid, point, results_dir)
            with lock:
                if err is None:
                    manifest["completed"] = sorted(
                        set(manifest["completed"]) | {point["id"]})
                    atomic_write_json(out_dir / "manifest.json", manifest)
                    say(f"done: {point['id']}")
                else:
                    errors.append(err)
                    say(f"FAIL: {err}", err=True)

        with concurrent.futures.ThreadPoolExecutor(
                max_workers=max(args.jobs, 1)) as pool:
            list(pool.map(run_and_record, pending))

        if errors:
            say(f"orchestrate: {len(errors)} point(s) failed; re-run the "
                "same command to retry just those", err=True)
            return 1

        csv_path = merge(out_dir, grid, points)
        say(f"merged {len(points)} point(s) -> {csv_path}")
        return 0
    except OrchestrateError as err:
        print(f"orchestrate: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

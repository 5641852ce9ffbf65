#!/usr/bin/env python3
"""Benchmark of gsc-operad: one workload, its metrics, its correctness gate.

    python3 perfbench/run.py --workload stretch|tables|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh child process,
one at a time, with its own temporary cache directory (passed via
``GSC_CACHE_DIR``, under ``.perfbench-work/``); inputs are generated here
from the seed and handed to the child.  Passes repeat until their timed
phases add up to about ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, including
the tracing overhead (traced minus untraced wall time).  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output is wrong, 2 when the run could not
start (for example when ``src/gsc`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 5

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cols_per_s": "cols/s",
    "rows_per_s": "rows/s",
}
STRETCH_SUMS = ("stream_s", "peel_s", "core_s", "merges", "deaths", "stash_rows",
                "peel_sweeps", "core_rows", "core_rank", "checkpoint_bytes")


class PassFailed(RuntimeError):
    pass


def stamp() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gsc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


class Runner:
    """Starts child processes, each with a fresh cache directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def new_cache(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.work)

    def spawn(self, kind, payload, trace=False, probe=False) -> dict:
        cache_dir = self.new_cache()
        fd, spec_path = tempfile.mkstemp(prefix="spec-", suffix=".json", dir=self.work)
        with os.fdopen(fd, "w") as fh:
            json.dump({"kind": kind, "payload": payload, "trace": trace, "probe": probe}, fh)
        out_path = spec_path[: -len(".json")] + ".out.json"
        env = dict(os.environ)
        env.update(PYTHONPATH=str(SRC), GSC_CACHE_DIR=cache_dir, PYTHONHASHSEED="0")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), spec_path, out_path, repr(started)],
                cwd=ROOT, env=env, stdout=2, timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{kind} pass ran past the time limit") from exc
        if proc.returncode != 0:
            raise PassFailed(f"{kind} pass exited with code {proc.returncode}")
        with open(out_path) as fh:
            out = json.load(fh)
        out["cache_dir"] = cache_dir
        out["elapsed_s"] = time.monotonic() - started
        return out

    def enough(self, walls, seconds) -> bool:
        """Stop at the whole number of passes (at least one) whose timed
        work comes nearest to --seconds, or when one more pass might not
        finish before the deadline."""
        return (
            sum(walls) + statistics.mean(walls) / 2 >= seconds
            or self.time_left() < 2 * max(walls) + 10
        )


median = statistics.median


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.metrics: dict = {}
        self.traces: list = []

    def add(self, checked):
        attempted, errors = checked
        self.attempted += attempted
        self.errors.extend(errors)


def stretch_layers(traced: dict, layers: dict) -> dict:
    calls = [c for c in traced["result"]["calls"] if "error" not in c]
    out = {f"stretch.{key}": float(sum(c.get(key, 0) for c in calls)) for key in STRETCH_SUMS}
    rank = sum(c["rank"] for c in calls)
    out["stretch.peel_yield"] = sum(c["peel_rank"] for c in calls) / rank if rank else 0.0
    out["stretch.stream_self_s"] = (
        out["stretch.stream_s"] - layers["relations.stream_gen_s"] - layers["tensor.rank_s"]
    )
    return out


def finish_layers(timed: dict, untraced_wall: float, stretch_of=None):
    layers = spans.layer_metrics(timed["trace"])
    if stretch_of is not None:
        layers.update(stretch_layers(stretch_of, layers))
    else:
        layers.update({f"stretch.{k}": 0.0 for k in STRETCH_SUMS + ("peel_yield", "stream_self_s")})
    layers["cache.bytes_written"] = timed["cache_bytes"]
    for layer, seconds in spans.self_times(timed["trace"]).items():
        layers[f"self.{layer}_s"] = seconds
    layers["trace.wall_s"] = timed["trace"]["wall_s"]
    layers["trace.overhead_s"] = timed["trace"]["wall_s"] - untraced_wall
    return {name: layers[name] for name in spans.PER_LAYER}


def run_passes(r: Runner, kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One child per pass, all inputs known up front."""
    import workloads

    inputs, check = {
        "tables": (workloads.tables_inputs, workloads.check_tables),
        "stretch": (workloads.stretch_inputs, workloads.check_stretch),
    }[kind]
    res = Outcome()

    def generate():
        t0 = time.monotonic()
        payload = inputs(seed)
        return payload, time.monotonic() - t0

    payload, gen_s = generate()

    def one(traced):
        out = r.spawn(kind, payload, trace=traced)
        res.add(check(payload, out["result"]))
        return out

    if trace:
        plain, traced = one(False), one(True)
        res.traces.append(traced["trace"])
        res.metrics = finish_layers(traced, plain["wall_s"], traced if kind == "stretch" else None)
        return res
    passes = [one(False)]
    while not r.enough([p["wall_s"] for p in passes], seconds):
        passes.append(one(False))
    setups = [gen_s + p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        payload_again, gen_again = generate()
        setups.append(gen_again + r.spawn(kind, payload_again, probe=True)["setup_s"])
    wall = median([p["wall_s"] for p in passes])
    if kind == "tables":
        cols, rows = payload["cols"], payload["rows"]
    else:
        cols = sum(c["cols"] for c in payload["calls"])
        rows = sum(c["rows"] for c in payload["calls"])
    res.metrics = {
        "wall_s": wall,
        "setup_s": median(setups),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "cols_per_s": cols / wall,
        "rows_per_s": rows / wall,
    }
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    r = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        return run_passes(r, name, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["stretch", "tables", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsc" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'gsc'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    names = ["stretch", "tables"] if args.workload == "all" else [args.workload]
    info = stamp()
    print("stamp " + json.dumps(info, sort_keys=True))
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except PassFailed as exc:
            res = Outcome()
            res.attempted, res.errors = 1, [str(exc)]
        fail = min(len(res.errors), res.attempted)
        attempted += res.attempted
        failed += fail
        for err in res.errors:
            print(f"FAIL {name}: {err}")
        print(f"{name}: {fail} of {res.attempted} items failed")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in res.metrics.items():
            unit = E2E_UNITS.get(key) or spans.PER_LAYER[key]
            print(f"  {key:34s} {value:>16.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        # printed, but not in the JSON result, whose metrics must be nonzero
        print(f"  {'fail_frac':34s} {fail / max(res.attempted, 1):>16.6g} ratio")
        if res.traces:
            dump = WORK / f"spans-{name}-seed{args.seed}.json"
            dump.write_text(json.dumps({"stamp": info, "traces": res.traces}))
            print(f"  spans written to {dump.relative_to(ROOT)}")
    summary = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

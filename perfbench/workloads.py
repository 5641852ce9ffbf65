"""The two workloads: inputs, pass bodies and correctness gates.

Each workload has three sides:

* ``inputs`` runs in the parent and builds everything a pass needs from
  the seed; the child process receives only those generated elements.
* ``run_*`` runs inside a fresh child process (see ``child.py``): it is
  the timed phase, and it returns the program's raw outputs.
* ``check_*`` runs in the parent and compares those outputs with values
  known independently of the code under test.  Every item checked counts
  in ``attempted``; a wrong value or an exception counts in ``failed``.

``tables`` and ``stretch`` are deterministic and ignore the seed.
"""

from __future__ import annotations

import math
import os
import pickle
import time

from gsc import quotient, stretch
from gsc.acceptance import reference_values
from gsc.fields import FieldSpec
from gsc.relations import block_row_count
from gsc.tensor import count_block_monomials, n_triangle_entries

STRETCH_PRIME = 1_000_003
# The arity-7, d = 3 block of the stretch workload: the open block's row
# generator on 15,015 columns and 150,260 raw rows.  Its dimension is 0,
# known independently: a letter count of 10 reaches the side length 6.
STRETCH_BIG = (6, (10, 4, 1), 0)
# The published arity-6 blocks and their dimensions (reference_values.json)
STRETCH_SMALL = ((5, (4, 4, 2)), (5, (4, 3, 3)))


def field_of(p):
    return FieldSpec.rational() if p is None else FieldSpec.prime(p)


def sorted_types(total: int, d: int) -> list[tuple[int, ...]]:
    """Descending multidegree representatives, largest first."""
    out = []

    def rec(prefix, remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(remaining, bound), -1, -1):
            rec(prefix + [v], remaining - v, slots - 1, v)

    rec([], total, d, total)
    return out


def multiplicity(k) -> int:
    """Number of distinct permutations of a multidegree."""
    out = math.factorial(len(k))
    for v in set(k):
        out //= math.factorial(k.count(v))
    return out


# ---------------------------------------------------------------------------
# tables: every sorted-type block for d = 2 and d = 3 at arities 1-6, over Q


def tables_inputs(seed: int) -> dict:
    blocks = []
    for d in (2, 3):
        for m in range(1, 7):
            n = m - 1
            for k in sorted_types(n_triangle_entries(n), d):
                blocks.append({"d": d, "arity": m, "n": n, "k": list(k)})
    work = [b for b in blocks if not quotient.block_pruned(b["n"], tuple(b["k"]))]
    return {
        "blocks": blocks,
        "cols": sum(count_block_monomials(b["n"], tuple(b["k"])) for b in work),
        "rows": sum(block_row_count(b["n"], tuple(b["k"]), b["d"]) for b in work),
    }


def run_tables(payload: dict, tracer=None) -> dict:
    field = FieldSpec.rational()
    cfg = quotient.QuotientConfig()
    out = []
    for i, b in enumerate(payload["blocks"]):
        if tracer is not None:
            tracer.item = i
        try:
            rep = quotient.block_dimension(b["n"], tuple(b["k"]), b["d"], field, 3, cfg)
            out.append({"dim": rep.dimension, "certified": rep.certified})
        except Exception as exc:  # counted as a failed item by the gate
            out.append({"error": repr(exc)})
    return {"blocks": out}


def check_tables(payload: dict, result: dict, ref: dict | None = None) -> tuple[int, list[str]]:
    ref = ref or reference_values()
    errors = []
    dims = {}
    for b, got in zip(payload["blocks"], result["blocks"]):
        if "error" in got:
            errors.append(f"block d={b['d']} n={b['n']} k={b['k']}: {got['error']}")
        else:
            dims[(b["d"], b["n"], tuple(b["k"]))] = got["dim"]
    attempted = len(payload["blocks"])
    totals: dict = {}
    parts: dict = {}
    for b in payload["blocks"]:
        key = (b["d"], b["n"], tuple(b["k"]))
        if key in dims:
            part = dims[key] * multiplicity(b["k"])
            totals[(b["d"], b["arity"])] = totals.get((b["d"], b["arity"]), 0) + part
            if part:
                parts.setdefault((b["d"], b["arity"]), []).append(part)
    for d in ("2", "3"):
        spec = ref["totals"][d]
        for m, want in zip(spec["arities"], spec["dims"]):
            attempted += 1
            got = totals.get((int(d), m))
            if got != want:
                errors.append(f"total d={d} arity {m}: expected {want}, got {got}")
    for m, want in ref["breakdowns"]["3"].items():
        attempted += 1
        got = parts.get((3, int(m)), [])
        if got != want:
            errors.append(f"breakdown d=3 arity {m}: expected {want}, got {got}")
    for d, entries in ref["blocks"].items():
        for e in entries:
            attempted += 1
            got = dims.get((int(d), e["n"], tuple(e["k"])))
            if got != e["dim"]:
                errors.append(f"block d={d} n={e['n']} k={e['k']}: expected {e['dim']}, got {got}")
    return attempted, errors


# ---------------------------------------------------------------------------
# stretch: streaming union-find rank on one arity-7 block and the two
# published arity-6 blocks, over GF(p) and Q


def stretch_inputs(seed: int) -> dict:
    ref = {(e["n"], tuple(e["k"])): e["dim"] for e in reference_values()["blocks"]["3"]}
    calls = []
    for n, k in STRETCH_SMALL:
        for p in (STRETCH_PRIME, None):
            calls.append({"n": n, "k": list(k), "p": p, "dim": ref[(n, k)]})
    n, k, dim = STRETCH_BIG
    calls.append({"n": n, "k": list(k), "p": STRETCH_PRIME, "dim": dim})
    for c in calls:
        c["cols"] = count_block_monomials(c["n"], tuple(c["k"]))
        c["rows"] = block_row_count(c["n"], tuple(c["k"]), 3)
    return {"calls": calls}


def _checkpoints(cache_dir: str) -> dict:
    root = os.path.join(cache_dir, "stretch")
    if not os.path.isdir(root):
        return {}
    return {f: os.path.getsize(os.path.join(root, f)) for f in os.listdir(root)}


def run_stretch(payload: dict, tracer=None) -> dict:
    cache_dir = os.environ["GSC_CACHE_DIR"]
    out = []
    for i, c in enumerate(payload["calls"]):
        block = stretch.StretchBlock(c["n"], tuple(c["k"]), 3)
        events: list = []
        progress = None
        if tracer is not None:
            tracer.item = i
            progress = lambda msg: events.append((time.perf_counter(), msg))  # noqa: E731
        before = _checkpoints(cache_dir)
        t0 = time.perf_counter()
        try:
            rep = stretch.stretch_rank(field_of(c["p"]), block=block, progress=progress)
        except Exception as exc:  # counted as a failed item by the gate
            out.append({"error": repr(exc)})
            continue
        t1 = time.perf_counter()
        got = {
            "rank": rep.rank,
            "dim": rep.dimension,
            "finished": rep.finished,
            "peel_rank": rep.peel_rank,
            "core_rows": rep.core_rows,
            "core_rank": rep.core_rank,
        }
        if tracer is not None:
            got.update(_stretch_phases(events, t0, t1, cache_dir, before))
        out.append(got)
    return {"calls": out}


def _stretch_phases(events, t0, t1, cache_dir, before) -> dict:
    """Phase times from progress timestamps; counters from the checkpoint."""
    stream_end = next(t for t, msg in events if msg.startswith("stream done"))
    stash = int(next(msg for _, msg in events if msg.startswith("stream done")).rsplit(" ", 1)[1])
    sweeps = [t for t, msg in events if msg.startswith("peel sweep")]
    peel_end = sweeps[-1] if sweeps else stream_end
    new = {f: size for f, size in _checkpoints(cache_dir).items() if f not in before}
    merges = deaths = 0
    for f in new:
        # the checkpoint was written by this pass, into its own directory
        with open(os.path.join(cache_dir, "stretch", f), "rb") as fh:
            state = pickle.load(fh)
        merges += state.merges
        deaths += state.deaths
    return {
        "stream_s": stream_end - t0,
        "peel_s": peel_end - stream_end,
        "core_s": t1 - peel_end,
        "stash_rows": stash,
        "peel_sweeps": len(sweeps),
        "merges": merges,
        "deaths": deaths,
        "checkpoint_bytes": sum(new.values()),
    }


def check_stretch(payload: dict, result: dict) -> tuple[int, list[str]]:
    errors = []
    attempted = 0
    ranks = {}
    for c, got in zip(payload["calls"], result["calls"]):
        attempted += 1
        name = f"stretch n={c['n']} k={c['k']} p={c['p']}"
        if "error" in got:
            errors.append(f"{name}: {got['error']}")
            continue
        if not got["finished"] or got["dim"] != c["dim"]:
            errors.append(f"{name}: expected dim {c['dim']}, got {got['dim']} (finished {got['finished']})")
        ranks.setdefault((c["n"], tuple(c["k"])), {})[c["p"]] = got["rank"]
    for n, k in STRETCH_SMALL:
        attempted += 1
        by_field = ranks.get((n, k), {})
        if len(by_field) != 2 or len(set(by_field.values())) != 1:
            errors.append(f"stretch n={n} k={list(k)}: ranks over Q and GF(p) differ: {by_field}")
    return attempted, errors

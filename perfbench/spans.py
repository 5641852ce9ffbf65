"""Spans around the public entry points of ``gsc``, for traced passes.

A traced pass replaces the entry points at the names where their callers
look them up (``gsc.quotient.assemble_relation_block``,
``gsc.stretch.rank_in_block``, ``BlockCache.load_report``, ...) with
wrappers that record a span: name, start, end, enclosing span and the
item (block or call) being worked on.  Calls made hundreds of
thousands of times per pass (row generation, column ranking) are folded
into one aggregate per name instead of one span each.  Everything stays
in memory; :meth:`Tracer.dump` hands it back when the pass ends.

Self time is a span's duration minus the durations of the spans and
aggregated calls directly inside it, so the self times of all spans plus
the time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("tensor", "relations", "sparse", "quotient", "cache", "stretch")

def _units(unit, *names):
    return {name: unit for name in names}


# every per-layer metric of a traced run with its unit, in report order; a
# layer that does not run in a workload reports 0
PER_LAYER = {
    **_units("s", "tensor.enumerate_s"), **_units("count", "tensor.enumerate_calls"),
    **_units("s", "tensor.rank_s"), **_units("count", "tensor.rank_calls"),
    **_units("count", "relations.rows_raw", "relations.rows_dedup"),
    **_units("ratio", "relations.dedup_yield"),
    **_units("s", "relations.block_rows_s", "relations.assemble_s"),
    **_units("count", "relations.assemble_calls"),
    **_units("s", "relations.stream_gen_s", "sparse.rank_s"),
    **_units("count", "sparse.rank_calls", "sparse.rank_nnz_in", "sparse.rank_cols"),
    **_units("count", "quotient.block_dimension_calls"),
    **_units("s", "quotient.block_dimension_self_s"),
    **_units("count", "quotient.memo_hits", "quotient.multi_prime_blocks"),
    **_units("s", "cache.report_load_s"),
    **_units("count", "cache.report_hits", "cache.report_misses"),
    **_units("s", "cache.report_store_s"), **_units("bytes", "cache.bytes_written"),
    **_units("s", "stretch.stream_s", "stretch.peel_s", "stretch.core_s", "stretch.stream_self_s"),
    **_units("count", "stretch.merges", "stretch.deaths", "stretch.stash_rows",
             "stretch.peel_sweeps", "stretch.core_rows", "stretch.core_rank"),
    **_units("ratio", "stretch.peel_yield"), **_units("bytes", "stretch.checkpoint_bytes"),
    **_units("s", *(f"self.{layer}_s" for layer in LAYERS + ("other",))),
    **_units("s", "trace.wall_s", "trace.overhead_s"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, item, self_s]
        self.hot: dict = {}  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self.item = None
        self.row_keys: set | None = None  # distinct stretch rows, when counting
        self._stack: list = []  # [span id or None, start, child time]
        self._outside = 0.0  # covered time of top-level spans and calls
        self._t0 = self._t1 = None

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self._t1 = time.perf_counter()

    def enter(self, name: str | None) -> None:
        sid = None
        if name is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.item, 0.0])
        self._stack.append([sid, time.perf_counter(), 0.0])

    def leave(self, hot_name: str | None = None) -> None:
        end = time.perf_counter()
        sid, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._outside += duration
        if sid is not None:
            span = self.spans[sid]
            span[1], span[2], span[5] = start - self._t0, end - self._t0, duration - child
        else:
            agg = self.hot.setdefault(hot_name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child

    def dump(self) -> dict:
        return {
            "wall_s": self._t1 - self._t0,
            "covered_s": self._outside,
            "spans": self.spans,
            "hot": self.hot,
            "counts": dict(self.counts),
        }


def _wrap(tracer, owner, attr, name, after=None, hot=False):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(None if hot else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(name if hot else None)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_generator(tracer, owner, attr, name, counter):
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)

        def timed():
            while True:
                tracer.enter(None)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave(name)
                tracer.counts[counter] += 1
                yield item

        return timed()

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer; lasts for the process."""
    from gsc import cache, quotient, relations, stretch

    def after_assemble(tr, args, block):
        n, k, d = args[0], args[1], args[2]
        tr.counts["relations.rows_raw"] += relations.block_row_count(n, tuple(k), d)
        tr.counts["relations.rows_dedup"] += block.n_rows

    def after_rank(tr, args, rank):
        tr.counts["sparse.rank_nnz_in"] += args[0].n_entries
        tr.counts["sparse.rank_cols"] += args[0].n_cols

    def after_load_report(tr, args, report):
        tr.counts["cache.report_misses" if report is None else "cache.report_hits"] += 1

    def after_block_dimension(tr, args, rep):
        if rep.certified.startswith("multi-prime"):
            tr.counts["quotient.multi_prime_blocks"] += 1

    def after_monomials(tr, args, row):
        if tr.row_keys is not None:
            tr.row_keys.add(hash(row))

    def counting_stretch_rank(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.row_keys = set()
            raw_before = tracer.counts["stretch.rows_streamed"]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counts["relations.rows_raw"] += (
                    tracer.counts["stretch.rows_streamed"] - raw_before
                )
                tracer.counts["relations.rows_dedup"] += len(tracer.row_keys)
                tracer.row_keys = None

        return wrapper

    # gsc.tensor, at the modules that call it
    for mod in (quotient, relations):
        _wrap(tracer, mod, "enumerate_block_monomials", "tensor.enumerate")
    _wrap(tracer, stretch, "rank_in_block", "tensor.rank_in_block", hot=True)
    # gsc.relations
    _wrap(tracer, quotient, "assemble_relation_block", "relations.assemble", after_assemble)
    _wrap(tracer, relations, "block_rows", "relations.block_rows")
    _wrap(
        tracer, relations.TriangleRelation, "monomials", "relations.monomials",
        after_monomials, hot=True,
    )
    _wrap_generator(
        tracer, stretch, "iter_block_relations", "relations.iter_block_relations",
        "stretch.rows_streamed",
    )
    # gsc.sparse
    _wrap(tracer, quotient, "rank_sparse", "sparse.rank", after_rank)
    # gsc.quotient
    _wrap(tracer, quotient, "block_dimension", "quotient.block_dimension", after_block_dimension)
    # gsc.cache
    _wrap(tracer, cache.BlockCache, "load_report", "cache.report_load", after_load_report)
    _wrap(tracer, cache.BlockCache, "store_report", "cache.report_store")
    # gsc.stretch
    stretch.stretch_rank = counting_stretch_rank(stretch.stretch_rank)
    _wrap(tracer, stretch, "stretch_rank", "stretch.stretch_rank")


# ---------------------------------------------------------------------------
# Derivation, in the parent process


def self_times(dump: dict) -> dict:
    """Self time per layer plus ``other``, which sum to the traced wall."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, _start, _end, _parent, _item, self_s in dump["spans"]:
        out[name.split(".")[0]] += self_s
    for name, (_calls, _total, self_s) in dump["hot"].items():
        out[name.split(".")[0]] += self_s
    out["other"] = dump["wall_s"] - dump["covered_s"]
    return out


def _span_totals(dump):
    total = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, _parent, _item, self_s in dump["spans"]:
        total[name] += end - start
        selfs[name] += self_s
        calls[name] += 1
    for name, (n, tot, self_s) in dump["hot"].items():
        total[name] += tot
        selfs[name] += self_s
        calls[name] += n
    return total, selfs, calls


def _memo_hits(dump) -> int:
    parents = {span[3] for span in dump["spans"]}
    return sum(
        1
        for sid, span in enumerate(dump["spans"])
        if span[0] == "quotient.block_dimension" and sid not in parents
    )


def layer_metrics(dump: dict) -> dict:
    """Per-layer totals of one traced pass (the stretch counters aside)."""
    total, selfs, calls = _span_totals(dump)
    counts = defaultdict(float, dump["counts"])
    raw = counts["relations.rows_raw"]
    return {
        "tensor.enumerate_s": total["tensor.enumerate"],
        "tensor.enumerate_calls": calls["tensor.enumerate"],
        "tensor.rank_s": total["tensor.rank_in_block"],
        "tensor.rank_calls": calls["tensor.rank_in_block"],
        "relations.rows_raw": raw,
        "relations.rows_dedup": counts["relations.rows_dedup"],
        "relations.dedup_yield": counts["relations.rows_dedup"] / raw if raw else 0.0,
        "relations.block_rows_s": total["relations.block_rows"],
        "relations.assemble_s": total["relations.assemble"],
        "relations.assemble_calls": calls["relations.assemble"],
        "sparse.rank_s": total["sparse.rank"],
        "sparse.rank_calls": calls["sparse.rank"],
        "sparse.rank_nnz_in": counts["sparse.rank_nnz_in"],
        "sparse.rank_cols": counts["sparse.rank_cols"],
        "quotient.block_dimension_calls": calls["quotient.block_dimension"],
        "quotient.block_dimension_self_s": selfs["quotient.block_dimension"],
        "quotient.memo_hits": _memo_hits(dump),
        "quotient.multi_prime_blocks": counts["quotient.multi_prime_blocks"],
        "cache.report_load_s": total["cache.report_load"],
        "cache.report_hits": counts["cache.report_hits"],
        "cache.report_misses": counts["cache.report_misses"],
        "cache.report_store_s": total["cache.report_store"],
        # row generation under the stretch: the relation iterator, the
        # arrangements of each relation, and the ranking of each column
        "relations.stream_gen_s": total["relations.iter_block_relations"]
        + (total["relations.monomials"] if calls["stretch.stretch_rank"] else 0.0),
    }

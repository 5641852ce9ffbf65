"""Tests of the benchmark itself: every correctness gate can fail, and the
traced self times add up.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The gates are fed small inputs of the same shape as the workloads', so
the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gsc import quotient, relations  # noqa: E402
from gsc.acceptance import reference_values  # noqa: E402

# d = 3, arity 4: one relation row per block; dims 2 and 5 are published
SMALL_STRETCH = ((3, (2, 1, 0)), (3, (1, 1, 1)))


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GSC_CACHE_DIR", str(tmp_path / "cache"))
    quotient.clear_memory_cache()
    yield
    quotient.clear_memory_cache()


def small_tables_payload():
    """Every tables block except the two arity-6 d = 3 ones that need elimination."""
    payload = workloads.tables_inputs(0)
    heavy = [
        i for i, b in enumerate(payload["blocks"])
        if b["d"] == 3 and b["n"] == 5 and not quotient.block_pruned(5, tuple(b["k"]))
    ]
    return payload, heavy


def tables_result(payload, heavy):
    keep = {"blocks": [b for i, b in enumerate(payload["blocks"]) if i not in heavy]}
    got = iter(workloads.run_tables(keep)["blocks"])
    published = {tuple(e["k"]): e["dim"] for e in reference_values()["blocks"]["3"] if e["n"] == 5}
    return {
        "blocks": [
            {"dim": published[tuple(b["k"])]} if i in heavy else next(got)
            for i, b in enumerate(payload["blocks"])
        ]
    }


def drop_first_row(monkeypatch):
    """A program fault: every block loses its first relation row."""
    block_rows = relations.block_rows
    iter_relations = workloads.stretch.iter_block_relations
    monkeypatch.setattr(relations, "block_rows", lambda *a, **k: block_rows(*a, **k)[1:])

    def skip_first(*a, **k):
        rows = iter_relations(*a, **k)
        next(rows, None)
        return rows

    monkeypatch.setattr(workloads.stretch, "iter_block_relations", skip_first)


# ---------------------------------------------------------------------------
# tables


def test_tables_gate_passes_on_correct_output():
    payload, heavy = small_tables_payload()
    attempted, errors = workloads.check_tables(payload, tables_result(payload, heavy))
    assert attempted > len(payload["blocks"]) and errors == []


def test_tables_gate_fails_on_perturbed_reference():
    payload, heavy = small_tables_payload()
    result = tables_result(payload, heavy)
    ref = reference_values()
    ref["totals"]["3"]["dims"][4] += 1
    ref["breakdowns"]["3"]["4"] = [12, 6]
    _, errors = workloads.check_tables(payload, result, ref)
    assert len(errors) == 2


def test_tables_gate_fails_on_dropped_relation_row(monkeypatch):
    drop_first_row(monkeypatch)
    payload, heavy = small_tables_payload()
    _, errors = workloads.check_tables(payload, tables_result(payload, heavy))
    assert any("block d=3 n=3 k=[1, 1, 1]" in e for e in errors)


# ---------------------------------------------------------------------------
# stretch


def small_stretch_payload(monkeypatch, big=(4, (4, 2, 0), 0)):
    monkeypatch.setattr(workloads, "STRETCH_SMALL", SMALL_STRETCH)
    monkeypatch.setattr(workloads, "STRETCH_BIG", big)
    return workloads.stretch_inputs(0)


def test_stretch_gate_passes_on_correct_output(monkeypatch):
    payload = small_stretch_payload(monkeypatch)
    attempted, errors = workloads.check_stretch(payload, workloads.run_stretch(payload))
    assert attempted == 7 and errors == []


def test_stretch_gate_fails_on_dropped_relation_row(monkeypatch):
    payload = small_stretch_payload(monkeypatch)
    drop_first_row(monkeypatch)
    _, errors = workloads.check_stretch(payload, workloads.run_stretch(payload))
    assert errors


def test_perturbed_expectation_gives_nonzero_exit(monkeypatch, capsys):
    """End to end through run.py: children, gate, fail_frac and exit code."""
    small_stretch_payload(monkeypatch, big=(4, (4, 2, 0), 1))  # true dimension is 0
    code = run.main(["--workload", "stretch", "--seed", "1", "--seconds", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False and summary["failed"] == 1
    assert summary["failed"] / summary["attempted"] > 0
    assert set(summary["metrics"]) == set(run.E2E_UNITS)


# ---------------------------------------------------------------------------
# traced passes: self times per layer plus "other" make up the traced wall


def traced_children(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "STRETCH_SMALL", SMALL_STRETCH)
    monkeypatch.setattr(workloads, "STRETCH_BIG", (4, (4, 2, 0), 0))
    r = run.Runner(tmp_path, time.monotonic() + 120)
    tables, _heavy = small_tables_payload()
    tables["blocks"] = [b for b in tables["blocks"] if b["n"] <= 4]
    yield "tables", r.spawn("tables", tables, trace=True)
    yield "stretch", r.spawn("stretch", workloads.stretch_inputs(0), trace=True)


def test_self_times_add_up_to_traced_wall(tmp_path, monkeypatch):
    seen = set()
    for kind, out in traced_children(tmp_path, monkeypatch):
        dump = out["trace"]
        selfs = spans.self_times(dump)
        assert all(v >= 0 for v in selfs.values()), (kind, selfs)
        assert sum(selfs.values()) == pytest.approx(dump["wall_s"], rel=1e-9, abs=1e-9)
        assert dump["wall_s"] >= out["wall_s"]  # the traced window covers the pass
        busy = {layer for layer, v in selfs.items() if v > 0 and layer != "other"}
        seen |= busy
        assert busy, kind
    assert seen == set(spans.LAYERS)

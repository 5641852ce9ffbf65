import json
import random
import threading
from fractions import Fraction

import pytest

from gsc.cache import BlockCache, resolve_cache_dir
from gsc.fields import FieldSpec
from gsc.echelon import EchelonForm, block_echelon, echelon_sparse
from gsc.quotient import QuotientConfig, block_dimension, clear_memory_cache
from gsc.relations import assemble_relation_block

Q = FieldSpec.rational()


def test_resolution_order(tmp_path, monkeypatch):
    assert resolve_cache_dir(tmp_path / "x") == tmp_path / "x"
    monkeypatch.setenv("GSC_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    monkeypatch.delenv("GSC_CACHE_DIR")
    assert str(resolve_cache_dir()) == ".gsc-cache"


def test_report_round_trip(tmp_path, capsys):
    cache = BlockCache(tmp_path)
    assert cache.load_report(2, 3, (2, 1), Q) is None
    assert capsys.readouterr().err == ""  # a missing entry is a silent miss
    cache.store_report(2, 3, (2, 1), Q, {"dimension": 2})
    obj = cache.load_report(2, 3, (2, 1), Q)
    assert obj["dimension"] == 2
    # distinct fields are distinct keys
    assert cache.load_report(2, 3, (2, 1), FieldSpec.prime(5)) is None


def test_echelon_round_trip(tmp_path):
    cache = BlockCache(tmp_path)
    ech = EchelonForm(
        n_cols=3,
        field=Q,
        pivot_cols=(0,),
        rows=(((0, 1), (2, 2)),),
    )
    cache.store_echelon(2, 3, (2, 1), Q, ech)
    back = cache.load_echelon(2, 3, (2, 1), Q)
    assert back.pivot_cols == (0,)
    assert back.rank == 1
    assert back.rows[0][1][1] == 2


def test_cached_echelon_over_q_keeps_int_rows(tmp_path):
    # the text reader gives Fractions over Q; the cache hands back the
    # int rows that elimination made
    m = assemble_relation_block(4, (2, 2, 2), 3, Q).matrix
    fresh = echelon_sparse(m)
    assert all(type(v) is int for row in fresh.rows for _, v in row)
    cache = BlockCache(tmp_path)
    cache.store_echelon(3, 4, (2, 2, 2), Q, fresh)
    back = cache.load_echelon(3, 4, (2, 2, 2), Q)
    assert all(type(v) is int for row in back.rows for _, v in row)
    assert back == fresh
    rng = random.Random(8)
    vectors = [{c: 1} for c in range(m.n_cols)] + [
        {c: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for c in rng.sample(range(m.n_cols), 6)}
        for _ in range(20)
    ]
    for vec in vectors:
        assert back.reduce_vector(vec) == fresh.reduce_vector(vec), vec


def test_concurrent_insert_if_absent(tmp_path):
    """Worker threads racing on the same block stay consistent."""
    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path / "c")
    results = []

    def work():
        rep = block_dimension(4, (3, 3), 2, Q, config=cfg)
        results.append(rep.dimension)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [1] * 8


def _ignored_lines(capsys, path):
    """The stderr lines saying a cached file was ignored; each names ``path``."""
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith(f"ignoring cached {path}: ") for line in lines)
    return lines


def test_corrupt_cache_file_ignored(tmp_path, capsys):
    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path / "c")
    rep = block_dimension(3, (2, 1), 2, Q, config=cfg)
    # find and corrupt the report file, then force a cold read
    files = list((tmp_path / "c").rglob("report.json"))
    assert files
    files[0].write_text("{not json")
    clear_memory_cache()
    rep2 = block_dimension(3, (2, 1), 2, Q, config=cfg)
    assert rep2.dimension == rep.dimension
    assert _ignored_lines(capsys, files[0]) == [
        f"ignoring cached {files[0]}: unreadable (JSONDecodeError: Expecting property name "
        "enclosed in double quotes: line 1 column 2 (char 1)); recomputing"
    ]


def test_non_utf8_report_is_a_miss(tmp_path, capsys):
    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path)
    rep = block_dimension(4, (3, 3), 2, Q, config=cfg)
    path = _block_files(tmp_path, "report.json")
    path.write_bytes(b"\xff\xfe")
    clear_memory_cache()
    again = block_dimension(4, (3, 3), 2, Q, config=cfg)
    assert {**again.to_json(), "millis": 0} == {**rep.to_json(), "millis": 0}
    (line,) = _ignored_lines(capsys, path)
    assert "UnicodeDecodeError" in line
    assert json.loads(path.read_text())["rank"] == rep.rank


@pytest.mark.parametrize("schema", [1, 2])
def test_schema_1_upper_bound_report_not_served(tmp_path, schema):
    """A report from an older layout is never read back: schema 1 could
    hold a multi-prime upper bound for a rational request, schema 2 was
    keyed by a generating-set number."""
    clear_memory_cache()
    old = tmp_path / f"v{schema}" / "d2" / "n4" / "k3-3" / "q-var3" / "report.json"
    old.parent.mkdir(parents=True)
    planted = {
        "schema": schema, "d": 2, "n": 4, "k": [3, 3], "monomials": 20, "rows": 1,
        "rank": 15, "dimension": 5, "field": "rational", "variant": 3, "millis": 0,
        "pruned": False, "certified": "multi-prime upper bound (1000003, 1000033, 1000037)",
    }
    old.write_text(json.dumps(planted))
    rep = block_dimension(4, (3, 3), 2, Q, config=QuotientConfig(cache_dir=tmp_path))
    clear_memory_cache()
    assert rep.certified == "exact"
    assert rep.dimension == 1


def _block_files(root, name):
    files = list(root.rglob(name))
    assert len(files) == 1
    return files[0]


def test_echelon_with_cut_pivots_is_recomputed(tmp_path, capsys):
    # echelon.json with 5 pivot columns cut no longer has one pivot per
    # row, so reduce_vector would pair rows with the wrong pivots
    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path)
    ech = block_echelon(4, (2, 2, 2), 3, Q, config=cfg)
    meta_path = _block_files(tmp_path, "echelon.json")
    meta = json.loads(meta_path.read_text())
    meta["pivot_cols"] = meta["pivot_cols"][:-5]
    meta_path.write_text(json.dumps(meta))
    assert BlockCache(tmp_path).load_echelon(3, 4, (2, 2, 2), Q) is None
    mtx_path = meta_path.with_name("echelon.mtx")
    assert _ignored_lines(capsys, mtx_path) == [
        f"ignoring cached {mtx_path}: not an echelon form of this block over Q; recomputing"
    ]
    clear_memory_cache()
    again = block_echelon(4, (2, 2, 2), 3, Q, config=cfg)
    assert again == ech
    _ignored_lines(capsys, mtx_path)
    # the recomputed echelon replaced the corrupt files
    assert BlockCache(tmp_path).load_echelon(3, 4, (2, 2, 2), Q) == ech


def _corrupt(ech, how):
    pivots, rows = ech.pivot_cols, ech.rows
    if how == "width":
        return EchelonForm(ech.n_cols + 1, ech.field, pivots, rows)
    if how == "pivot order":
        return EchelonForm(ech.n_cols, ech.field, pivots[1:2] + pivots[:1] + pivots[2:], rows)
    if how == "row start":
        return EchelonForm(ech.n_cols, ech.field, pivots, rows[1:] + rows[:1])
    raise ValueError(how)


@pytest.mark.parametrize("how", ["width", "pivot order", "row start"])
def test_inconsistent_echelon_is_a_miss(tmp_path, how, capsys):
    clear_memory_cache()
    ech = block_echelon(4, (3, 2, 1), 3, Q, config=QuotientConfig(cache_dir=tmp_path / "ok"))
    cache = BlockCache(tmp_path)
    cache.store_echelon(3, 4, (3, 2, 1), Q, ech)
    assert cache.load_echelon(3, 4, (3, 2, 1), Q) == ech
    assert capsys.readouterr().err == ""
    cache.store_echelon(3, 4, (3, 2, 1), Q, _corrupt(ech, how))
    assert cache.load_echelon(3, 4, (3, 2, 1), Q) is None
    mtx_path = cache.report_path(3, 4, (3, 2, 1), Q).with_name("echelon.mtx")
    (line,) = _ignored_lines(capsys, mtx_path)
    assert line.endswith(": not an echelon form of this block over Q; recomputing")


def test_echelon_of_another_field_is_a_miss(tmp_path, capsys):
    clear_memory_cache()
    ech = block_echelon(4, (3, 2, 1), 3, Q, config=QuotientConfig(cache_dir=tmp_path / "ok"))
    cache = BlockCache(tmp_path)
    gfp = FieldSpec.prime(1_000_003)
    cache.store_echelon(3, 4, (3, 2, 1), gfp, ech)
    assert cache.load_echelon(3, 4, (3, 2, 1), gfp) is None
    _ignored_lines(capsys, cache.report_path(3, 4, (3, 2, 1), gfp).with_name("echelon.mtx"))


@pytest.mark.parametrize(
    "edit",
    [
        {"rank": None},  # the key is dropped
        {"rank": 1},  # dimension 19 is not 20 - 1
        {"dimension": 999},
        {"d": 3},  # another block's report
        {"field": "prime:1000003"},
        {"monomials": 21, "dimension": 6},
    ],
    ids=str,
)
def test_incomplete_or_inconsistent_report_is_recomputed(tmp_path, edit, capsys):
    clear_memory_cache()
    cfg = QuotientConfig(cache_dir=tmp_path)
    rep = block_dimension(4, (3, 3), 2, Q, config=cfg)
    assert rep.dimension == 1
    path = _block_files(tmp_path, "report.json")
    obj = json.loads(path.read_text())
    for key, value in edit.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    path.write_text(json.dumps(obj))
    clear_memory_cache()
    again = block_dimension(4, (3, 3), 2, Q, config=cfg)
    assert {**again.to_json(), "millis": 0} == {**rep.to_json(), "millis": 0}
    assert len(_ignored_lines(capsys, path)) == 1
    # the recomputed report replaced the corrupt one
    assert json.loads(path.read_text())["rank"] == rep.rank

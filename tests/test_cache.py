import json
import threading

from gsc.cache import BlockCache, resolve_cache_dir
from gsc.fields import FieldSpec
from gsc.quotient import QuotientConfig, block_dimension, clear_memory_cache
from gsc.sparse import EchelonForm

Q = FieldSpec.rational()


def test_resolution_order(tmp_path, monkeypatch):
    assert resolve_cache_dir(tmp_path / "x") == tmp_path / "x"
    monkeypatch.setenv("GSC_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    monkeypatch.delenv("GSC_CACHE_DIR")
    assert str(resolve_cache_dir()) == ".gsc-cache"


def test_report_round_trip(tmp_path):
    cache = BlockCache(tmp_path)
    assert cache.load_report(2, 3, (2, 1), Q, 3) is None
    cache.store_report(2, 3, (2, 1), Q, 3, {"dimension": 2})
    obj = cache.load_report(2, 3, (2, 1), Q, 3)
    assert obj["dimension"] == 2
    # distinct variants and fields are distinct keys
    assert cache.load_report(2, 3, (2, 1), Q, 1) is None
    assert cache.load_report(2, 3, (2, 1), FieldSpec.prime(5), 3) is None


def test_echelon_round_trip(tmp_path):
    cache = BlockCache(tmp_path)
    ech = EchelonForm(
        n_cols=3,
        field=Q,
        pivot_cols=(0,),
        reduced_rows=(((0, 1), (2, 2)),),
    )
    cache.store_echelon(2, 3, (2, 1), Q, 3, ech)
    back = cache.load_echelon(2, 3, (2, 1), Q, 3)
    assert back.pivot_cols == (0,)
    assert back.rank == 1
    assert back.reduced_rows[0][1][1] == 2


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


def test_corrupt_cache_file_ignored(tmp_path):
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


def test_schema_1_upper_bound_report_not_served(tmp_path):
    """A report from the schema-1 layout, which could hold a multi-prime
    upper bound for a rational request, is never read back."""
    clear_memory_cache()
    old = tmp_path / "v1" / "d2" / "n4" / "k3-3" / "q-var3" / "report.json"
    old.parent.mkdir(parents=True)
    planted = {
        "schema": 1, "d": 2, "n": 4, "k": [3, 3], "monomials": 20, "rows": 1,
        "rank": 15, "dimension": 5, "field": "rational", "variant": 3, "millis": 0,
        "pruned": False, "certified": "multi-prime upper bound (1000003, 1000033, 1000037)",
    }
    old.write_text(json.dumps(planted))
    rep = block_dimension(4, (3, 3), 2, Q, config=QuotientConfig(cache_dir=tmp_path))
    clear_memory_cache()
    assert rep.certified == "exact"
    assert rep.dimension == 1

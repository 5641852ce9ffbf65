import json

import pytest
from click.testing import CliRunner

from gsc.cli import main
from gsc.tensor import TriElement, TriMonomial, element_to_json_text


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_dims_totals_text(runner, tmp_path):
    res = invoke(runner, ["dims", "--d", "2", "--max-arity", "6", "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0
    dims = [line.split()[-1] for line in res.output.strip().splitlines()]
    assert dims == ["1", "1", "2", "4", "1", "0"]


def test_dims_d1(runner, tmp_path):
    res = invoke(runner, ["dims", "--d", "1", "--max-arity", "4", "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0
    assert [line.split()[-1] for line in res.output.strip().splitlines()] == ["1", "1", "1", "0"]


def test_dims_csv_format_and_columns(runner, tmp_path):
    res = invoke(
        runner,
        ["dims", "--d", "2", "--max-arity", "4", "--per-block", "--format", "csv",
         "--cache-dir", str(tmp_path)],
    )
    assert res.exit_code == 0
    header = res.output.splitlines()[0]
    assert header == "d,arity,multidegree,monomials,rows,rank,dimension,field,variant,millis"


def test_dims_warm_rerun_byte_identical(runner, tmp_path):
    args = ["dims", "--d", "2", "--max-arity", "5", "--per-block", "--format", "json",
            "--cache-dir", str(tmp_path)]
    cold = invoke(runner, args)
    warm = invoke(runner, args)
    assert cold.exit_code == warm.exit_code == 0
    assert cold.output == warm.output


def test_dims_prime_field_note_and_json(runner, tmp_path):
    res = invoke(
        runner,
        ["dims", "--d", "2", "--max-arity", "4", "--field", "prime:1000003",
         "--format", "json", "--cache-dir", str(tmp_path)],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert [t["dimension"] for t in payload["totals"]] == [1, 1, 2, 4]


def test_dims_usage_errors(runner):
    assert invoke(runner, ["dims"]).exit_code == 2
    assert invoke(runner, ["dims", "--d", "2", "--field", "prime:4"]).exit_code == 2
    assert invoke(runner, ["dims", "--d", "0"]).exit_code == 2
    assert invoke(runner, ["dims", "--d", "2", "--threads", "2"]).exit_code == 2


def test_dims_rational_resource_refusal_exit_2(runner, tmp_path, monkeypatch):
    # an over-limit rational block must refuse with exit 2, naming itself
    from gsc.quotient import clear_memory_cache
    from gsc.sparse import RunLimits

    clear_memory_cache()
    monkeypatch.setattr("gsc.quotient.DEFAULT_LIMITS", RunLimits(max_rational_cols=10))
    res = runner.invoke(
        main,
        ["dims", "--d", "2", "--max-arity", "5", "--cache-dir", str(tmp_path / "rl")],
    )
    clear_memory_cache()
    assert res.exit_code == 2
    assert "resource limit" in res.output
    assert "k=(3, 3)" in res.output


def test_dims_prime_resource_refusal_before_assembly_exit_2(runner, tmp_path, monkeypatch):
    # the unpruned 756,756-column block at arity 7 is refused over GF(p)
    # from its column count, before any of its rows are built
    import gsc.quotient as quotient

    assembled = []
    real_assemble = quotient.assemble_relation_block

    def recording_assemble(n, k, *args, **kwargs):
        assembled.append((n, tuple(k)))
        return real_assemble(n, k, *args, **kwargs)

    quotient.clear_memory_cache()
    monkeypatch.setattr(quotient, "assemble_relation_block", recording_assemble)
    res = runner.invoke(
        main,
        ["dims", "--d", "3", "--field", "prime:1000003", "--cache-dir", str(tmp_path)],
    )
    quotient.clear_memory_cache()
    assert res.exit_code == 2
    assert "resource limit" in res.output
    assert "k=(5, 5, 5)" in res.output
    assert (6, (5, 5, 5)) not in assembled


def test_axioms_smoke_and_exit_zero(runner):
    res = invoke(runner, ["axioms", "--trials", "3", "--seed", "7"])
    assert res.exit_code == 0
    assert res.output.count("pass") == 5


def test_reduce_spanning_monomial(runner, tmp_path):
    doc = element_to_json_text(TriElement.monomial(TriMonomial(4, (1, 2, 2, 1, 2, 1))))
    path = tmp_path / "b5.json"
    path.write_text(doc)
    res = invoke(
        runner,
        ["reduce", str(path), "--d", "2", "--format", "json", "--cache-dir", str(tmp_path / "c")],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["is_zero"] is False
    ((block,),) = [payload["blocks"]]
    assert block["multidegree"] == [3, 3]
    assert block["coordinates"][0]["coeff"] == "-1"


def test_reduce_generator_image_is_zero(runner, tmp_path):
    from gsc.tensor import expand_multilinear, triangle_positions

    g = expand_multilinear(3, {p: (1, 1) for p in triangle_positions(3)}, 2)
    path = tmp_path / "gen.json"
    path.write_text(element_to_json_text(g))
    res = invoke(runner, ["reduce", str(path), "--d", "2", "--cache-dir", str(tmp_path / "c")])
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "zero"


def test_reduce_validation_failures(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert invoke(runner, ["reduce", str(path), "--d", "2"]).exit_code == 2

    doc = element_to_json_text(TriElement.monomial(TriMonomial(4, (1, 2, 2, 1, 2, 1))))
    good = tmp_path / "el.json"
    good.write_text(doc)
    res = invoke(runner, ["reduce", str(good), "--d", "1"])
    assert res.exit_code == 2
    assert "outside 1..1" in res.output


def test_export_block_and_round_trip(runner, tmp_path):
    out = tmp_path / "block.mtx"
    res = invoke(
        runner,
        ["export", "--n", "3", "--k", "2,1", "--d", "2", "-o", str(out)],
    )
    assert res.exit_code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "1 3 0"
    assert text.endswith("0 0 0\n")

    from gsc.sparse import read_matrix_text

    m = read_matrix_text(text)
    assert (m.n_rows, m.n_cols) == (1, 3)


def test_export_io_error_exit_2(runner, tmp_path):
    res = runner.invoke(
        main,
        ["export", "--n", "3", "--k", "2,1", "--d", "2", "-o",
         str(tmp_path / "missing" / "x.mtx")],
    )
    assert res.exit_code == 2


def test_export_bad_multidegree_usage(runner, tmp_path):
    res = runner.invoke(
        main, ["export", "--n", "3", "--k", "a,b", "--d", "2", "-o", str(tmp_path / "x")]
    )
    assert res.exit_code == 2


def test_verify_paper_help_smoke(runner):
    res = invoke(runner, ["verify-paper", "--help"])
    assert res.exit_code == 0
    assert "--stretch" in res.output


def test_verify_paper_exit_one_on_mismatch(runner, monkeypatch):
    from gsc.acceptance import ClaimResult

    def fake_run(ctx, numbers=None, reporter=None):
        results = [
            ClaimResult(5, "determinant normalization input", "1", "2", False, 0)
        ]
        if reporter:
            for r in results:
                reporter(r.line())
        return results

    monkeypatch.setattr("gsc.cli.run_criteria", fake_run)
    res = runner.invoke(main, ["verify-paper"])
    assert res.exit_code == 1
    assert "FAIL" in res.output and "0/1 claims pass" in res.output


def test_axioms_exit_one_on_mutated_build(runner, monkeypatch):
    from gsc.acceptance import _mutated_transpose
    from gsc.diamond import check_gsc_axioms as real_check

    monkeypatch.setattr(
        "gsc.cli.check_gsc_axioms",
        lambda trials, seed: real_check(trials, seed, transpose_fn=_mutated_transpose),
    )
    res = runner.invoke(main, ["axioms", "--trials", "150", "--seed", "42"])
    assert res.exit_code == 1
    assert "FAIL" in res.output
    assert "witness" in res.output

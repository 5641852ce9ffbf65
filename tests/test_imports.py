"""Import boundaries: a rank run loads only the code it calls.

Every fresh process pays to compile what it imports (more so without a
bytecode cache), so the rank route (``gsc.quotient``, ``gsc.stretch``
and the published values in ``gsc.acceptance``) keeps the criteria, the
law suites, the echelon route, the element algebra, the text format and
the CLI out of its imports.  Each check runs in a fresh interpreter,
since this one has loaded everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RANK_RUN = "import gsc.quotient, gsc.stretch\nfrom gsc.acceptance import reference_values"
LAW_SUITES = ("gsc.bioperad", "gsc.classical", "gsc.diamond", "gsc.dets2", "gsc.saturation")
OFF_THE_RANK_ROUTE = (
    "gsc.criteria", *LAW_SUITES, "gsc.echelon", "gsc.elements", "gsc.matrix_text", "click",
)


def modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_rank_run_loads_only_the_rank_route():
    loaded = modules_after(RANK_RUN)
    assert {"gsc.quotient", "gsc.stretch", "gsc.acceptance", "gsc.sparse", "numpy"} <= loaded
    assert sorted(loaded.intersection(OFF_THE_RANK_ROUTE)) == []


def test_dims_command_loads_no_criteria_or_law_suite(tmp_path):
    loaded = modules_after(
        "from click.testing import CliRunner\n"
        "from gsc.cli import main\n"
        f"res = CliRunner().invoke(main, ['dims', '--d', '2', '--max-arity', '4',"
        f" '--cache-dir', {str(tmp_path)!r}])\n"
        "assert res.exit_code == 0, res.output"
    )
    assert "gsc.quotient" in loaded
    assert sorted(loaded.intersection(("gsc.criteria", *LAW_SUITES))) == []


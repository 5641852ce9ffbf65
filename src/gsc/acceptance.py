"""The published values, and the claim checks behind verify-paper.

:func:`reference_values` reads the values the paper publishes.  The
criteria that recompute them live in :mod:`gsc.criteria`, which runs the
law suites and the saturation oracle; it is loaded on first use of any
of its names here (``CRITERIA``, ``run_criteria``, ``AcceptanceContext``,
...), so a rank run that checks its output against the published values
loads none of that.
"""

from __future__ import annotations

import json
from importlib import resources


def reference_values() -> dict:
    with resources.files("gsc.data").joinpath("reference_values.json").open() as fh:
        return json.load(fh)


def __getattr__(name):
    # "from gsc.acceptance import X" looks up dunder names such as
    # __path__ first; those must not load the criteria
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import criteria

    return getattr(criteria, name)

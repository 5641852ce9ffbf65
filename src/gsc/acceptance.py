"""The values the paper publishes.

:func:`reference_values` reads them.  The criteria that recompute them,
behind ``gsc verify-paper``, live in :mod:`gsc.criteria`, which runs the
law suites and the saturation oracle; this module loads none of that,
so a rank run that checks its output against the published values
stays on the rank route.
"""

from __future__ import annotations

import json
from importlib import resources


def reference_values() -> dict:
    with resources.files("gsc.data").joinpath("reference_values.json").open() as fh:
        return json.load(fh)

"""One step of a benchmark pass, in a fresh interpreter.

    python3 perfbench/child.py SPEC OUT SPAWNED

SPEC is a JSON file ``{"kind", "payload", "trace", "probe"}`` written by
``run.py``; SPAWNED is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from a fresh interpreter to the
first timed call.  A probe stops there.  The cache directory comes from
``GSC_CACHE_DIR``.  OUT receives the set-up time, the timed wall time,
the peak RSS, the cache size, the program's outputs and, when traced,
the spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def dir_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def main(argv: list[str]) -> int:
    spec_path, out_path, spawned = argv[0], argv[1], float(argv[2])
    with open(spec_path) as fh:
        spec = json.load(fh)
    import workloads
    from gsc.quotient import clear_memory_cache

    kind, payload = spec["kind"], spec["payload"]
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    clear_memory_cache()
    out = {"setup_s": time.monotonic() - spawned}
    if not spec["probe"]:
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        run = workloads.run_tables if kind == "tables" else workloads.run_stretch
        result = run(payload, tracer)
        out["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.stop()
            out["trace"] = tracer.dump()
        out["result"] = result
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["cache_bytes"] = dir_bytes(os.environ["GSC_CACHE_DIR"])
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

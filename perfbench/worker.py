"""One workload in one fresh process; prints a single JSON line.

Usage (``run.py`` starts it; the spawn time lets set-up be measured from
process start)::

    python3 perfbench/worker.py WORKLOAD SEED MODE SECONDS ITEMS SPAWN_EPOCH

MODE is ``setup`` (build the inputs and stop), ``timed`` (run inputs for
SECONDS of measured time, tracing off) or ``traced`` (run exactly ITEMS inputs
with the probes installed).
"""

from __future__ import annotations

import sys
import time

SPAWN = float(sys.argv[6]) if len(sys.argv) == 7 else time.time()

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv) -> int:
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, mode, seconds, items = argv[0], int(argv[1]), argv[2], float(argv[3]), int(argv[4])
    import numpy
    import scipy

    import newtonpoly
    from workloads import WORKLOADS

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(newtonpoly.__file__).resolve().is_relative_to(src):
        print(f"newtonpoly was imported from {newtonpoly.__file__}, not from {src}", file=sys.stderr)
        return 2

    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    setup_s = time.time() - SPAWN
    result = {
        "workload": name,
        "why": workload.why,
        "setup_s": setup_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    times, statuses, queries, errors, failures = [], [], [], [], []
    digest = hashlib.sha256()
    digested = 0
    measured = 0.0
    i = 0
    while (measured < seconds or i % workload.cycle) if mode == "timed" else (i < items):
        item = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.begin(i)
        start = time.perf_counter()
        try:
            output = workload.solve(item)
            error = None
        except Exception as exc:  # every failure is counted, none aborts the run
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        measured += elapsed
        times.append(elapsed)
        if error is None:
            verdict = workload.check(item, output)
            statuses.append(verdict.status)
            canonical = verdict.canonical
            if verdict.queries is not None:
                queries.append(verdict.queries)
        else:
            statuses.append("raised")
            canonical = f"raised {type(error).__name__}"
            if len(errors) < 5:
                errors.append("".join(traceback.format_exception_only(type(error), error)).strip())
        if statuses[-1] != "ok" and len(failures) < 20:
            failures.append({"index": i, "input": i % len(inputs), "status": statuses[-1], "output": canonical})
        if i < workload.digest_items:
            digest.update(canonical.encode() + b"\n")
            digested += 1
        i += 1

    result.update(
        times=times,
        statuses=statuses,
        queries=queries,
        errors=errors,
        failures=failures,
        digest=digest.hexdigest(),
        digest_items=digested,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(len(times))
        result["missing_bindings"] = tracer.missing
        result["self_check_failures"] = tracer.self_check(name)
        result["spans"] = tracer.span_records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

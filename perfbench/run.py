"""newtonpoly benchmark: certified Newton polytopes per second, and what they cost.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs closed-loop in fresh processes (one caller, jobs=1; the
next input starts when the previous one returns).  Every output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics.  ``--trace 1`` first repeats that untraced pass, then runs the same
inputs again with probes at every layer boundary and reports the per-layer
metrics plus the tracing overhead.  A full record (every end-to-end figure,
the output digest, machine and versions) is written to ``perfbench/out/``
and echoed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is the median with the timed one


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, mode: str, seconds: float, items: int, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time limit reached before the next process could start")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(seconds), str(items)]
    try:
        proc = subprocess.run(
            cmd + [repr(time.time())], cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} process for {workload} printed no result") from exc


def _tail(times):
    """Highest-percentile wall time with at least ten samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    idx = len(ordered) - 11
    return {"value": ordered[idx], "percentile": 100.0 * (idx + 1) / len(ordered), "beyond": 10, "samples": len(ordered)}


def _summary(run: dict) -> dict:
    """End-to-end figures of one untraced pass."""
    times, statuses = run["times"], run["statuses"]
    ok = statuses.count("ok")
    measured = sum(times)
    return {
        "attempted": len(times),
        "failed": len(times) - ok,
        "wrong": statuses.count("wrong"),
        "polytopes_per_s": ok / measured if measured else 0.0,
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": _tail(times),
        "oracle_queries_per_polytope": statistics.fmean(run["queries"]) if run["queries"] else None,
        "failed_ratio": (len(times) - ok) / len(times),
        "peak_rss_mb": run["peak_rss_mb"],
        "measured_s": measured,
    }


def _machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform()}


def _timed(args, deadline) -> tuple:
    setups = [_spawn(args.workload, args.seed, "setup", 0, 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = _spawn(args.workload, args.seed, "timed", args.seconds, 0, deadline)
    setups.append(run["setup_s"])
    summary = _summary(run)
    summary["setup_s"] = statistics.median(setups)
    summary["setup_samples_s"] = setups
    metrics = {
        "setup_s": (summary["setup_s"], "s"),
        "polytopes_per_s": (summary["polytopes_per_s"], "1/s"),
        "latency_p50_s": (summary["latency_p50_s"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }
    return run, summary, metrics


def _traced(args, deadline) -> tuple:
    plain = _spawn(args.workload, args.seed, "timed", args.seconds, 0, deadline)
    untraced = _summary(plain)
    run = _spawn(args.workload, args.seed, "traced", 0, untraced["attempted"], deadline)
    traced = _summary(run)
    summary = dict(traced, untraced_polytopes_per_s=untraced["polytopes_per_s"], wrong=traced["wrong"] + untraced["wrong"])
    metrics = {name: tuple(value) for name, value in run["per_layer"].items()}
    metrics["trace.polytopes_per_s"] = (traced["polytopes_per_s"], "1/s")
    metrics["trace.untraced_polytopes_per_s"] = (untraced["polytopes_per_s"], "1/s")
    overhead = untraced["polytopes_per_s"] / traced["polytopes_per_s"] - 1.0 if traced["polytopes_per_s"] else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for binding in run["missing_bindings"]:
        print(f"warning: probe binding {binding} no longer exists; its metrics are absent", file=sys.stderr)
    for probe in run["self_check_failures"]:
        print(f"warning: probe {probe} recorded no call on {args.workload}", file=sys.stderr)
    return run, summary, metrics


def _write_record(args, run, summary, metrics) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = run.pop("spans", None)
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    record = {
        "workload": args.workload,
        "why": run["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, ReconstructConfig(jobs=1)",
        "machine": _machine(),
        "versions": run["versions"],
        "digest": {"sha256": run["digest"], "outputs": run["digest_items"]},
        "summary": summary,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "computed_not_counted": ["slp.instructions", "numbers.scaled_ops"] if args.trace else [],
        "errors": run["errors"],
        "failures": run["failures"],
        "missing_bindings": run.get("missing_bindings", []),
        "self_check_failures": run.get("self_check_failures", []),
        "times_s": run["times"],
    }
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _report(args, summary, metrics, path) -> None:
    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {summary['attempted']} attempted, "
          f"{summary['failed']} failed (failed_ratio {summary['failed_ratio']:.4g}), {summary['wrong']} wrong", file=err)
    tail = summary["latency_tail_s"]
    if tail is None:
        print("latency_tail_s: absent (fewer than 11 samples)", file=err)
    else:
        print(f"latency_tail_s: {tail['value']:.6g} s at p{tail['percentile']:.1f} "
              f"({tail['beyond']} of {tail['samples']} samples beyond)", file=err)
    queries = summary["oracle_queries_per_polytope"]
    print("oracle_queries_per_polytope: " + ("absent" if queries is None else f"{queries:.6g} queries"), file=err)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}", file=err)
    print(f"record: {path.relative_to(ROOT)}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "newtonpoly" / "__init__.py").is_file():
        print(f"error: no newtonpoly sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        run, summary, metrics = (_traced if args.trace else _timed)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = _write_record(args, run, summary, metrics)
    _report(args, summary, metrics, path)
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ma6: one workload, one seed, one run.

Run from the root of a checkout (the directory holding ``src/ma6``):

    python3 perfbench/run.py --workload orbits-exact --seed 7 --seconds 8 --trace 0

Workloads: ``orbits-exact``, ``forms-float``, ``fields`` (each in a fresh
``perfbench/worker.py`` process) and ``cli`` (this process as the client of
``python -m ma6.cli`` children, see ``perfbench/cliload.py``).  The program
is used from outside: ``PYTHONPATH=src``, nothing installed, nothing under
``src/`` changed.

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json and ``--seed``
to ``default_seed`` in ``perfbench/config.json``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of stdout is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it are a readable
summary and a ``details:`` JSON line with the machine, sample counts, tail
percentiles and per-op counts.  ``--replay N`` reruns op N of the seeded
stream alone and prints its input and verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

import calib
import cliload
from cliload import child_env
from tracing import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CONFIG = os.path.join(HERE, "config.json")
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ("orbits-exact", "forms-float", "fields", "cli")
# fresh processes timed for setup_s, of which the median is reported; half
# start before the measured pass and half after it (see measure)
SETUPS = 5
# the whole run must end well inside the 180 s a run is allowed
DEADLINE_S = 170
# per-layer metric -> (traced name, "calls" | "self_ms")
NAMED = {
    "exterior.wedge.calls": ("exterior.wedge", "calls"),
    "exterior.interior_vector.calls": ("exterior.interior_vector", "calls"),
    "exterior.pullback.calls": ("exterior.KForm.pullback", "calls"),
    "symplectic.bot.calls": ("symplectic.bot", "calls"),
    "lr.q_form.self_ms": ("lr.q_form", "self_ms"),
    "lr.signature.self_ms": ("lr.signature", "self_ms"),
    "hitchin.hitchin_k.calls": ("hitchin.hitchin_k", "calls"),
    "hitchin.pfaffian.calls": ("hitchin.pfaffian", "calls"),
    "fields.evaluate.calls": ("fields.FormField.evaluate", "calls"),
    "fields.d_numeric.calls": ("fields.d_numeric", "calls"),
    "fields.riemann.self_ms": ("fields.riemann", "self_ms"),
    "poly.eval.calls": ("poly.Poly.eval", "calls"),
}


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(self.end - time.monotonic(), 0.01)


def _spawn(argv, deadline):
    """Start a worker; return it, the seconds until it printed READY and the
    host-speed report that came with READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            env=child_env())
    ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
    line = proc.stdout.readline() if ready else b"(timed out)"
    dt = time.perf_counter() - t0
    if not line.startswith(b"READY "):
        _stop(proc)
        raise BenchError(f"{' '.join(argv)}: no READY (got {line[:200]!r})")
    return proc, dt, json.loads(line[len(b"READY "):])


def _finish(proc, argv, deadline):
    """Wait for a child; return its JSON result (last stdout line) or None."""
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"{' '.join(argv)}: timed out")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)}: exit {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _stop(proc):
    proc.kill()
    proc.communicate()


def _worker_argv(workload, seed, seconds, mode, *extra):
    return ["perfbench/worker.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, *extra]


# --- end-to-end run ----------------------------------------------------------

def measure(workload, seed, seconds, deadline):
    """Run the workload; returns (result, scaled setup times, raw setup times,
    peak RSS of the workload process in KB).

    The host's speed changes in phases of a few seconds, which the scaling
    (calib.py) corrects only in part for set-up, so the set-up processes
    are spread around the measured pass: ``SETUPS // 2`` before it, the
    measuring worker's own set-up, and the rest after it.
    """
    if workload == "cli":
        r = cliload.measure(seed, seconds, SETUPS, OUT)
        return r, r["setup"], r["raw_setup"], r["peak_rss_kb"]
    setup, raw_setup = [], []
    for k in range(SETUPS):
        mode = "measure" if k == SETUPS // 2 else "setup"
        argv = _worker_argv(workload, seed, seconds, mode)
        proc, dt, report = _spawn(argv, deadline)
        setup.append(calib.scale_outside(dt, report))
        raw_setup.append(dt)
        out = _finish(proc, argv, deadline)
        if mode == "measure":
            r = out
    return r, setup, raw_setup, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def tail(lat):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with 10 or fewer samples
    no percentile qualifies, and the maximum is returned as p100.
    """
    s = sorted(lat)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def end_to_end(r, setup, raw_setup, rss_kb):
    lat, raw = r["latencies"], r["raw_latencies"]
    t, pct, beyond = tail(lat)
    attempted, failed = r["attempted"], len(r["failures"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (t * 1000, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    details = {"samples": len(lat), "tail_percentile": pct,
               "tail_samples_beyond": beyond, "setup_samples": len(setup),
               "failed_ratio": failed / attempted,
               "raw": {"setup_s": statistics.median(raw_setup),
                       "throughput_ops_s": len(raw) / sum(raw),
                       "latency_p50_ms": statistics.median(raw) * 1000,
                       "latency_tail_ms": tail(raw)[0] * 1000,
                       "busy_s": sum(raw)}}
    return metrics, details


# --- traced run --------------------------------------------------------------

def traced(workload, seed, config, deadline):
    """The traced run: one cycle for cli, ``trace_ops`` ops for the others."""
    if workload == "cli":
        r = cliload.trace(seed, OUT)
    else:
        n_ops = config["trace_ops"][workload]
        argv = _worker_argv(workload, seed, 0, "trace", "--trace-ops", str(n_ops),
                            "--trace-out", os.path.join(OUT, f"trace-{workload}.json"))
        r = _finish(_spawn(argv, deadline)[0], argv, deadline)
    # the floor of a cli op: a cli child that runs no ma6 code; then one
    # that only imports ma6 (median of three each, at reference speed)
    interp = statistics.median(cliload.code_time("pass", OUT) for _ in range(3))
    imp = statistics.median(cliload.code_time("import ma6", OUT) for _ in range(3))
    return r, per_layer(r, interp, imp)


def per_layer(r, interpreter_s, import_s):
    n = r["attempted"]
    summary = r["summary"]

    def get(name, kind):
        calls, self_ns = summary.get(name, (0, 0))
        return calls / n if kind == "calls" else self_ns / 1e6 / n

    metrics = {}
    for m in MODULES:
        rows = [v for k, v in summary.items() if k.startswith(m + ".")]
        metrics[f"{m}.calls"] = (sum(c for c, _ in rows) / n, "count")
        metrics[f"{m}.self_ms"] = (sum(s for _, s in rows) / 1e6 / n, "ms")
    for metric, (name, kind) in NAMED.items():
        metrics[metric] = (get(name, kind), "count" if kind == "calls" else "ms")
    pf = summary.get("hitchin.pfaffian", (0, 0))[0]
    points = r["lambda_points"]
    metrics["fields.stencil_points_per_pfaffian"] = (points / pf if pf else 0.0, "ratio")
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (r["traced_s"] / r["untraced_s"], "ratio")
    details = {"trace_ops": n, "stencil_points": points, "pfaffian_calls": pf,
               "calls_per_op": {k: v[0] / n for k, v in summary.items()},
               "untraced_s": r["untraced_s"], "traced_s": r["traced_s"]}
    return metrics, details


# --- reporting ---------------------------------------------------------------

def machine():
    import numpy
    import scipy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def report(workload, seed, trace, r, metrics, details, expected):
    failures = r["failures"]
    unexpected = [f for f in failures if f.get("label") not in expected]
    print(f"ma6 benchmark: workload {workload}, seed {seed}, trace {trace}: "
          f"{r['attempted']} ops, {len(failures)} failed "
          f"({len(failures) - len(unexpected)} expected)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for kind, group in (("unexpected", unexpected),
                        ("expected", [f for f in failures if f not in unexpected])):
        if group:
            f = group[0]
            print(f"first {kind} failure: op {f['op']}: {f['error'].strip()}")
            print(f"  input: {json.dumps(f['input'], default=str)}")
            print(f"  reproduce: python3 perfbench/run.py --workload {workload} "
                  f"--seed {seed} --replay {f['op']}")
    print("details: " + json.dumps(details, default=str))
    result = {"correct": not unexpected, "attempted": r["attempted"],
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))


def replay(workload, seed, op):
    if workload == "cli":
        return 1 if cliload.replay(seed, op, OUT)["failures"] else 0
    argv = _worker_argv(workload, seed, 0, "replay", "--op", str(op))
    proc = subprocess.run([sys.executable, *argv], env=child_env(),
                          capture_output=True, timeout=DEADLINE_S)
    lines = proc.stdout.decode().strip().splitlines()
    print("\n".join(ln for ln in lines[:-1] if not ln.startswith("READY")))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        return 1
    return 1 if json.loads(lines[-1])["failures"] else 0


def main(argv=None):
    with open(CONFIG) as fh:
        config = json.load(fh)
    with open(BENCHMARK) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=int, default=None, metavar="OP")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ma6", "__init__.py")):
        print("error: run from the root of an ma6 checkout (no src/ma6 here)",
              file=sys.stderr)
        return 2
    # the cli workload's client generates documents with ma6 in this process
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT, exist_ok=True)
    if args.replay is not None:
        return replay(args.workload, args.seed, args.replay)
    deadline = Deadline(DEADLINE_S)
    try:
        if args.trace:
            r, (metrics, details) = traced(args.workload, args.seed, config, deadline)
        else:
            r, setup, raw_setup, rss_kb = measure(args.workload, args.seed,
                                                  args.seconds, deadline)
            metrics, details = end_to_end(r, setup, raw_setup, rss_kb)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "machine": machine(),
               **details}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"details": details, "failures": r["failures"],
                   "metrics": metrics}, fh, indent=1, default=str)
    expected = config["expected_failures"].get(args.workload, {})
    report(args.workload, args.seed, args.trace, r, metrics, details, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``cli`` workload: a closed loop with one client running sequential
``python -m ma6.cli`` children with ``PYTHONPATH=src``.

Used by ``run.py``, in whose process ``RUSAGE_CHILDREN`` sees only these
children.  Each child is ``perfbench/clichild.py``, which runs ``ma6.cli``
as ``python -m ma6.cli`` does and reports the host speed it saw.  One cycle
runs ten children in a fixed order; a run is a whole number of cycles, so
the two known-defect probes are always the same share of the attempted
ops (config.json lists them as expected failures).  Documents come from
the orbit generator of the in-process workloads; every other argument is
derived from the seed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time

import calib


def child_env():
    """The environment of every process that runs ma6: the package from
    ``src``, and one thread (no BLAS worker threads)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cycle(seed, c):
    """The ten ops of cycle c: (label, argv, stdin document, expectation)."""
    from ma6.classify import TABLE1_CLASSES
    from ma6.documents import serialize_form
    from workloads import orbit_form

    rng = random.Random(f"cli:{seed}:{c}")
    row = rng.randint(1, 9)
    exact_doc = serialize_form(orbit_form(rng, row)[0])
    float_row = rng.randint(1, 9)
    float_doc = serialize_form(orbit_form(rng, float_row)[0])
    split_row = rng.randint(1, 3)
    split_doc = serialize_form(orbit_form(rng, split_row)[0])
    branch = "hyperbolic" if split_row == 1 else "elliptic"
    s = str(rng.randint(0, 10 ** 6))
    gamma = str(rng.randint(0, 3))
    b = str(rng.randint(1, 3))
    # SecondDerivative + 1e-5·Laplace (roadmap 4(a)) and a NaN coefficient
    # (roadmap 4(b)): documented exits 4 and 2; both exit 1 with a traceback
    # while those defects stand.
    near = {"version": 1, "scalar": "float", "grade": 3,
            "coefficients": {"234": 1 + 1e-5, "135": -1e-5, "126": 1e-5}}
    nan = {"version": 1, "scalar": "float", "grade": 3,
           "coefficients": {"123": float("nan"), "456": 1.0}}
    return [
        ("classify-exact", ["classify"], exact_doc,
         {"exit": 0, "class": TABLE1_CLASSES[row].value}),
        ("classify-float", ["classify", "--scalar", "float"], float_doc,
         {"exit": 0, "class": TABLE1_CLASSES[float_row].value}),
        ("split", ["split"], split_doc,
         {"exit": 0, "branch": branch, "structure": True}),
        ("cs-regular", ["check-solution", "--solution", "cs-regular", "--seed", s],
         None, {"exit": 0, "passed": True}),
        ("cs-generalized", ["check-solution", "--solution", "cs-generalized",
                            "--gamma", gamma, "--seed", s], None,
         {"exit": 0, "passed": True}),
        ("hess-one", ["check-solution", "--solution", "hess-one", "--b", b,
                      "--seed", s], None, {"exit": 0, "passed": True}),
        ("demo-cs", ["demo", "cs", "--gamma", gamma, "--seed", s], None,
         {"exit": 0, "passed": True}),
        ("demo-s6", ["demo", "s6", "--seed", s], None, {"exit": 0, "passed": True}),
        ("probe-near-boundary", ["classify", "--scalar", "float"], near, {"exit": 4}),
        ("probe-nan", ["classify", "--scalar", "float"], nan, {"exit": 2}),
    ]


def _child(args, stdin, out_dir, trace_out=None):
    """Run clichild.py with ``args``; (raw seconds, seconds at reference
    speed, the finished process)."""
    speed_out = os.path.join(out_dir, "speed-cli-child.json")
    if os.path.exists(speed_out):
        os.remove(speed_out)
    prog = ["perfbench/clichild.py", speed_out]
    if trace_out:
        prog += ["--trace", trace_out]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *prog, *args], input=stdin,
                          capture_output=True, env=child_env(), timeout=120)
    raw = time.perf_counter() - t0
    with open(speed_out) as fh:
        scaled = calib.scale_outside(raw, json.load(fh))
    return raw, scaled, proc


def run_child(op, out_dir, trace_out=None):
    """Run one op; (raw seconds, seconds at reference speed, error or None)."""
    _, argv, doc, expect = op
    stdin = json.dumps(doc).encode() if doc is not None else b""
    raw, scaled, proc = _child(argv, stdin, out_dir, trace_out)
    return raw, scaled, _verdict(proc, expect)


def code_time(code, out_dir):
    """Seconds at reference speed of a child that runs ``code`` instead of
    ma6.cli: its interpreter start and speed sampling, and ``code``."""
    _, scaled, proc = _child(["-c", code], b"", out_dir)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, ["clichild.py", "-c", code])
    return scaled


def _verdict(proc, expect):
    err = proc.stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in err:
        return f"exit {proc.returncode} with a traceback: {err.strip().splitlines()[-1]}"
    if proc.returncode != expect["exit"]:
        return f"exit {proc.returncode}, expected {expect['exit']}"
    if expect["exit"] != 0:
        return None
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        return "report is not JSON"
    for key in ("class", "branch", "passed"):
        if key in expect and report.get(key) != expect[key]:
            return f"{key} {report.get(key)!r}, expected {expect[key]!r}"
    if expect.get("structure") and "structure" not in report:
        return "split report has no exact structure"
    return None


def _failure(c, k, op, err):
    label, argv, doc, _ = op
    return {"op": c * 10 + k, "label": label, "error": err,
            "input": {"argv": argv, "stdin": doc}}


def run_children(ops, out_dir, trace=False):
    """Run children in order; with ``trace``, sum their traced calls."""
    raw, scaled, failures, summary = [], [], [], {}
    for i, (c, k, op) in enumerate(ops):
        path = os.path.join(out_dir, f"trace-cli-{i}.json") if trace else None
        dt, st, err = run_child(op, out_dir, trace_out=path)
        raw.append(dt)
        scaled.append(st)
        if err is not None:
            failures.append(_failure(c, k, op, err))
        if path:
            with open(path) as fh:
                for name, (calls, self_ns) in json.load(fh)["summary"].items():
                    acc = summary.setdefault(name, [0, 0])
                    acc[0] += calls
                    acc[1] += self_ns
    return {"latencies": scaled, "raw_latencies": raw, "attempted": len(raw),
            "failures": failures, "summary": summary}


def measure(seed, seconds, setups, out_dir):
    """Ops in whole cycles until ``seconds`` of op time at the reference
    speed; ``setups`` runs of the first op, half before the ops and half
    after, so that they meet more than one phase of the host."""
    first = (0, 0, cycle(seed, 0)[0])
    setup = run_children([first] * (setups // 2), out_dir)
    result = {"latencies": [], "raw_latencies": [], "attempted": 0, "failures": []}
    c = 0
    while sum(result["latencies"]) < seconds:
        r = run_children([(c, k, op) for k, op in enumerate(cycle(seed, c))], out_dir)
        for key in ("latencies", "raw_latencies", "failures"):
            result[key] += r[key]
        result["attempted"] += r["attempted"]
        c += 1
    after = run_children([first] * (setups - setups // 2), out_dir)
    result["setup"] = setup["latencies"] + after["latencies"]
    result["raw_setup"] = setup["raw_latencies"] + after["raw_latencies"]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return result


def trace(seed, out_dir):
    ops = [(0, k, op) for k, op in enumerate(cycle(seed, 0))]
    untraced = run_children(ops, out_dir)
    result = run_children(ops, out_dir, trace=True)
    result.update(untraced_s=sum(untraced["latencies"]),
                  traced_s=sum(result["latencies"]), lambda_points=0)
    return result


def replay(seed, op, out_dir):
    c, k = divmod(op, 10)
    spec = cycle(seed, c)[k]
    print(json.dumps({"label": spec[0], "argv": spec[1], "stdin": spec[2]}))
    dt, _, err = run_child(spec, out_dir)
    print(f"op {op}: {dt * 1000:.1f} ms, " + ("ok" if err is None else f"FAILED: {err}"))
    return {"attempted": 1,
            "failures": [] if err is None else [_failure(c, k, spec, err)]}

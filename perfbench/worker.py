"""One workload process of the ma6 benchmark.

Started by ``run.py`` with ``PYTHONPATH=src`` from the checkout root:

    python perfbench/worker.py --workload W --seed S --seconds T --mode M

Set-up is ``import ma6``, ``standard_space()`` and one untimed warm-up op;
the worker prints ``READY`` and its host-speed report (calib.py) when it is
done, so the parent can time it from process start.  Modes:

- ``setup``: exit after set-up.
- ``measure``: run ops in a closed loop until ``--seconds`` of op time at
  the reference speed has passed.  Each op's input is generated fresh just
  before it, so no input repeats; only the op is timed, not the generation
  or the oracle check that follows it.  Latencies are reported raw and
  scaled to the reference host speed (calib.py).
- ``trace``: run the first ``--trace-ops`` ops untraced, then the same ops
  traced, and report calls and self time for every traced name.
- ``replay``: run op ``--op`` once and print its input, output verdict and
  timing.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import traceback

import calib


def _run_op(w, i, speed, tracer=None):
    """(raw seconds, seconds at reference speed, error or None) for op i.
    Only the op itself is timed, and traced when a tracer is given.  The
    young generations are collected before the op, so that the garbage of
    input generation and of the last oracle check is not collected inside
    the op, and each op starts from the same collector state."""
    inp = w.input(i)
    gc.collect(1)
    if tracer is not None:
        tracer.op = i
    speed.start()
    try:
        out, err = w.run(inp), None
    except Exception:
        out, err = None, traceback.format_exc(limit=3)
    raw, scaled = speed.stop()
    if tracer is not None:
        tracer.op = -1
    if err is None:
        try:
            err = w.check(inp, out)
        except Exception:
            err = "oracle raised: " + traceback.format_exc(limit=3)
    return raw, scaled, err


def _failure(w, i, err):
    return {"op": i, "error": err, "input": w.describe(w.input(i))}


def run_ops(w, speed, seconds=None, n_ops=None, tracer=None):
    """Run ops 0, 1, ... until ``seconds`` of op time at the reference speed
    (calib.py) or ``n_ops`` ops."""
    raw, scaled, failures = [], [], []
    i = 0
    with speed:
        while sum(scaled) < seconds if n_ops is None else i < n_ops:
            dt, st, err = _run_op(w, i, speed, tracer)
            raw.append(dt)
            scaled.append(st)
            if err is not None:
                failures.append(_failure(w, i, err))
            i += 1
    return {"latencies": scaled, "raw_latencies": raw, "attempted": i,
            "failures": failures}


def trace(w, n_ops, out_path):
    import workloads
    from tracing import Tracer

    untraced = run_ops(w, calib.Speedometer(), n_ops=n_ops)
    speed = calib.Speedometer()
    tracer = Tracer(speed.clock_ns)
    tracer.install(workloads)
    result = run_ops(w, speed, n_ops=n_ops, tracer=tracer)
    scale = [s / r for s, r in zip(result["latencies"], result["raw_latencies"])]
    result.update(summary=tracer.dump(out_path, scale),
                  untraced_s=sum(untraced["latencies"]),
                  traced_s=sum(result["latencies"]),
                  lambda_points=n_ops * w.LAMBDA_POINTS_PER_OP)
    return result


def replay(w, i):
    print(json.dumps(w.describe(w.input(i)), default=str))
    dt, _, err = _run_op(w, i, calib.Speedometer())
    print(f"op {i}: {dt * 1000:.3f} ms, " + ("ok" if err is None else f"FAILED: {err}"))
    return {"attempted": 1, "failures": [] if err is None else [_failure(w, i, err)]}


def main():
    speed = calib.Speedometer().__enter__()
    speed.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "replay"),
                    required=True)
    ap.add_argument("--trace-ops", type=int, default=1)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--op", type=int, default=0)
    args = ap.parse_args()

    import ma6
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, ma6.standard_space())
    w.run(w.input(0))  # warm-up
    raw, scaled = speed.stop()
    speed.__exit__()
    print("READY " + json.dumps(speed.report(raw, scaled)), flush=True)
    if args.mode == "setup":
        return
    if args.mode == "replay":
        result = replay(w, args.op)
    else:
        result = (run_ops(w, calib.Speedometer(), seconds=args.seconds)
                  if args.mode == "measure"
                  else trace(w, args.trace_ops, args.trace_out))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())

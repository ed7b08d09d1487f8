"""One child process of the cli workload.

    python perfbench/clichild.py SPEED_OUT [--trace TRACE_OUT] ARGS...
    python perfbench/clichild.py SPEED_OUT -c CODE

Runs ``ma6.cli`` with ARGS the way ``python -m ma6.cli ARGS`` does (through
runpy), or runs CODE the way ``python -c CODE`` does, while a Speedometer
(calib.py) samples the host speed from the start of this script to its exit
and writes its report to SPEED_OUT.  With ``--trace``, the tracer
(tracing.py) is installed first and its spans are written to TRACE_OUT.
"""

import sys

import calib

speed = calib.Speedometer().__enter__()
speed.start()

import json  # noqa: E402
import runpy  # noqa: E402


def main():
    speed_out, args = sys.argv[1], sys.argv[2:]
    tracer = None
    if args[:1] == ["--trace"]:
        from tracing import Tracer

        trace_out, args = args[1], args[2:]
        tracer = Tracer(speed.clock_ns)
        tracer.install()
        tracer.op = 0
    try:
        if args[:1] == ["-c"]:
            exec(args[1], {"__name__": "__main__"})
        else:
            sys.argv = ["ma6.cli", *args]
            runpy.run_module("ma6.cli", run_name="__main__", alter_sys=True)
    finally:
        raw, scaled = speed.stop()
        speed.__exit__()
        if tracer is not None:
            tracer.dump(trace_out, [scaled / raw])
        with open(speed_out, "w") as fh:
            json.dump(speed.report(raw, scaled), fh)


main()

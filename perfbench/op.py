"""One benchmark operation, run in a fresh interpreter by run.py.

    op.py setup CURVE                 import trcycles, parse CURVE
    op.py cli [--trace OUT] ARGS...   trcycles ARGS (as the console script)
    op.py levels CURVE K              untraced compute_omega_table(curve, k)
                                      for k = 1..K; prints the seconds of each
"""

import json
import sys
import time


def main(argv):
    mode = argv[0]
    if mode == "setup":
        from trcycles.serialize import parse_curve_spec
        with open(argv[1], encoding="utf-8") as fh:
            parse_curve_spec(fh.read())
        return 0
    if mode == "levels":
        from trcycles.recursion import compute_omega_table
        from trcycles.serialize import parse_curve_spec
        with open(argv[1], encoding="utf-8") as fh:
            curve = parse_curve_spec(fh.read())
        seconds = []
        for k in range(1, int(argv[2]) + 1):
            t0 = time.perf_counter()
            compute_omega_table(curve, k)
            seconds.append(time.perf_counter() - t0)
        print(json.dumps(seconds))
        return 0
    if mode == "cli":
        args = argv[1:]
        trace_out = None
        if args[:1] == ["--trace"]:
            trace_out, args = args[1], args[2:]
        from trcycles.cli import main as trcycles_main
        if trace_out is None:
            return trcycles_main(args)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            return tracer.root("cli.main", trcycles_main, args)
        finally:
            tracer.dump(trace_out)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

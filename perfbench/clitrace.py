"""Traced stand-in for `python -m pmsdelta ARGS` (cli-cold traced phase).

    PERFBENCH_SPAWN=<parent perf_counter at spawn> PERFBENCH_SPANS=<out.npz> \
        python perfbench/clitrace.py ARGS

Timestamps the interpreter start, `import numpy` and `import pmsdelta`,
installs the tracer, runs the package's __main__ exactly as `-m` would, and
writes the spans when cli.main returns, then the time teardown begins to
SPANS.end.  Exits with the CLI's exit code.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy  # noqa: E402, F401

T_NUMPY = time.perf_counter()

import pmsdelta  # noqa: E402
import pmsdelta.cli  # noqa: E402, F401  (-m imports it before main runs)

T_PKG = time.perf_counter()

from spans import Tracer, cache_snapshot  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.begin_op(0)
    tracer.add_span("startup.interp", float(os.environ["PERFBENCH_SPAWN"]), T_START)
    tracer.add_span("startup.numpy_import", T_START, T_NUMPY)
    tracer.add_span("startup.pkg_import", T_NUMPY, T_PKG)
    tracer.install(pmsdelta)
    before = cache_snapshot(pmsdelta)
    sys.argv = ["pmsdelta"] + sys.argv[1:]
    code = 0
    try:
        runpy.run_module("pmsdelta", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        spans = os.environ["PERFBENCH_SPANS"]
        tracer.dump(spans, {"caches_before": before, "caches_after": cache_snapshot(pmsdelta)})
        # Interpreter teardown starts here; the parent times it up to exit.
        with open(spans + ".end", "w", encoding="utf-8") as handle:
            handle.write(repr(time.perf_counter()))
    return code


if __name__ == "__main__":
    sys.exit(main())

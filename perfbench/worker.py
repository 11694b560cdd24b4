"""The measured process of the in-process workloads.

    python perfbench/worker.py PLAN OUT --mode setup|run --seconds S --trace 0|1

Starts fresh, imports numpy and pmsdelta (timestamped for the start-up
split), runs the untimed warm-up pass, and in run mode executes the plan as a
single-client closed loop: the next operation starts only when the previous
one has returned.  Rounds are seeded permutations of the pool; round 0 also
carries the near-singular operations (keys -1, -2, ...), spread evenly, so
every phase executes each of them exactly once.  Rounds repeat until `seconds`
have passed (oracle-sweep: a fixed number of rounds, see
FIXED_ROUNDS_PER_SECOND), and only whole rounds are run.

With --trace 1 the same loop runs twice: untraced, then with the tracer
installed.  Only the parent computes references and checks
outputs; nothing here imports mpmath.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy  # noqa: E402

T_NUMPY = time.perf_counter()

import pmsdelta  # noqa: E402

T_PKG = time.perf_counter()

import hostspeed  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402


def interleave(seq: list, extra: list) -> list:
    """Spread `extra` evenly through `seq`, the first one at the front."""
    if not extra:
        return list(seq)
    out, step = [], max(1, len(seq) // len(extra))
    pending = list(extra)
    for i, item in enumerate(seq):
        if i % step == 0 and pending:
            out.append(pending.pop(0))
        out.append(item)
    return out + pending


def execute(op: dict) -> tuple:
    """(status, values) of one operation; a raise is recorded, not fatal."""
    try:
        values = ops.run(op)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"[:200], None
    if not all(math.isfinite(v) for v in values):
        return "non-finite value", values
    return "ok", values


# oracle-sweep runs a fixed amount of work, scaled by --seconds, instead of
# stopping on the clock.  Its near-singular set is a fixed ~10 s block; with a
# clock-bound loop a slower host shrinks the regular part around that block,
# so ops_per_s would fall twice as fast as the host slowed.  10 rounds per
# second make a run last about `seconds` at the seed commit.
FIXED_ROUNDS_PER_SECOND = {"oracle-sweep": 10}
# Host speed is re-measured at a round boundary at most this often; op_ms
# holds wall times scaled to the reference host (see hostspeed.py).
CALIBRATION_INTERVAL_S = 0.5


def run_phase(plan: dict, workload: str, seed: int, seconds: float, tracer=None) -> dict:
    """Timed loop.  Keeps one float and one int per execution, plus the first
    output of each operation, so memory does not grow with the op count."""
    pool, near = plan["pool"], plan["near_singular"]
    rate = FIXED_ROUNDS_PER_SECOND.get(workload) if tracer is None else None
    rounds = max(1, round(rate * seconds)) if rate else None
    which, op_ms, factors = array("i"), array("d"), []
    first: dict = {}
    mismatch = set()
    start = time.perf_counter()
    round_index, next_calibration, busy_s = 0, start, 0.0
    while True:
        if time.perf_counter() >= next_calibration:
            factors.append(hostspeed.factor())
            next_calibration = time.perf_counter() + CALIBRATION_INTERVAL_S
        seq = workloads.round_order(workload, seed, round_index, len(pool))
        if round_index == 0:
            seq = interleave(seq, [-(j + 1) for j in range(len(near))])
        for key in seq:
            op = pool[key] if key >= 0 else near[-key - 1]
            if tracer is not None:
                tracer.begin_op(len(op_ms))
            t0 = time.perf_counter()
            output = execute(op)
            seconds_taken = time.perf_counter() - t0
            busy_s += seconds_taken
            op_ms.append(seconds_taken * 1e3 * factors[-1])
            which.append(key)
            if first.setdefault(key, output) != output:
                mismatch.add(key)
        round_index += 1
        if round_index == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            break
    return {"which": which, "op_ms": op_ms, "busy_s": busy_s, "rounds": round_index,
            "first": first, "mismatch": sorted(mismatch),
            "host_factor": statistics.median(factors)}


def _jsonable(phase: dict) -> dict:
    out = dict(phase, which=phase["which"].tolist(), op_ms=phase["op_ms"].tolist())
    out["first"] = {str(k): v for k, v in phase["first"].items()}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("out")
    parser.add_argument("--mode", choices=["setup", "run"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    workload, seed = plan["workload"], plan["seed"]
    for i in workloads.warmup_indices(plan["pool"]):
        execute(plan["pool"][i])
    t_ready = time.perf_counter()
    hostspeed.factor()  # warm the kernel outside every timed region
    result = {
        "spawn": float(os.environ["PERFBENCH_SPAWN"]),
        "start": T_START, "numpy": T_NUMPY, "pkg": T_PKG, "ready": t_ready,
        "numpy_version": numpy.__version__,
    }
    if args.mode == "run":
        if args.trace:
            from spans import Tracer, cache_snapshot

            result["untraced"] = run_phase(plan, workload, seed, args.seconds)
            tracer = Tracer()
            tracer.add_span("startup.interp", result["spawn"], T_START)
            tracer.add_span("startup.numpy_import", T_START, T_NUMPY)
            tracer.add_span("startup.pkg_import", T_NUMPY, T_PKG)
            tracer.install(pmsdelta)
            before = cache_snapshot(pmsdelta)
            result["traced"] = run_phase(plan, workload, seed, args.seconds, tracer)
            tracer.dump(args.spans, {"caches_before": before,
                                     "caches_after": cache_snapshot(pmsdelta)})
        else:
            result["untraced"] = run_phase(plan, workload, seed, args.seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for phase in ("untraced", "traced"):
        if phase in result:
            result[phase] = _jsonable(result[phase])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

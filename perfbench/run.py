"""pmsdelta benchmark: three seeded single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the generators):

  cli-cold           one fresh `python -m pmsdelta ...` per operation;
                     interpreter, numpy and package start-up dominate.
  engine-high-order  expansion-engine calls at orders 24..64, in-process
                     and warm; series_core.expand dominates.
  oracle-sweep       low-order series against the quadrature/AGM oracle,
                     in-process and warm, with a fixed near-singular set;
                     oracle.integrate and its integrand dominate.

Every operation's output is checked against mpmath references computed
after the timed loop.  The last stdout line is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0; with --trace 1 the loop runs once untraced and once traced, and
the per-layer metrics come from the traced pass.
Provenance, the full result and the traces are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# cli-cold operations take ~0.3 s, so 30 s give ~100; p90 needs at least 10
# samples beyond it, which 105 (five rounds of 21) give.
CLI_MIN_OPS = 105

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "result_digits_mean": "digits",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Spawned:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv: list[str], extra_env: dict | None = None):
        # Host speed just before the child starts; wall_s * host_factor is
        # the child's time on the reference host (see hostspeed.py).
        self.host_factor = hostspeed.factor()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(extra_env or {})
        with tempfile.TemporaryFile(dir=STATE) as out, tempfile.TemporaryFile(dir=STATE) as err:
            self.spawn = time.perf_counter()
            env["PERFBENCH_SPAWN"] = repr(self.spawn)
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - self.spawn
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = usage.ru_maxrss
            out.seek(0)
            err.seek(0)
            self.out = out.read().decode("utf-8", "replace")
            self.err = err.read().decode("utf-8", "replace")


def _quantile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


# -------------------------------------------------------------- in-process --


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, ref) -> dict:
    import check

    plan = workloads.plan(workload, seed)
    plan.update(workload=workload, seed=seed)
    tag = f"{workload}-seed{seed}"
    plan_path = os.path.join(STATE, f"plan-{tag}.json")
    out_path = os.path.join(STATE, f"worker-{tag}.json")
    spans_path = os.path.join(STATE, "traces", f"{workload}.npz")  # latest traced run
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path]

    def launch(*flags) -> tuple[float, dict]:
        child = Spawned(worker + list(flags))
        if child.code != 0:
            raise RuntimeError(f"worker exited {child.code}: {child.err[-2000:]}")
        with open(out_path, encoding="utf-8") as handle:
            return child.host_factor, json.load(handle)

    setups = [launch("--mode", "setup") for _ in range(SETUP_SAMPLES)]
    _, result = launch("--mode", "run", "--seconds", str(seconds), "--trace", str(int(trace)),
                       "--spans", spans_path)
    outcome = Outcome()
    phases = [result["untraced"]] + ([result["traced"]] if trace else [])
    for phase in phases:
        outcome.deterministic &= not phase["mismatch"]
        for key in phase["which"]:
            status, values = phase["first"][str(key)]
            op = plan["pool"][key] if key >= 0 else plan["near_singular"][-key - 1]
            if status != "ok":
                outcome.fail(key, status)
            else:
                outcome.ok(key, values, lambda: check.op_digits(values, check.expected(op, ref)))
    summary = {
        "setup_s": statistics.median((s["ready"] - s["spawn"]) * f for f, s in setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "numpy_version": result["numpy_version"],
        "phases": [{key: p[key] for key in ("op_ms", "busy_s", "rounds", "host_factor")}
                   for p in phases],
    }
    if trace:
        import layers

        totals = layers.Totals()
        totals.add(layers.load(spans_path))
        summary["totals"] = totals
    return {"outcome": outcome, **summary}


# ----------------------------------------------------------------- cli-cold --


def run_cli(seed: int, seconds: float, trace: bool, ref) -> dict:
    import check

    pool = workloads.cli_plan(seed)["pool"]
    setups = []
    for _ in range(SETUP_SAMPLES):
        child = Spawned([sys.executable, "-c", "import pmsdelta"])
        setups.append(child.wall_s * child.host_factor)
    outcome = Outcome()
    totals = None
    phases = []
    plan = [(seconds, False), (seconds, True)] if trace else [(seconds, False)]
    trace_dir = os.path.join(STATE, "traces", "cli-cold")  # latest traced run
    if trace:
        import layers

        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        totals = layers.Totals()
    peak_kb = 0
    runs = []  # (pool index, child, spans path) of every invocation
    for phase_seconds, traced in plan:
        op_ms, factors, busy_s, start, round_index = [], [], 0.0, time.perf_counter(), 0
        while True:
            for i in workloads.round_order("cli-cold", seed, round_index, len(pool)):
                spans = None
                if traced:
                    spans = os.path.join(trace_dir, f"{len(op_ms)}.npz")
                    child = Spawned([sys.executable, os.path.join(HERE, "clitrace.py")]
                                    + pool[i]["argv"], {"PERFBENCH_SPANS": spans})
                else:
                    child = Spawned([sys.executable, "-m", "pmsdelta"] + pool[i]["argv"])
                    peak_kb = max(peak_kb, child.peak_rss_kb)
                op_ms.append(child.wall_s * 1e3 * child.host_factor)
                busy_s += child.wall_s
                factors.append(child.host_factor)
                runs.append((i, child, spans))
            round_index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= phase_seconds and (trace or len(op_ms) >= CLI_MIN_OPS):
                break
        phases.append({"op_ms": op_ms, "busy_s": busy_s, "rounds": round_index,
                       "host_factor": statistics.median(factors)})
    # Checked after the timed loops.  Identical invocations must give
    # identical output; each distinct output is checked once.
    seen: dict = {}
    for i, child, spans in runs:
        op = pool[i]
        if spans is not None:
            totals.add(layers.load(spans, child.spawn + child.wall_s))
        key = (i, child.code, child.out, child.err if child.code else "")
        if key not in seen:
            seen[key] = check.check_cli(op, child.code, child.out, child.err, ref)
        reason, digits = seen[key]
        if reason is not None:
            outcome.fail(i, reason)
        else:
            outcome.ok(i, (child.code, child.out), lambda d=digits: d)
    import numpy

    return {"outcome": outcome, "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024.0, "numpy_version": numpy.__version__,
            "phases": phases, "totals": totals}


# ------------------------------------------------------------------ checks --


class Outcome:
    """Failures and correct digits over all executed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.digits: dict = {}
        self.outputs: dict = {}
        self.deterministic = True

    def fail(self, key, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        self.outputs.setdefault(key, reason)
        self.deterministic &= self.outputs[key] == reason

    def ok(self, key, output, digits) -> None:
        self.attempted += 1
        first = self.outputs.setdefault(key, output)
        self.deterministic &= first == output
        if key not in self.digits:
            self.digits[key] = digits()

    def digit_values(self) -> list[float]:
        return [d for d in self.digits.values() if d is not None]


# ----------------------------------------------------------------- metrics --


def provenance(seed: int, numpy_version: str) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def end_to_end(run: dict) -> dict:
    phase = run["phases"][0]
    outcome = run["outcome"]
    digits = outcome.digit_values()
    values = {
        "setup_s": run["setup_s"],
        "op_ms_p50": statistics.median(phase["op_ms"]),
        "op_ms_p90": _quantile_90(phase["op_ms"]),
        "ops_per_s": 1e3 * len(phase["op_ms"]) / sum(phase["op_ms"]),
        "result_digits_mean": statistics.fmean(digits) if digits else 0.0,
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(run: dict) -> dict:
    import layers

    untraced, traced = run["phases"]
    digits = run["outcome"].digit_values()
    return layers.metrics(
        run["totals"],
        n_ops=len(traced["op_ms"]),
        op_wall_s=traced["busy_s"],
        ops_per_s_untraced=1e3 * len(untraced["op_ms"]) / sum(untraced["op_ms"]),
        ops_per_s_traced=1e3 * len(traced["op_ms"]) / sum(traced["op_ms"]),
        digits_min=min(digits) if digits else 0.0,
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import check

    ref = check.RefCache(os.path.join(STATE, "refcache.json"))
    try:
        if workload == "cli-cold":
            run = run_cli(seed, seconds, trace, ref)
        else:
            run = run_inprocess(workload, seed, seconds, trace, ref)
    finally:
        ref.save()
    outcome = run["outcome"]
    metrics = per_layer(run) if trace else end_to_end(run)
    digits = outcome.digit_values()
    return {
        "correct": outcome.deterministic and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "detail": {
            "workload": workload,
            "samples": len(run["phases"][0]["op_ms"]),
            "op_ms": run["phases"][0]["op_ms"],
            "rounds": [p["rounds"] for p in run["phases"]],
            "host_factor": [p["host_factor"] for p in run["phases"]],
            "failed_frac": outcome.failed / outcome.attempted,
            "result_digits_min": min(digits) if digits else None,
            "failures": outcome.reasons,
            "provenance": provenance(seed, run["numpy_version"]),
        },
    }


def _report(result: dict, stream) -> None:
    detail = result["detail"]
    stream.write(f"== {detail['workload']}  samples={detail['samples']}"
                 f"  attempted={result['attempted']} failed={result['failed']}"
                 f"  correct={result['correct']}\n")
    for name, metric in result["metrics"].items():
        stream.write(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}\n")
    stream.write(f"  {'failed_frac':44s} {detail['failed_frac']:14.6g} ratio\n")
    if detail["result_digits_min"] is not None:
        stream.write(f"  {'result_digits_min':44s} {detail['result_digits_min']:14.6g} digits\n")
    for reason, count in sorted(detail["failures"].items()):
        stream.write(f"  failure x{count}: {reason}\n")
    stream.write(f"  provenance: {json.dumps(detail['provenance'])}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmsdelta", "__init__.py")):
        sys.stderr.write(f"no pmsdelta sources under {SRC}; nothing to measure\n")
        return 2
    for sub in ("", "traces", "results"):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = os.path.join(STATE, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        _report(result, sys.stderr if args.workload != "all" else sys.stdout)
        results[name] = result
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                          for name, r in results.items()}))
    else:
        result = results[args.workload]
        print(json.dumps({"provenance": result["detail"]["provenance"]}))
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

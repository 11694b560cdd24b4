"""Per-layer metrics from the spans and counts of a traced run.

A span's self time is its duration minus the part covered by its child
spans; calls nest strictly in one thread, so that is the duration minus the
sum of its children's durations.  Times and counts are normalised per traced
operation unless the name says otherwise.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from spans import LAYERS

STUDIES = ("duffing_b0_study", "duffing_error_vs_rho", "sextic_c0_study",
           "negative_rho_study", "precession_error_table")

UNITS = {
    "startup.interp_ms": "ms",
    "startup.numpy_import_ms": "ms",
    "startup.pkg_import_ms": "ms",
    "startup.teardown_ms": "ms",
    "cli.main_ms": "ms",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "series_core.expand.calls": "calls/op",
    "series_core.expand.self_ms": "ms/op",
    "series_core.delta_mults": "count/op",
    "series_core.term_useful_ratio": "ratio",
    "series_core.evaluate.calls": "calls/op",
    "series_core.evaluate.self_ms": "ms/op",
    "series_core.kappa_balance.ms": "ms/op",
    "series_core.kappa_balance.imbalance_evals": "evals/call",
    "series_core.half_binomial.hit_ratio": "ratio",
    "oscillators.sextic_weight.misses": "count/op",
    "oracle.integrate.calls": "calls/op",
    "oracle.integrate.self_ms": "ms/op",
    "oracle.integrate.evals_per_call": "evals/call",
    "oracle.integrate.failed": "calls/op",
    "oracle.elliptic_k.ms": "ms/op",
    "oracle.find_root.g_evals": "evals/call",
    "oracle.fit_log_linear.ms": "ms/op",
    "precession.exact.ms": "ms/op",
    "precession.series.ms": "ms/op",
    **{f"analysis.{study}.ms": "ms/op" for study in STUDIES},
    "trace.ops": "count",
    "trace.layer_coverage": "ratio",
    "trace.overhead_ops_per_s": "1/s",
    "check.result_digits_min": "digits",
}


def load(path: str, exit_time: float | None = None) -> dict:
    """Spans of one traced process.

    exit_time, the parent's clock when a traced CLI process ended, adds a
    startup.teardown span from the moment that process began to exit.
    """
    with np.load(path) as data:
        trace = {key: data[key] for key in ("name", "parent", "op", "start", "end")}
        trace["meta"] = json.loads(str(data["meta"]))
    if exit_time is not None:
        with open(path + ".end", encoding="utf-8") as handle:
            began = float(handle.read())
        names = trace["meta"]["names"]
        names.append("startup.teardown")
        extra = {"name": len(names) - 1, "parent": -1, "op": 0, "start": began,
                 "end": exit_time}
        for key, value in extra.items():
            trace[key] = np.append(trace[key], np.array([value], dtype=trace[key].dtype))
    return trace


class Totals:
    """Sums over any number of traced processes, keyed by span name."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.caches = {"half_binomial": [0, 0], "sextic_weight": [0, 0]}
        self.root_s = 0.0

    def add(self, trace: dict) -> None:
        dur = trace["end"] - trace["start"]
        parent = trace["parent"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        in_op = trace["op"] >= 0
        self.root_s += float(dur[in_op & ~nested].sum())
        names = trace["meta"]["names"]
        for nid, name in enumerate(names):
            mask = trace["name"] == nid
            if name.startswith("startup.") or name == "cli.main":
                self.durations.setdefault(name, []).extend(dur[mask].tolist())
            mask &= in_op
            self.self_s[name] = self.self_s.get(name, 0.0) + float(own[mask].sum())
            self.incl_s[name] = self.incl_s.get(name, 0.0) + float(dur[mask].sum())
            self.calls[name] = self.calls.get(name, 0) + int(mask.sum())
        for key, value in trace["meta"]["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        before, after = trace["meta"]["caches_before"], trace["meta"]["caches_after"]
        for cache, pair in self.caches.items():
            for k in range(2):
                pair[k] += after[cache][k] - before[cache][k]

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(totals: Totals, n_ops: int, op_wall_s: float, ops_per_s_untraced: float,
            ops_per_s_traced: float, digits_min: float) -> dict:
    t, n = totals, max(n_ops, 1)

    def per_op_ms(seconds: float) -> float:
        return 1e3 * seconds / n

    def median_ms(name: str) -> float:
        values = t.durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    hb_hits, hb_misses = t.caches["half_binomial"]
    values = {
        "startup.interp_ms": median_ms("startup.interp"),
        "startup.numpy_import_ms": median_ms("startup.numpy_import"),
        "startup.pkg_import_ms": median_ms("startup.pkg_import"),
        "startup.teardown_ms": median_ms("startup.teardown"),
        "cli.main_ms": median_ms("cli.main"),
        **{f"{layer}.self_ms": per_op_ms(t.layer_self_s(layer)) for layer in LAYERS},
        "series_core.expand.calls": t.calls.get("series_core.expand", 0) / n,
        "series_core.expand.self_ms": per_op_ms(t.self_s.get("series_core.expand", 0.0)),
        "series_core.delta_mults": t.counts.get("series_core.delta_mults", 0) / n,
        "series_core.term_useful_ratio": _ratio(
            t.counts.get("series_core.terms_needed", 0),
            t.counts.get("series_core.terms_computed", 0)),
        "series_core.evaluate.calls": t.calls.get("series_core.evaluate", 0) / n,
        "series_core.evaluate.self_ms": per_op_ms(t.self_s.get("series_core.evaluate", 0.0)),
        "series_core.kappa_balance.ms": per_op_ms(t.incl_s.get("series_core.kappa_balance", 0.0)),
        "series_core.kappa_balance.imbalance_evals": _ratio(
            t.counts.get("series_core.kappa_balance.imbalance_evals", 0),
            t.calls.get("series_core.kappa_balance", 0)),
        "series_core.half_binomial.hit_ratio": _ratio(hb_hits, hb_hits + hb_misses),
        "oscillators.sextic_weight.misses": t.caches["sextic_weight"][1] / n,
        "oracle.integrate.calls": t.calls.get("oracle.integrate", 0) / n,
        "oracle.integrate.self_ms": per_op_ms(t.self_s.get("oracle.integrate", 0.0)),
        "oracle.integrate.evals_per_call": _ratio(
            t.counts.get("oracle.integrate.evals", 0), t.calls.get("oracle.integrate", 0)),
        "oracle.integrate.failed": t.counts.get("oracle.integrate.raised", 0) / n,
        "oracle.elliptic_k.ms": per_op_ms(t.incl_s.get("oracle.elliptic_k", 0.0)),
        "oracle.find_root.g_evals": _ratio(
            t.counts.get("oracle.find_root.g_evals", 0), t.calls.get("oracle.find_root", 0)),
        "oracle.fit_log_linear.ms": per_op_ms(t.incl_s.get("oracle.fit_log_linear", 0.0)),
        "precession.exact.ms": per_op_ms(t.incl_s.get("precession.precession_exact", 0.0)),
        "precession.series.ms": per_op_ms(t.incl_s.get("precession.precession_series", 0.0)),
        **{f"analysis.{study}.ms": per_op_ms(t.incl_s.get(f"analysis.{study}", 0.0))
           for study in STUDIES},
        "trace.ops": float(n_ops),
        "trace.layer_coverage": _ratio(t.root_s, op_wall_s),
        "trace.overhead_ops_per_s": ops_per_s_traced - ops_per_s_untraced,
        "check.result_digits_min": digits_min,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

"""Span tracing of pmsdelta's layers from outside the package.

Tracer.install() wraps the public functions of the six layer modules (cli,
analysis, oscillators, precession, series_core, oracle) plus
TrigPolynomial.evaluate, and rebinds every name that refers to an original
function in any pmsdelta module, so calls through names that other modules
imported (pmsdelta.oscillators.integrate, ...) are traced as well.  No
source file changes; only the traced process is affected.

One span per wrapped call: name, start, end, parent span and operation id,
kept in flat arrays and written out by dump().  Counts are recorded at the
same boundaries.  Callbacks handed to the oracle (integrands, root
functions) become spans of the layer that passed them, so a layer's self
time excludes work done on its behalf elsewhere.

All times are time.perf_counter(), which is CLOCK_MONOTONIC on Linux and so
comparable between processes on one machine.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "analysis", "oscillators", "precession", "series_core", "oracle")

_clock = time.perf_counter


def _spec_key(spec) -> tuple:
    return (spec.x_minus, spec.x_plus, spec.factor.coeffs, spec.omega)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._needed: set = set()

    # -------------------------------------------------------------- spans --

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (process start-up), with no parent."""
        self.name.append(self._id(name))
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)

    def begin_op(self, op_id: int) -> None:
        """Close the previous operation's term bookkeeping; start a new one."""
        self.counts["series_core.terms_needed"] += len(self._needed)
        self._needed.clear()
        self.op_id = op_id

    def caller_layer(self) -> str:
        """Layer of the span that called the currently open one."""
        outer = self.parent[self.stack[-1]]
        return self.names[self.name[outer]].split(".")[0] if outer >= 0 else "bench"

    # ----------------------------------------------------------- wrapping --

    def callback(self, fn, name: str, counter: str):
        nid = self._id(name)
        counts = self.counts

        def traced(*args):
            counts[counter] += 1
            idx = self._enter(nid)
            try:
                return fn(*args)
            finally:
                self._exit(idx)

        return traced

    def wrap(self, fn, name: str):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                if hook is not None:
                    args = hook(self, args)
                return fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                self._exit(idx)

        return traced

    def install(self, package) -> None:
        """Wrap the layers' public functions and rebind every reference."""
        wrappers, originals = {}, {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            public = getattr(module, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{attr}")
                    originals[id(fn)] = fn
        poly = sys.modules[f"{package.__name__}.series_core"].TrigPolynomial
        poly.evaluate = self.wrap(poly.evaluate, "series_core.evaluate")
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    setattr(module, attr, wrappers[id(value)])

    # ------------------------------------------------------------- output --

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans and counts; called once, when the traced run ends."""
        self.begin_op(self.op_id)
        meta = {"names": self.names, "counts": dict(self.counts), **(extra or {})}
        np.savez(path, meta=np.array(json.dumps(meta)), **self.arrays())


# Pre-call hooks: counts taken from call arguments, and callbacks rebound so
# their work is attributed to the layer that supplied them.


def _expand_hook(tracer: Tracer, args):
    spec, order = args[0], args[1]
    tracer.counts["series_core.delta_mults"] += order
    tracer.counts["series_core.terms_computed"] += order + 1
    key = _spec_key(spec)
    tracer._needed.update((key, n) for n in range(order + 1))
    return args


def _term_hook(tracer: Tracer, args):
    spec, n = args[0], args[1]
    tracer.counts["series_core.delta_mults"] += n
    tracer.counts["series_core.terms_computed"] += 1
    tracer._needed.add((_spec_key(spec), n))
    return args


def _integrate_hook(tracer: Tracer, args):
    name = f"{tracer.caller_layer()}.integrand"
    return (tracer.callback(args[0], name, "oracle.integrate.evals"),) + tuple(args[1:])


def _find_root_hook(tracer: Tracer, args):
    name = f"{tracer.caller_layer()}.root_function"
    return (tracer.callback(args[0], name, "oracle.find_root.g_evals"),) + tuple(args[1:])


def _kappa_balance_hook(tracer: Tracer, args):
    family = args[0]
    counts = tracer.counts

    def counted(kappa):
        counts["series_core.kappa_balance.imbalance_evals"] += 1
        return family(kappa)

    return (counted,) + tuple(args[1:])


_HOOKS = {
    "series_core.expand": _expand_hook,
    "series_core.term": _term_hook,
    "series_core.kappa_balance": _kappa_balance_hook,
    "oracle.integrate": _integrate_hook,
    "oracle.find_root": _find_root_hook,
}


def cache_snapshot(package) -> dict:
    """cache_info() of the two lru_caches the per-layer metrics read."""
    hb = sys.modules[f"{package.__name__}.series_core"].half_binomial.cache_info()
    sw = sys.modules[f"{package.__name__}.oscillators"]._sextic_weight.cache_info()
    return {"half_binomial": [hb.hits, hb.misses], "sextic_weight": [sw.hits, sw.misses]}

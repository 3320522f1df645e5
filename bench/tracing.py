"""Span tracing of semigrav's public functions, installed at run time.

The package's modules import each other by name (``from .stress_energy
import stress_sample``), so wrapping a function in its defining module is
not enough: every ``semigrav`` namespace that binds the function gets the
wrapper.  ``Tracer`` does that on entry and puts every original back on
exit; no source file changes.

Spans are kept in flat arrays (name id, parent, start, end) because the
``collapse`` workload records about a million of them per round.  A span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("spacetime", "fock", "modes", "bogolubov", "stress_energy",
          "consistency", "measurement", "report", "scenarios", "cli")

# mode-coefficient methods are traced as functions of the ``modes`` layer
_COEFF_METHODS = ("field_coeffs", "dt_coeffs", "dx_coeffs")
_COEFF_CLASSES = ("MinkowskiModeBasis", "EdSModeBasis")

# span names summed into one per-layer metric
GROUPS = {
    "modes.coeffs": tuple(f"modes.{m}" for m in _COEFF_METHODS),
    "modes.basis_build": ("modes.minkowski_basis", "modes.eds_basis", "modes.rindler_basis"),
}

# (metric, unit) in the order the benchmark reports them; every workload
# reports all of them, and a layer that does not run reads 0
METRICS = (
    ("measurement.trial_rng.us_per_call", "us"),
    ("measurement.project.us_per_call", "us"),
    ("measurement.causality_check.self_s", "s"),
    ("measurement.born_probabilities.calls", "count"),
    ("measurement.trials", "count"),
    ("fock.number_expectation.calls", "count"),
    ("fock.number_expectation.self_s", "s"),
    ("fock.inner.calls", "count"),
    ("fock.superpose.self_s", "s"),
    ("stress_energy.stress_sample.calls", "count"),
    ("stress_energy.stress_sample.us_per_call", "us"),
    ("stress_energy.integrated_energy.self_s", "s"),
    ("stress_energy.wavepacket_state.self_s", "s"),
    ("stress_energy.state_terms", "terms"),
    ("modes.coeffs.self_s", "s"),
    ("modes.basis_build.self_s", "s"),
    ("spacetime.metric.calls", "count"),
    ("spacetime.einstein_tensor.self_s", "s"),
    ("spacetime.outside_future_cone.calls", "count"),
    ("consistency.residual.self_s", "s"),
    ("consistency.fit_parameter.self_s", "s"),
    ("consistency.fit_parameter.evals", "count"),
    ("consistency.scaling_study.self_s", "s"),
    ("bogolubov.bogolubov_coefficients.self_s", "s"),
    ("report.emit.self_s", "s"),
    ("report.bytes_out", "bytes"),
    ("scenarios.validate_config.self_s", "s"),
    ("scenarios.default_config.self_s", "s"),
    ("scenarios.run_scenario.self_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS)


def _count_trials(counters, args, result):
    counters["measurement.trials"] += result.n_trials


def _count_terms(counters, args, result):
    counters["stress_energy.state_terms"] += len(args[0].terms)


def _count_bytes(counters, args, result):
    counters["report.bytes_out"] += len(result.encode("utf-8"))


# counters read from a call's arguments or result, keyed by span name
_HOOKS = {
    "measurement.run_epr_scenario": _count_trials,
    "measurement.run_page_geilker": _count_trials,
    "stress_energy.stress_sample": _count_terms,
    "report.emit": _count_bytes,
}


class Tracer:
    """Context manager that records a span for every traced call inside it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # ---- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"semigrav.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for namespace in [importlib.import_module("semigrav"), *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
        for cls_name in _COEFF_CLASSES:
            cls = getattr(modules["modes"], cls_name)
            for method in _COEFF_METHODS:
                self._patch(cls, method, self._wrap(vars(cls)[method], f"modes.{method}"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # ---- analysis -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as arrays (``np.load`` reads them back)."""
        np.savez(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """The value of every entry of ``METRICS`` over the spans recorded so far."""
        spans = self.arrays()
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_by_name = np.bincount(nid, weights=self_time, minlength=n_names)
        incl_by_name = np.bincount(nid, weights=dur, minlength=n_names)

        def ids(name):
            return [self.names.index(n) for n in GROUPS.get(name, (name,)) if n in self.names]

        out: dict[str, float] = {}
        for metric, _unit in METRICS:
            base, _, quantity = metric.rpartition(".")
            if metric in ("measurement.trials", "report.bytes_out"):
                out[metric] = float(self.counters[metric])
            elif metric == "stress_energy.state_terms":
                n = calls[ids("stress_energy.stress_sample")].sum()
                out[metric] = float(self.counters[metric] / n) if n else 0.0
            elif metric == "consistency.fit_parameter.evals":
                out[metric] = float(self._descendants("consistency.residual",
                                                      "consistency.fit_parameter", spans))
            elif quantity == "self_s" and base in LAYERS:
                layer_ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == base]
                out[metric] = float(self_by_name[layer_ids].sum())
            elif quantity == "self_s":
                out[metric] = float(self_by_name[ids(base)].sum())
            elif quantity == "calls":
                out[metric] = float(calls[ids(base)].sum())
            elif quantity == "us_per_call":
                n = calls[ids(base)].sum()
                out[metric] = float(1e6 * incl_by_name[ids(base)].sum() / n) if n else 0.0
            else:  # pragma: no cover - a METRICS entry without a rule
                raise KeyError(metric)
        return out

    def _descendants(self, child: str, ancestor: str, spans) -> int:
        """Number of ``child`` spans with an ``ancestor`` span above them."""
        if child not in self.names or ancestor not in self.names:
            return 0
        child_id, anc_id = self.names.index(child), self.names.index(ancestor)
        nid, parent = spans["name_id"], spans["parent"]
        count = 0
        for idx in np.flatnonzero(nid == child_id):
            p = parent[idx]
            while p >= 0 and nid[p] != anc_id:
                p = parent[p]
            count += p >= 0
        return count

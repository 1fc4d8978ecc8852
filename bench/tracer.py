"""Per-layer tracing of cohdet, installed from outside the package.

Each target is a public name of one cohdet module (a layer). Installing the
tracer replaces every reference to the target that a loaded cohdet module
holds -- module globals and module-level dicts such as the CLI's check
table -- so callers that imported the name directly are traced too. A class
target is traced through its ``__init__``, which also catches construction
by ``dataclasses.replace``. A target that no longer exists is recorded as
absent and reports zeros; it never raises.

Spans nest: a span's self time is its duration minus the durations of the
traced spans it caused. Stats live in memory and are written out by the
caller when the run ends. This module uses only the standard library so the
CLI child driver can import it before numpy.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("linalg", "states", "coherence", "gellmann", "criteria", "tripartite", "families", "cli")

TARGETS = (
    ("linalg", "lambda_min"),
    ("linalg", "hermitian_eigenvalues"),
    ("linalg", "partial_transpose"),
    ("linalg", "partial_trace"),
    ("states", "random_density"),
    ("states", "block_decompose"),
    ("states", "validate"),
    ("states", "permute_subsystems"),
    ("coherence", "l1_coherence"),
    ("gellmann", "symmetric_sum"),
    ("criteria", "qubit_coherence_check"),
    ("criteria", "qudit_coherence_check"),
    ("criteria", "block_trace_check"),
    ("criteria", "block_spectrum_check"),
    ("criteria", "coherence_bound_check"),
    ("criteria", "ppt_check"),
    ("criteria", "separable_bound"),
    ("tripartite", "TripartiteEnsemble"),
    ("tripartite", "ensemble_bound"),
    ("tripartite", "ensemble_bound_check"),
    ("tripartite", "all_bipartitions_check"),
    ("families", "build_family"),
    ("cli", "main"),
    ("cli", "read_state"),
    ("cli", "read_ensemble"),
)

EIGEN_TARGET = "linalg.hermitian_eigenvalues"


class Tracer:
    """Call counts, self times and per-layer error counts for TARGETS."""

    def __init__(self):
        self.calls = {f"{layer}.{name}": 0 for layer, name in TARGETS}
        self.self_s = {key: 0.0 for key in self.calls}
        self.errors = {layer: 0 for layer in LAYERS}
        self.eigen_sweeps = 0
        self.eigen_unconverged = 0
        self.absent = set()
        self._stack = []
        self._undo = []
        self._last_error = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                importlib.import_module(f"cohdet.{layer}")
            except ImportError:
                pass  # a removed layer: its targets are reported absent below
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "cohdet" or name.startswith("cohdet."))
        ]
        for layer, name in TARGETS:
            key = f"{layer}.{name}"
            owner = sys.modules.get(f"cohdet.{layer}")
            original = getattr(owner, name, None)
            if original is None:
                self.absent.add(key)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.add(key)
                    continue
                self._set(original, "__init__", self._wrap(init, key, layer))
                continue
            traced = self._wrap(original, key, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set_item(value, k, traced)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, obj, attr, value) -> None:
        old = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def _set_item(self, mapping, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _wrap(self, fn, key, layer):
        calls, self_s, errors, stack = self.calls, self.self_s, self.errors, self._stack
        clock = time.perf_counter
        observe = self._observe_eigen if key == EIGEN_TARGET else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the layer where it surfaced first
                if exc is not self._last_error:
                    self._last_error = exc
                    errors[layer] += 1
                raise
            finally:
                span = clock() - start
                children = stack.pop()
                calls[key] += 1
                self_s[key] += span - children
                if stack:
                    stack[-1] += span
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_eigen(self, result) -> None:
        sweeps = getattr(result, "sweeps_used", None)
        if sweeps is not None:
            self.eigen_sweeps += int(sweeps)
        if getattr(result, "converged", True) is False:
            self.eigen_unconverged += 1

    # -- transport between processes ----------------------------------------

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "errors": self.errors,
            "eigen_sweeps": self.eigen_sweeps,
            "eigen_unconverged": self.eigen_unconverged,
            "absent": sorted(self.absent),
        }

    def merge(self, doc: dict) -> None:
        for key, value in doc["calls"].items():
            self.calls[key] += value
        for key, value in doc["self_s"].items():
            self.self_s[key] += value
        for layer, value in doc["errors"].items():
            self.errors[layer] += value
        self.eigen_sweeps += doc["eigen_sweeps"]
        self.eigen_unconverged += doc["eigen_unconverged"]
        self.absent.update(doc["absent"])

    # -- reporting ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-target calls, self_ms and share of ``wall_s``, plus layer errors."""
        out = {}
        for key, calls in self.calls.items():
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.self_ms"] = (self.self_s[key] * 1e3, "ms")
            out[f"{key}.share"] = (self.self_s[key] / wall_s if wall_s > 0 else 0.0, "ratio")
        eigen_calls = self.calls[EIGEN_TARGET]
        out[f"{EIGEN_TARGET}.sweeps_mean"] = (
            self.eigen_sweeps / eigen_calls if eigen_calls else 0.0, "sweeps",
        )
        out[f"{EIGEN_TARGET}.unconverged"] = (self.eigen_unconverged, "count")
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = (count, "count")
        return out

"""Spans and exact work counters for torusflow, recorded from outside it.

`Tracer.install()` replaces every binding of each traced function: the
defining module's attribute, every `torusflow.*` module that imported the
function by name, and for methods the attribute on the class.  Each call
then opens a span (name, start, end, parent, run id) kept in memory, and
the counters named in `TARGETS` are computed from the call's arguments or
result, so they repeat exactly from run to run.  `TrigPoly.__init__` is
only counted, without a span, because trace d=2 builds hundreds of
thousands of polynomials.  `uninstall()` puts every original back.

The workloads never reach the package's thread pools, so spans nest
strictly; a traced call from another thread raises instead of corrupting
the parent chain.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# ----------------------------------------------------------------------
# counters: each gets (counts, key prefix, args, kwargs, call) and must
# return call()'s result; the default only runs the call


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(counts, key, args, kwargs, call):
    counts[key + ".pairs"] += len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))
    return call()


def _grid_points(counts, key, args, kwargs, call):
    poly = args[0]
    counts[key + ".points"] += _arg(args, kwargs, 1, "n") ** poly.dim
    return call()


def _columns(counts, key, args, kwargs, call):
    counts[key + ".columns"] += args[0].size
    return call()


def _mult_hits(counts, key, args, kwargs, call):
    # a cache hit leaves the mode space's product cache the same size
    cache = args[0]._mult_cache
    before = len(cache)
    out = call()
    counts[key + ".hits"] += len(cache) == before
    return out


def _expm_order(counts, key, args, kwargs, call):
    n = int(_arg(args, kwargs, 0, "A").shape[0])
    counts[key + ".order_max"] = max(counts[key + ".order_max"], n)
    counts[key + ".n3_sum"] += n ** 3
    return call()


def _lattice_points(counts, key, args, kwargs, call):
    z = _arg(args, kwargs, 1, "z")
    dim = _arg(args, kwargs, 2, "dim")
    counts[key + ".points"] += (2 * int(math.floor(z)) + 1) ** dim
    return call()


def _z_max(counts, key, args, kwargs, call):
    out = call()
    counts[key + ".z_max"] = max(counts[key + ".z_max"], int(out))
    return out


def _slice_modes(counts, key, args, kwargs, call):
    z = float(_arg(args, kwargs, 1, "z"))
    dim = _arg(args, kwargs, 2, "dim")
    m = int(math.floor(z))
    axis = np.arange(-m, m + 1) ** 2
    sq = sum(np.meshgrid(*([axis] * dim), indexing="ij"))
    counts[key + ".modes"] += int(np.count_nonzero(sq <= z * z + 1e-12))
    return call()


def _records(counts, key, args, kwargs, call):
    out = call()
    counts["suites.records"] += len(out)
    return out


def _bytes_written(counts, key, args, kwargs, call):
    out = call()
    counts[key + ".bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return out


#: (metric prefix, module, owner within module or None, attribute, counter)
TARGETS: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("spectral.mul_free", "spectral", None, "mul_free", _pairs),
    ("spectral.multiply", "spectral", None, "multiply", _pairs),
    ("spectral.values_on_grid", "spectral", "TrigPoly", "values_on_grid", _grid_points),
    ("spectral.sup_norm", "spectral", "TrigPoly", "sup_norm", None),
    ("structure.psi_map", "structure", None, "psi_map", None),
    ("structure.kernel_eval", "structure", None, "kernel_eval", None),
    ("structure.theta_apply", "structure", None, "theta_apply", None),
    ("structure.sobolev_w2inf_norm", "structure", None, "sobolev_w2inf_norm", None),
    ("structure.nested_phi_growth", "structure", None, "nested_phi_growth", None),
    ("flow.ModeSpace.psi_matrix", "flow", "ModeSpace", "psi_matrix", _columns),
    ("flow.ModeSpace.mult_matrix", "flow", "ModeSpace", "mult_matrix", _mult_hits),
    ("flow.ModeSpace.gram_matrix", "flow", "ModeSpace", "gram_matrix", None),
    ("flow.expm", "flow", None, "expm", _expm_order),
    ("flow.texp_matrix_element", "flow", None, "texp_matrix_element", None),
    ("flow.picard_terms", "flow", None, "picard_terms", None),
    ("flow.flow_inner", "flow", None, "flow_inner", None),
    ("flow.factorization_check", "flow", None, "factorization_check", None),
    ("flow.positivity_probe", "flow", None, "positivity_probe", None),
    ("trace.heat_trace_direct", "trace", None, "heat_trace_direct", _lattice_points),
    ("trace.theta_reference", "trace", None, "theta_reference", None),
    ("trace.z_for_tail", "trace", None, "z_for_tail", _z_max),
    ("trace.heat_trace_via_flow", "trace", None, "heat_trace_via_flow", _slice_modes),
    ("trace.weyl_fit", "trace", None, "weyl_fit", None),
    ("suites.run_identities", "suites", None, "run_identities", _records),
    ("suites.run_growth", "suites", None, "run_growth", _records),
    ("suites.run_flow", "suites", None, "run_flow", _records),
    ("suites.run_trace", "suites", None, "run_trace", _records),
    ("suites.run_action", "suites", None, "run_action", _records),
    ("cli.run", "cli", None, "run", None),
    ("report.emit", "report", None, "emit", _bytes_written),
)

#: hot constructors that are counted without opening a span
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("spectral.TrigPoly.new.calls", "spectral", "TrigPoly", "__init__"),
)


def _owner(module: str, owner_name: Optional[str], attr: str):
    """The module or class that defines ``attr``, or None if none does."""
    owner = sys.modules.get(f"torusflow.{module}")
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner if owner is not None and attr in vars(owner) else None


class Tracer:
    """In-memory spans plus counters for one traced process."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, run id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: List[int] = []
        self._owner = threading.get_ident()
        self._patched: List[Tuple[object, str, object]] = []
        #: traced names that the package no longer defines
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        if threading.get_ident() != self._owner:
            raise RuntimeError(f"traced call {name} from a second thread")
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.run_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    # -- patching ------------------------------------------------------

    def _bindings(self, original) -> List[Tuple[object, str]]:
        found = []
        for modname, mod in sorted(sys.modules.items()):
            if modname == "torusflow" or modname.startswith("torusflow."):
                for attr, value in vars(mod).items():
                    if value is original:
                        found.append((mod, attr))
        return found

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # a name that a refactor removed has 0 calls; run.py lists it
        for prefix, module, owner_name, attr, counter in TARGETS:
            owner = _owner(module, owner_name, attr)
            if owner is None:
                self.missing.append(prefix)
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(prefix, original, counter)
            bindings = [(owner, attr)] if owner_name else self._bindings(original)
            for where, name in bindings:
                self._patch(where, name, wrapper)
        for key, module, owner_name, attr in COUNTED:
            owner = _owner(module, owner_name, attr)
            if owner is None:
                self.missing.append(key)
                continue
            self._patch(owner, attr, self._count_only(key, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, prefix: str, fn: Callable, counter: Optional[Callable]):
        counts = self.counts
        span = self.span

        if counter is None:
            def traced(*args, **kwargs):
                return span(prefix, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return span(prefix, counter, counts, prefix, args, kwargs,
                            lambda: fn(*args, **kwargs))
        traced.__wrapped__ = fn
        return traced

    def _count_only(self, key: str, fn: Callable):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted


def layer_totals(tracer: Tracer) -> Dict[str, float]:
    """Per-name totals: ``.calls``, inclusive ``.s`` and ``.self_s``.

    No traced function calls itself, directly or through another traced
    function, so inclusive times of one name never overlap.
    """
    out: Dict[str, float] = Counter()
    for (name, start, end, _, _), own in zip(tracer.spans, tracer.self_times()):
        out[name + ".calls"] += 1
        out[name + ".s"] += end - start
        out[name + ".self_s"] += own
    return out

"""Spans recorded from outside the library, by wrapping names in the module
namespaces that look them up.

The package binds names with ``from .x import y``, so a function is wrapped in
every namespace that calls it (``tritangle.roof.tangle_from_amps`` as well as
``tritangle.measures.tangle_from_amps``). Spans live in flat in-memory columns
and are written out once, after the traced pass.
"""

import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np


def _rows(args, kwargs, out):
    return float(np.prod(np.shape(args[0])[:-1]))


def _first_arg(args, kwargs, out):
    return float(args[0])


# (module or class, attribute, span name, size extractor): each name is wrapped
# where it is looked up; the size column holds rows or n, by span.
BOUNDARIES = (
    ("tritangle.roof", "minimize", "roof.minimize", None),
    ("tritangle.roof", "tangle_from_amps", "roof.tangle_from_amps", _rows),
    ("tritangle.measures", "tangle_from_amps", "measures.tangle_from_amps", _rows),
    ("tritangle.roof", "min_avg_tangle", "roof.min_avg_tangle", None),
    ("tritangle.roof", "hjw_ensemble", "roof.hjw_ensemble", None),
    ("tritangle.family", "optimal_decomposition", "family.optimal_decomposition", None),
    ("tritangle.analytic", "brentq", "analytic.brentq", None),
    ("tritangle.analytic", "solve_p0", "analytic.solve_p0", _first_arg),
    ("tritangle.analytic", "thresholds", "analytic.thresholds", _first_arg),
    ("tritangle.analytic", "mixed_three_tangle", "analytic.mixed_three_tangle", None),
    ("tritangle.bloch", "qutrit_project", "bloch.qutrit_project", None),
    ("tritangle.bloch", "in_zero_polyhedron", "bloch.in_zero_polyhedron", None),
    ("tritangle.states.DensityMatrix", "__init__", "states.DensityMatrix", None),
    ("tritangle.roof", "eigh_desc", "states.eigh_desc", None),
    ("tritangle.states", "eigh_desc", "states.eigh_desc", None),
    ("tritangle.roof", "pure_from_amplitudes", "states.pure_from_amplitudes", None),
    ("tritangle.states", "pure_from_amplitudes", "states.pure_from_amplitudes", None),
)


def resolve(path):
    """Module or class object named by a dotted path such as 'tritangle.states.DensityMatrix'."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("d")
        self.search = {}  # minimize span index -> (nfev, fun, maxfev)
        self.current_op = -1
        self._stack = []
        self._installed = []  # (owner, attr, original)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, size_of=None):
        """Return fn wrapped so each call records one span under name."""
        nid = self._intern(name)
        is_search = name == "roof.minimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.size.append(math.nan)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if size_of is not None:
                self.size[idx] = size_of(args, kwargs, out)
            if is_search:
                maxfev = kwargs.get("options", {}).get("maxfev", math.inf)
                self.search[idx] = (int(out.nfev), float(out.fun), maxfev)
            return out

        return wrapper

    def install(self):
        for path, attr, name, size_of in BOUNDARIES:
            owner = resolve(path)
            original = lookup(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, size_of))

    def uninstall(self):
        """Put every original object back; return the names that still differ."""
        restored = self._installed[::-1]
        self._installed = []
        for owner, attr, original in restored:
            setattr(owner, attr, original)
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in restored
            if lookup(owner, attr) is not original
        ]

    def columns(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=float).copy(),
        }

    def save(self, path):
        """Write the spans as columns of an .npz file; names index name_id."""
        cols = self.columns()
        idx = np.array(sorted(self.search), dtype=np.int64)
        vals = np.array([self.search[i] for i in idx.tolist()], dtype=float).reshape(-1, 3)
        np.savez(path, names=np.array(self.names), search_index=idx, search=vals, **cols)


def lookup(owner, attr):
    """The object bound to attr: a class's own attribute, or a module global."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


ROWS_BYTES = 136  # 8 complex128 amplitudes in, one float64 tangle out, per row


def layer_metrics(tracer, ops):
    """Per-layer figures of one traced pass over `ops` ops, per op where noted."""
    cols = tracer.columns()
    names = tracer.names
    nid = cols["name_id"]
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    per_op = 1.0 / max(ops, 1)

    def mask(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def calls(name):
        return float(mask(name).sum()) * per_op

    def busy(name):
        return float(dur[mask(name)].sum()) * per_op

    kernel = mask("measures.tangle_from_amps") | mask("roof.tangle_from_amps")
    rows = float(cols["size"][kernel].sum()) * per_op

    # a minimize span is one local search of the roof when min_avg_tangle called it
    local = mask("roof.minimize") & np.isin(parent, np.flatnonzero(mask("roof.min_avg_tangle")))
    local_stats = [(i, *tracer.search[i]) for i in np.flatnonzero(local).tolist()]
    local_busy = float(dur[local].sum())
    local_nfev = sum(s[1] for s in local_stats)
    by_run = {}
    for i, _, fun, _ in local_stats:
        by_run.setdefault(int(parent[i]), []).append(fun)
    agreeing = [
        sum(f <= min(funs) + 1e-6 for f in funs) / len(funs) for funs in by_run.values()
    ]
    solved_n = cols["size"][mask("analytic.thresholds") | mask("analytic.solve_p0")]

    return {
        "measures.tangle_from_amps.calls": (float(kernel.sum()) * per_op, "count/op"),
        "measures.tangle_from_amps.calls_via_roof": (calls("roof.tangle_from_amps"), "count/op"),
        "measures.tangle_from_amps.rows": (rows, "count/op"),
        "measures.tangle_from_amps.busy_s": (float(dur[kernel].sum()) * per_op, "s/op"),
        "measures.tangle_from_amps.bytes_computed": (rows * ROWS_BYTES, "B/op"),
        "roof.min_avg_tangle.busy_s": (busy("roof.min_avg_tangle"), "s/op"),
        "roof.local_search.count": (float(local.sum()) * per_op, "count/op"),
        "roof.local_search.nfev": (local_nfev * per_op, "count/op"),
        "roof.local_search.busy_s": (local_busy * per_op, "s/op"),
        "roof.local_search.self_s": (float(self_time[local].sum()) * per_op, "s/op"),
        "roof.local_search.maxfev_ratio": (
            _mean([s[1] >= s[3] for s in local_stats]),
            "ratio",
        ),
        "roof.objective.evals_per_s": (local_nfev / local_busy if local_busy else 0.0, "1/s"),
        "roof.restarts_agreeing_ratio": (_mean(agreeing), "ratio"),
        "roof.hjw_ensemble.busy_s": (busy("roof.hjw_ensemble"), "s/op"),
        "family.optimal_decomposition.busy_s": (busy("family.optimal_decomposition"), "s/op"),
        "analytic.thresholds.calls": (calls("analytic.thresholds"), "count/op"),
        "analytic.thresholds.busy_s": (busy("analytic.thresholds"), "s/op"),
        "analytic.solve_p0.calls": (calls("analytic.solve_p0"), "count/op"),
        "analytic.root_solves": (calls("analytic.brentq"), "count/op"),
        "analytic.distinct_n": (float(len(set(solved_n.tolist()))), "count"),
        "analytic.mixed_three_tangle.busy_s": (busy("analytic.mixed_three_tangle"), "s/op"),
        "bloch.qutrit_project.busy_s": (busy("bloch.qutrit_project"), "s/op"),
        "bloch.in_zero_polyhedron.calls": (calls("bloch.in_zero_polyhedron"), "count/op"),
        "bloch.in_zero_polyhedron.busy_s": (busy("bloch.in_zero_polyhedron"), "s/op"),
        "states.DensityMatrix.constructed": (calls("states.DensityMatrix"), "count/op"),
        "states.DensityMatrix.busy_s": (busy("states.DensityMatrix"), "s/op"),
        "states.eigh_desc.calls": (calls("states.eigh_desc"), "count/op"),
        "states.pure_from_amplitudes.calls": (calls("states.pure_from_amplitudes"), "count/op"),
    }


def _mean(values):
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0

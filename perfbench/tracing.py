"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

``Tracer.install`` wraps, from outside the library, every public function and
public method of the seven cvverify modules, the ``from``-imported copies that
other modules bind (``protocols.sample_quadratures``, ``cli.build_measurement_plan``
and so on), and a few extra boundaries the layer metrics need (``fock.expm``,
``fock._coherent_grid``, the CLI's scenario parsing and report emission, and
``argparse`` parsing inside ``cli.main``).  ``uninstall`` restores every
original, so untraced rounds in the same process run the library untouched.

Each wrapped call records one span: name, start, end, parent span and the
operation it belongs to.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus the durations of its
children; the calls are single-threaded and nest strictly, so the self times
of all spans of one operation add up to that operation's traced wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("symplectic", "gaussian", "channels", "measurement", "protocols", "fock", "cli")

# Non-public names wrapped because a layer metric is measured at them.
EXTRA = {"fock": ("expm", "_coherent_grid"), "cli": ("_load_json", "_parse_scenario", "_emit")}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "child_ns", "attrs")

    def __init__(self, id_, name, layer, parent, op):
        self.id, self.name, self.layer, self.parent, self.op = id_, name, layer, parent, op
        self.start = self.end = self.child_ns = 0
        self.attrs = None

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class _ColumnUse:
    """Which columns of one shot record its consumer read."""

    __slots__ = ("rows", "width", "shape", "strides", "cols", "all")

    def __init__(self, a: np.ndarray):
        self.rows, self.width = a.shape
        self.shape, self.strides = a.shape, a.strides
        self.cols: set = set()
        self.all = False

    @property
    def useful(self) -> int:
        return self.rows * (self.width if self.all else len(self.cols))


class _Shots(np.ndarray):
    """Shot record returned by the traced sampler.

    Indexing ``x[:, j]`` notes column j as consumed; any whole-array use
    (a ufunc, a reduction, a matrix product) notes every column.  Results are
    plain arrays computed exactly as without the wrapper.
    """

    def __array_finalize__(self, obj):
        self._use = getattr(obj, "_use", None)

    def __getitem__(self, key):
        use = self._use
        if use is not None:
            col = None
            if isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], slice) and key[0] == slice(None):
                col = key[1]
            if (isinstance(col, (int, np.integer)) and self.shape == use.shape
                    and self.strides == use.strides):
                use.cols.add(int(col) % use.width)
            else:
                use.all = True
        return self.view(np.ndarray)[key]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = []
        for x in inputs:
            if isinstance(x, _Shots):
                if x._use is not None:
                    x._use.all = True
                x = x.view(np.ndarray)
            plain.append(x)
        return getattr(ufunc, method)(*plain, **kwargs)


def _bound(fn, args, kwargs) -> dict:
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.column_uses: list[_ColumnUse] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self._op = -1

    # ------------------------------------------------------------ wrapping

    def _sample_hook(self, fn, span, args, kwargs, result):
        """Counts the drawn normals and returns a record that notes which columns are read."""
        use = _ColumnUse(result)
        self.column_uses.append(use)
        span.attrs = {"normals": int(result.size), "nbytes": int(result.nbytes)}
        out = result.view(_Shots)
        out._use = use
        return out

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        post = self._sample_hook if name == "measurement.sample_quadratures" else HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:  # outside a benchmark operation, e.g. in an output check
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(tracer._next_id, name, layer, stack[-1] if stack else None, tracer._op)
            tracer._next_id += 1
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                tracer.spans.append(span)
            return result if post is None else post(fn, span, args, kwargs, result)

        return wrapper

    def install(self) -> None:
        """Wrap the library in place; call ``uninstall`` to restore it."""
        modules = {layer: importlib.import_module(f"cvverify.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}

        def patch(owner, attr, new):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                extra = name in EXTRA.get(layer, ())
                if name.startswith("_") and not extra:
                    continue
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__) or (extra and callable(obj)):
                    wrappers[id(obj)] = w = self._wrap(f"{layer}.{name}", layer, obj)
                    patch(mod, name, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, m in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        qual = f"{layer}.{name}.{mname}"
                        if isinstance(m, (classmethod, staticmethod)):
                            patch(obj, mname, type(m)(self._wrap(qual, layer, m.__func__)))
                        elif inspect.isfunction(m):
                            patch(obj, mname, self._wrap(qual, layer, m))
        # the copies other modules bound with ``from .x import f``
        package = importlib.import_module("cvverify")
        for mod in (*modules.values(), package):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    patch(mod, name, wrappers[id(obj)])
        patch(argparse.ArgumentParser, "parse_args",
              self._wrap("cli.parse_args", "cli", argparse.ArgumentParser.parse_args))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def operation(self, op_index: int, kind: str):
        """Root span of one benchmark operation."""
        self._op = op_index
        root = Span(self._next_id, f"op.{kind}", "harness", None, op_index)
        self._next_id += 1
        self._stack.append(root)
        root.start = time.perf_counter_ns()
        try:
            yield root
        finally:
            root.end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(root)
            self._op = -1

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent.id if s.parent else None, s.op, s.name,
                                     s.start, s.end, s.attrs]) + "\n")


def _attr(key: str, value):
    """Post-call hook storing ``value(fn, args, kwargs, result)`` as span attribute ``key``."""

    def hook(fn, span, args, kwargs, result):
        span.attrs = {key: int(value(fn, args, kwargs, result))}
        return result

    return hook


# Counts recorded at a wrapped call, by span name.
HOOKS = {
    "fock.expm": _attr("dim", lambda fn, a, k, r: np.shape(a[0])[0]),
    "fock._coherent_grid": _attr("nodes", lambda fn, a, k, r: np.size(r[0])),
    "fock.apply_kraus_first_mode": _attr("kraus", lambda fn, a, k, r: len(_bound(fn, a, k)["kraus"])),
    "fock.squeeze2_fock": _attr("cutoff", lambda fn, a, k, r: _bound(fn, a, k)["cutoff"]),
    "fock.canonical_observable_closed_form": _attr("cutoff", lambda fn, a, k, r: _bound(fn, a, k)["cutoff"]),
    "channels.true_average_fidelity": _attr("mc_samples", lambda fn, a, k, r: _bound(fn, a, k)["mc_samples"]),
}


# ------------------------------------------------------------ per-layer metrics

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("measurement.sample_s", "s", "lower"),
    ("measurement.sample_calls", "count", "lower"),
    ("measurement.normals", "count", "lower"),
    ("measurement.ns_per_normal", "ns", "lower"),
    ("measurement.bytes_computed", "B", "lower"),
    ("measurement.useful_ratio", "ratio", "higher"),
    ("measurement.plan_s", "s", "lower"),
    ("measurement.plan_calls", "count", "lower"),
    ("measurement.self_s", "s", "lower"),
    ("protocols.budget_s", "s", "lower"),
    ("protocols.estimate_self_s", "s", "lower"),
    ("protocols.witness_s", "s", "lower"),
    ("protocols.batches_per_verdict", "count", "lower"),
    ("protocols.output_state_calls", "count", "lower"),
    ("protocols.self_s", "s", "lower"),
    ("gaussian.self_s", "s", "lower"),
    ("gaussian.calls", "count", "lower"),
    ("symplectic.self_s", "s", "lower"),
    ("symplectic.calls", "count", "lower"),
    ("channels.true_fidelity_s", "s", "lower"),
    ("channels.mc_samples", "count", "lower"),
    ("channels.realize_calls", "count", "lower"),
    ("channels.self_s", "s", "lower"),
    ("fock.expm_s", "s", "lower"),
    ("fock.expm_calls", "count", "lower"),
    ("fock.expm_dim_max", "count", "lower"),
    ("fock.squeeze2_s", "s", "lower"),
    ("fock.kraus_apply_s", "s", "lower"),
    ("fock.kraus_ops", "count", "lower"),
    ("fock.perf_operator_s", "s", "lower"),
    ("fock.quad_nodes", "count", "lower"),
    ("fock.closed_form_s", "s", "lower"),
    ("fock.witness_build_s", "s", "lower"),
    ("fock.entangled_output_s", "s", "lower"),
    ("fock.embed_useful_ratio", "ratio", "higher"),
    ("fock.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


# Ratios and maxima; every other per-layer metric is a total divided by the rounds.
NOT_PER_ROUND = {
    "measurement.ns_per_normal", "measurement.useful_ratio", "protocols.batches_per_verdict",
    "fock.expm_dim_max", "fock.embed_useful_ratio", "trace.layer_share",
}


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics per round (one pass over the workload's op list).

    Times named ``*.self_s`` and ``*_self_s`` are self times; other ``*_s``
    times are inclusive time of the outermost matching spans.
    ``measurement.bytes_computed`` is computed from array sizes, not measured:
    the sampler writes and re-reads a standard-normal block and its product
    with the Cholesky factor, then writes the shifted result, i.e. five passes
    over an array the size of the returned record.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    self_by_layer = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        self_by_layer[s.layer] += s.self_ns

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def self_s(*names):
        return sum(s.self_ns for n in names for s in by_name[n]) / 1e9

    def inclusive_s(*names):
        names = set(names)
        total = 0
        for n in names:
            for s in by_name[n]:
                p = s.parent
                while p is not None and p.name not in names:
                    p = p.parent
                if p is None:
                    total += s.dur
        return total / 1e9

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    samples = by_name["measurement.sample_quadratures"]
    normals = attr_sum("measurement.sample_quadratures", "normals")
    useful = sum(u.useful for u in tracer.column_uses)
    verdicts = count("protocols.run_verification", "protocols.run_state_verification")
    kept = embedded = 0
    for s in by_name["fock.canonical_observable_closed_form"]:
        big = max((c.attrs["cutoff"] for c in by_name["fock.squeeze2_fock"] if c.parent is s), default=0)
        kept += s.attrs["cutoff"] ** 4
        embedded += big**4
    roots = [s for s in spans if s.layer == "harness"]
    op_ns = sum(s.dur for s in roots)
    layer_ns = sum(self_by_layer[layer] for layer in LAYERS)

    sample_s = self_s("measurement.sample_quadratures")
    m = {
        "measurement.sample_s": sample_s,
        "measurement.sample_calls": len(samples),
        "measurement.normals": normals,
        "measurement.ns_per_normal": sample_s * 1e9 / normals if normals else 0.0,
        "measurement.bytes_computed": 5 * attr_sum("measurement.sample_quadratures", "nbytes"),
        "measurement.useful_ratio": useful / normals if normals else 0.0,
        "measurement.plan_s": inclusive_s("measurement.build_measurement_plan"),
        "measurement.plan_calls": count("measurement.build_measurement_plan"),
        "protocols.budget_s": inclusive_s(
            "protocols.sample_budget", "protocols.sample_budget_unitary",
            "protocols.sample_budget_amplification", "protocols.sample_budget_state"),
        "protocols.estimate_self_s": self_s(
            "protocols.estimate_moments", "protocols.estimate_amplification_moments",
            "protocols.run_state_verification"),
        "protocols.witness_s": self_s(*(n for n in by_name if n.startswith("protocols.witness_"))),
        "protocols.batches_per_verdict": len(samples) / verdicts if verdicts else 0.0,
        "protocols.output_state_calls": count("protocols.output_state"),
        "gaussian.calls": sum(1 for s in spans if s.layer == "gaussian"),
        "symplectic.calls": sum(1 for s in spans if s.layer == "symplectic"),
        "channels.true_fidelity_s": inclusive_s("channels.true_average_fidelity"),
        "channels.mc_samples": attr_sum("channels.true_average_fidelity", "mc_samples"),
        "channels.realize_calls": count("channels.ProverChannel.realize"),
        "fock.expm_s": inclusive_s("fock.expm"),
        "fock.expm_calls": count("fock.expm"),
        "fock.expm_dim_max": max((s.attrs["dim"] for s in by_name["fock.expm"]), default=0),
        "fock.squeeze2_s": inclusive_s("fock.squeeze2_fock"),
        "fock.kraus_apply_s": inclusive_s("fock.apply_kraus_first_mode"),
        "fock.kraus_ops": attr_sum("fock.apply_kraus_first_mode", "kraus"),
        "fock.perf_operator_s": inclusive_s("fock.performance_operator_avg_fidelity"),
        "fock.quad_nodes": attr_sum("fock._coherent_grid", "nodes"),
        "fock.closed_form_s": inclusive_s("fock.canonical_observable_closed_form"),
        "fock.witness_build_s": inclusive_s("fock.witness_fock_unitary", "fock.witness_fock_amp"),
        "fock.entangled_output_s": inclusive_s("fock.entangled_output_fock"),
        "fock.embed_useful_ratio": kept / embedded if embedded else 0.0,
        "cli.parse_s": inclusive_s("cli.parse_args", "cli.build_parser", "cli._load_json", "cli._parse_scenario"),
        "cli.emit_s": inclusive_s("cli._emit"),
        "cli.calls": count("cli.main"),
        "harness.self_s": self_by_layer["harness"] / 1e9,
        "trace.layer_share": layer_ns / op_ns if op_ns else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] / 1e9
    per_round = {k: v if k in NOT_PER_ROUND else v / rounds for k, v in m.items()}
    per_round["trace.overhead"] = overhead
    return {name: per_round[name] for name, _, _ in METRICS}


def accounting_gap_ns(tracer: Tracer) -> int:
    """Largest |sum of span self times - operation wall time| over all traced operations."""
    per_op = defaultdict(int)
    wall = {}
    for s in tracer.spans:
        per_op[s.op] += s.self_ns
        if s.layer == "harness":
            wall[s.op] = s.dur
    return max((abs(per_op[op] - w) for op, w in wall.items()), default=0)

"""Outside-in tracing of the bimult package.

``Tracer.install()`` wraps, from outside, every public function and method of
every ``bimult`` module, plus the numpy ``einsum`` and LAPACK entry points
(``svd``, ``eigh``, ``eigvalsh``, ``pinv``) when they are called from package
code.  Functions are found by object identity, so a name that ``norms``,
``factorize`` or ``cli`` imported directly is replaced there too.  No file of
the package changes.

Each call records a span (name, start, end, parent, task) in memory.  A
span's self time is its duration minus the time its child spans cover.
``layer_metrics()`` folds the spans into the per-layer metrics of the benchmark.
Work the tracer does for its own counters (flop counts, byte counts) is kept
out of every span and shows up as benchmark self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import re
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "symbols", "algebra", "multiplier", "norms", "factorize",
          "kernel", "selftest")
_MODULE_LAYER = {"linalg": "kernel"}
_LAPACK = ("svd", "eigh", "eigvalsh", "pinv")
_ASCENT = ("norms.norm_bilinear", "norms.amplified_norm")
_RESTART_FUNCS = ("_ascend_trace", "_ascend_s2", "_ascend_b")
_PARSE = re.compile(r"^io\.(load_json_file|.*_from_json|pairs_to_complex)$")
_SERIALIZE = re.compile(r"^io\.(.*_to_json|complex_to_pairs)$")
_GAMMA2_SIZES = (3, 6)  # square slices whose gamma2 call time is reported
_FLOPS = re.compile(r"Optimized FLOP count:\s*([0-9.eE+-]+)")

_perf = time.perf_counter


def _layer_of(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return _MODULE_LAYER.get(short, short)


class Tracer:
    """Span recorder; one per process.  Records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.task = -1
        self.spans = []  # [name, start, end, parent, task, self]
        self._stack = []  # [span index, child time]
        self.counters = defaultdict(float)
        self._flops_cache = {}
        self._ascent_restarts = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, _perf(), 0.0, parent, self.task, 0.0])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> float:
        end = _perf()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        span[5] = dur - child
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def _untimed(self, start: float):
        """Hide bookkeeping done since ``start`` from the enclosing span."""
        if self._stack:
            self._stack[-1][1] += _perf() - start

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close()
                t0 = _perf()
                tracer._on_error(name, exc)
                tracer._untimed(t0)
                raise
            dur = tracer._close()
            if after is not None:
                t0 = _perf()
                after(args, kwargs, result, dur)
                tracer._untimed(t0)
            return result

        return traced

    def _wrap_kernel(self, name: str, fn, flops=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("bimult"):
                return fn(*args, **kwargs)
            if flops:
                t0 = _perf()
                tracer.counters["kernel.einsum.flops"] += tracer._einsum_flops(args, kwargs)
                tracer._untimed(t0)
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def _einsum_flops(self, args, kwargs) -> float:
        optimize = kwargs.get("optimize", False)
        key = (args[0], tuple(np.shape(a) for a in args[1:]), str(optimize))
        hit = self._flops_cache.get(key)
        if hit is None:
            text = np.einsum_path(*args, optimize=optimize)[1]
            hit = float(_FLOPS.search(text).group(1))
            self._flops_cache[key] = hit
        return hit

    def _on_error(self, name: str, exc: BaseException):
        if _PARSE.match(name) and type(exc).__name__ == "ParseError":
            parent = self._stack[-1][0] if self._stack else -1
            if parent < 0 or not _PARSE.match(self.spans[parent][0]):
                self.counters["io.parse.errors"] += 1

    # -- counters read from results -----------------------------------
    def _after_ascent(self, args, kwargs, est, dur):
        self.counters["norms.ascent.iterations"] += est.iterations
        self.counters["norms.ascent.restarts"] += est.restarts_used
        vals = self._ascent_restarts
        if vals:
            top = max(vals)
            self.counters["norms.ascent.restarts_seen"] += len(vals)
            self.counters["norms.ascent.restarts_useful"] += sum(
                v >= top * (1.0 - 1e-9) for v in vals)
        self._ascent_restarts = []

    def _after_restart(self, args, kwargs, result, dur):
        self._ascent_restarts.append(float(result[0]))

    def _after_family(self, args, kwargs, fam, dur):
        self.counters["factorize.families"] += 1
        self.counters["factorize.family_members"] += fam.count

    def _after_gamma2(self, args, kwargs, res, dur):
        rows, cols = np.shape(args[0] if args else kwargs["m"])
        if rows == cols and rows in _GAMMA2_SIZES:
            self.counters[f"norms.gamma2.n{rows}.calls"] += 1
            self.counters[f"norms.gamma2.n{rows}.s"] += dur

    def _after_load(self, args, kwargs, result, dur):
        path = args[0] if args else kwargs["path"]
        self.counters["io.parse.bytes"] += os.path.getsize(path)

    def _after_serialize(self, args, kwargs, result, dur):
        parent = self._stack[-1][0] if self._stack else -1
        if parent < 0 or not _SERIALIZE.match(self.spans[parent][0]):
            self.counters["io.serialize.bytes"] += len(json.dumps(result))

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap the package's public functions and methods, and numpy's kernels."""
        import bimult  # noqa: F401  (loads every submodule)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "bimult" or name.startswith("bimult.")}
        replace = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("bimult"):
                    continue
                if id(obj) in replace:
                    continue
                if attr.startswith("_"):
                    if attr in _RESTART_FUNCS and obj.__module__ == "bimult.norms":
                        replace[id(obj)] = self._counter(obj, self._after_restart)
                    continue
                name = f"{_layer_of(obj.__module__)}.{obj.__name__}"
                replace[id(obj)] = self._wrap(name, obj, self._after_for(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__post_init__"
                                                       or not meth.startswith("_")):
                            name = f"{_layer_of(mod.__name__)}.{obj.__name__}.{meth}"
                            setattr(obj, meth, self._wrap(name, fn))
        np.einsum = self._wrap_kernel("kernel.einsum", np.einsum, flops=True)
        for fname in _LAPACK:
            fn = getattr(np.linalg, fname)
            setattr(np.linalg, fname, self._wrap_kernel(f"kernel.lapack.{fname}", fn))

    def _counter(self, fn, after):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                t0 = _perf()
                after(args, kwargs, result, 0.0)
                tracer._untimed(t0)
            return result

        return counted

    def _after_for(self, name: str):
        if name in _ASCENT:
            return self._after_ascent
        if name == "factorize.to_weak_factorization":
            return self._after_family
        if name == "norms.gamma2":
            return self._after_gamma2
        if name == "io.load_json_file":
            return self._after_load
        if _SERIALIZE.match(name):
            return self._after_serialize
        return None

    # -- output -------------------------------------------------------------
    def write_spans(self, path: str):
        """Write every span as one line: name, start, end, parent, task, self."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{s[5]:.9f}\n")

    def aggregate(self) -> dict:
        """Per-name calls, self and total time, plus the tracer's counters."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total = defaultdict(float)
        for name, start, end, _parent, _task, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            total[name] += end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total),
                "counters": dict(self.counters), "entries": _io_entries(self.spans)}


def _io_entries(spans) -> dict:
    """Calls of the io parse and serialize groups that no span of the same group encloses."""
    out = {"io.parse": 0, "io.serialize": 0}
    for name, _s, _e, parent, _t, _own in spans:
        for group, pat in (("io.parse", _PARSE), ("io.serialize", _SERIALIZE)):
            if pat.match(name) and (parent < 0 or not pat.match(spans[parent][0])):
                out[group] += 1
    return out


def merge(aggs) -> dict:
    """Sum several ``Tracer.aggregate()`` results (one per command process)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "total_s": defaultdict(float), "counters": defaultdict(float),
           "entries": defaultdict(int)}
    for agg in aggs:
        for key, table in out.items():
            for name, val in agg.get(key, {}).items():
                table[name] += val
    return {key: dict(table) for key, table in out.items()}


def _sum(table: dict, pred) -> float:
    return float(sum(v for k, v in table.items() if pred(k)))


def layer_metrics(agg: dict, wall_s: float, untraced_s: float, cycles: int) -> dict:
    """Fold an aggregate into the per-layer metrics, per cycle of the workload.

    ``wall_s`` is the traced wall time of the timed tasks and ``untraced_s``
    the untraced wall time of the same tasks.  A Schur kernel is one call of
    ``s1_norm_schur``, so gamma2 calls per kernel are 2 * n2 when the
    factorization solves every slice again.
    """
    calls, own, total, cnt = agg["calls"], agg["self_s"], agg["total_s"], agg["counters"]
    per = 1.0 / max(cycles, 1)
    m = {}

    def c(name):
        return float(calls.get(name, 0))

    def s(name):
        return float(own.get(name, 0.0))

    m["norms.gamma2.calls"] = c("norms.gamma2") * per
    m["norms.gamma2.self_s"] = s("norms.gamma2") * per
    for n in _GAMMA2_SIZES:
        k = cnt.get(f"norms.gamma2.n{n}.calls", 0.0)
        m[f"norms.gamma2.ms_n{n}"] = 1e3 * cnt.get(f"norms.gamma2.n{n}.s", 0.0) / k if k else 0.0
    kernels = c("norms.s1_norm_schur")
    m["norms.gamma2.calls_per_kernel"] = c("norms.gamma2") / kernels if kernels else 0.0
    ascent_calls = sum(c(n) for n in _ASCENT)
    ascent_total = sum(float(total.get(n, 0.0)) for n in _ASCENT)
    iters = cnt.get("norms.ascent.iterations", 0.0)
    m["norms.ascent.calls"] = ascent_calls * per
    m["norms.ascent.self_s"] = sum(s(n) for n in _ASCENT) * per
    m["norms.ascent.iterations"] = iters * per
    m["norms.ascent.us_per_iter"] = 1e6 * ascent_total / iters if iters else 0.0
    seen = cnt.get("norms.ascent.restarts_seen", 0.0)
    m["norms.ascent.restart_yield"] = cnt.get("norms.ascent.restarts_useful", 0.0) / seen if seen else 0.0
    m["norms.ascent.restarts_used"] = cnt.get("norms.ascent.restarts", 0.0) * per
    m["norms.s1_norm_schur.self_s"] = s("norms.s1_norm_schur") * per
    for fn in ("schur_s1_factorize", "to_weak_factorization", "verify_factorization"):
        m[f"factorize.{fn}.self_s"] = s(f"factorize.{fn}") * per
    fams = cnt.get("factorize.families", 0.0)
    m["factorize.family_size"] = cnt.get("factorize.family_members", 0.0) / fams if fams else 0.0
    for fn in ("tensor_membership", "project_symbol", "generate_algebra", "commutant",
               "preset_algebra"):
        m[f"algebra.{fn}.calls"] = c(f"algebra.{fn}") * per
        m[f"algebra.{fn}.self_s"] = s(f"algebra.{fn}") * per
    m["multiplier.is_modular.self_s"] = s("multiplier.is_modular") * per
    for fn in ("apply_schur", "apply_tau"):
        m[f"multiplier.{fn}.calls"] = c(f"multiplier.{fn}") * per
        m[f"multiplier.{fn}.self_s"] = s(f"multiplier.{fn}") * per
    m["kernel.einsum.calls"] = c("kernel.einsum") * per
    m["kernel.einsum.self_s"] = s("kernel.einsum") * per
    m["kernel.einsum.flops"] = cnt.get("kernel.einsum.flops", 0.0) * per
    m["kernel.lapack.calls"] = _sum(calls, lambda k: k.startswith("kernel.lapack.")) * per
    m["kernel.lapack.self_s"] = _sum(own, lambda k: k.startswith("kernel.lapack.")) * per
    m["io.parse.calls"] = agg["entries"].get("io.parse", 0) * per
    m["io.parse.self_s"] = _sum(own, lambda k: bool(_PARSE.match(k))) * per
    m["io.parse.bytes"] = cnt.get("io.parse.bytes", 0.0) * per
    m["io.parse.errors"] = cnt.get("io.parse.errors", 0.0) * per
    m["io.serialize.calls"] = agg["entries"].get("io.serialize", 0) * per
    m["io.serialize.self_s"] = _sum(own, lambda k: bool(_SERIALIZE.match(k))) * per
    m["io.serialize.bytes"] = cnt.get("io.serialize.bytes", 0.0) * per
    procs = cnt.get("cli.processes", 0.0)
    m["cli.import_s"] = cnt.get("cli.import_s", 0.0) / procs if procs else 0.0
    m["cli.main.self_s"] = s("cli.main") * per
    covered = 0.0
    for layer in LAYERS:
        val = _sum(own, lambda k, p=layer + ".": k.startswith(p))
        m[f"{layer}.self_s"] = val * per
        covered += val
    m["bench.self_s"] = (wall_s - covered) * per
    m["trace.wall_s"] = wall_s * per
    m["trace.overhead_ratio"] = wall_s / untraced_s if untraced_s > 0 else 0.0
    return m

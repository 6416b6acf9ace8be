"""Spans around the calls between bernbvp's modules, recorded from outside.

Each hook replaces a module attribute that the caller looks up when it
calls (``bernbvp.solver._moment_integrals_mp`` and so on) with a wrapper
that records a span: name, start, end, parent span and job id.  Nothing in
the program is edited; ``Tracer.uninstall`` puts the originals back.  A
hook whose attribute no longer exists is recorded as absent, and every
metric that depends on it is reported as absent (None), never as zero.

Spans stay in memory until the run ends.  A layer's self time is its span
time minus the time of its child spans, so the self times of one job add
up to the job's root span.
"""

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, key of the call for distinct counts,
#  work counter name, work done by the call)
_SPANS = (
    ("bernbvp.solver", "_iterate_core", "solver.iterate", None, None, None),
    ("bernbvp.solver", "_moment_integrals_mp", "quadrature.moments", None,
     "quadrature.moments.nodes", lambda a: len(a[2].nodes)),
    ("bernbvp.solver", "_eval_mp", None, None, None, None),
    ("bernbvp.solver", "eval_expr", "expressions.evaluate", None, None, None),
    ("bernbvp.solver", "gauss_rule", "quadrature.gauss_rule",
     lambda a: tuple(a[:2]), None, None),
    ("bernbvp.solver", "dual_coefficients", "dual.dual_coefficients",
     lambda a: a[0], None, None),
    ("bernbvp.bandsolve", "assemble_rhs", "bandsolve.assemble_rhs",
     None, None, None),
    ("bernbvp.bandsolve", "assemble_matrix", "bandsolve.assemble_matrix",
     lambda a: tuple(a[:4]), None, None),
    ("bernbvp.bandsolve", "solve", "bandsolve.solve", None, None, None),
    ("bernbvp.cli", "solve", "solver.solve", None, None, None),
    ("bernbvp.cli", "error_curve", "problems.error_curve", None,
     "problems.error_curve.points", lambda a: a[2] + 1),
    ("bernbvp.cli", "load_problem_spec", "cli.spec", None, None, None),
    ("bernbvp.cli", "_coefficient_document", "cli.write", None, None, None),
)

# Band-solver paths: counted, not timed (their time stays in bandsolve.solve).
_PATHS = (
    ("_back_substitution", "back"),
    ("_forward_substitution", "forward"),
    ("_tridiagonal", "tridiagonal"),
    ("_banded_lu", "banded_lu"),
)

# _eval_mp is one function serving two layers: derivative arguments for
# the right-hand side (called under the moments span) and the L2 residual.
_DERIVS_PARENT = "quadrature.moments"


class Tracer:
    """Records spans and counters while its hooks are installed."""

    def __init__(self):
        self.spans = []          # (job, span id, parent id, name, t0, t1)
        self.calls = Counter()   # span or path name -> calls
        self.keys = defaultdict(set)
        self.work = Counter()
        self.absent = []         # hook names that no longer exist
        self._stack = []         # open (span id, name)
        self._job = None
        self._next_id = 0
        self._saved = []

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent

    def _close(self, sid, parent, name, t0, t1):
        self._stack.pop()
        self.spans.append((self._job, sid, parent, name, t0, t1))
        self.calls[name] += 1

    @contextmanager
    def job(self, job_id, root_name):
        """Root span of one job; every span opened inside shares job_id."""
        self._job = job_id
        sid, parent = self._open(root_name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, root_name, t0, time.perf_counter())
            self._job = None

    def _span_wrapper(self, fn, name, key, work_name, work):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name
            if span is None:
                top = tracer._stack[-1][1] if tracer._stack else None
                span = "solver.derivs" if top == _DERIVS_PARENT else "solver.residual"
            if key is not None:
                tracer.keys[span].add(key(args))
            if work is not None:
                tracer.work[work_name] += work(args)
            sid, parent = tracer._open(span)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, span, t0, time.perf_counter())

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks ---------------------------------------------------------
    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        """Wrap every hook; names that are gone are noted in self.absent."""
        for module, attr, name, key, work_name, work in _SPANS:
            self._patch(module, attr, lambda f, n=name, k=key, wn=work_name, w=work:
                        self._span_wrapper(f, n, k, wn, w))
        for attr, path in _PATHS:
            self._patch("bernbvp.bandsolve", attr,
                        lambda f, n=f"bandsolve.solve.path.{path}":
                        self._count_wrapper(f, n))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def dump(self):
        """JSON-ready record of one pass: self times, root time, counters,
        absent hooks and the spans themselves."""
        return {
            "self_s": self_times(self.spans),
            "root_s": sum(t1 - t0 for _, _, p, _, t0, t1 in self.spans if p is None),
            "calls": dict(self.calls),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "work": dict(self.work),
            "absent": list(self.absent),
            "spans": self.spans,
        }


def scaled_record(record, factor):
    """A pass record with its times multiplied by factor (spans untouched)."""
    out = dict(record)
    out["self_s"] = {k: v * factor for k, v in record["self_s"].items()}
    out["root_s"] = record["root_s"] * factor
    return out


def self_times(spans):
    """Self time per span name: span time minus its children's time.

    Spans are (job, id, parent id, name, t0, t1); ids are unique within
    the list.  The self times then sum to the root spans' time.  Raises if
    a span's children take longer than the span itself, which would mean
    they overlap or outlive it.
    """
    child = Counter()
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = Counter()
    for _, sid, _, name, t0, t1 in spans:
        own = (t1 - t0) - child[sid]
        if own < -1e-9:
            raise ValueError(f"children of span {sid} ({name}) outlast it by {-own} s")
        out[name] += own
    return dict(out)


# Per-layer metrics: name -> (unit, how to read it from a pass record).
# Readers return None when a hook they need is absent.
def _self(name, *hooks):
    return "s", ("self", name, hooks)


def _count(name, *hooks):
    return "count", ("calls", name, hooks)


_M = "bernbvp.solver._moment_integrals_mp"
_E = "bernbvp.solver._eval_mp"
_B = "bernbvp.bandsolve."
_C = "bernbvp.cli."
_ALL_PATHS = tuple(_B + attr for attr, _ in _PATHS)

PER_LAYER = {
    "quadrature.moments.self_s": _self("quadrature.moments", _M),
    "quadrature.moments.nodes": ("count", ("work", "quadrature.moments.nodes", (_M,))),
    "solver.derivs.self_s": _self("solver.derivs", _E, _M),
    "solver.derivs.count": _count("solver.derivs", _E, _M),
    "expressions.evaluate.self_s": _self("expressions.evaluate", "bernbvp.solver.eval_expr"),
    "expressions.evaluate.count": _count("expressions.evaluate", "bernbvp.solver.eval_expr"),
    "solver.residual.self_s": _self("solver.residual", _E, _M),
    "quadrature.gauss_rule.self_s": _self("quadrature.gauss_rule", "bernbvp.solver.gauss_rule"),
    "quadrature.gauss_rule.count": _count("quadrature.gauss_rule", "bernbvp.solver.gauss_rule"),
    "quadrature.gauss_rule.distinct_frac":
        ("ratio", ("distinct", "quadrature.gauss_rule", ("bernbvp.solver.gauss_rule",))),
    "dual.dual_coefficients.self_s":
        _self("dual.dual_coefficients", "bernbvp.solver.dual_coefficients"),
    "dual.dual_coefficients.count":
        _count("dual.dual_coefficients", "bernbvp.solver.dual_coefficients"),
    "dual.dual_coefficients.distinct_frac":
        ("ratio", ("distinct", "dual.dual_coefficients", ("bernbvp.solver.dual_coefficients",))),
    "bandsolve.assemble_rhs.self_s": _self("bandsolve.assemble_rhs", _B + "assemble_rhs"),
    "bandsolve.assemble_matrix.self_s": _self("bandsolve.assemble_matrix", _B + "assemble_matrix"),
    "bandsolve.assemble_matrix.distinct_frac":
        ("ratio", ("distinct", "bandsolve.assemble_matrix", (_B + "assemble_matrix",))),
    "bandsolve.solve.self_s": _self("bandsolve.solve", _B + "solve"),
    "bandsolve.solve.count": _count("bandsolve.solve", _B + "solve"),
    "bandsolve.solve.refine_passes": ("count", ("refine", None, (_B + "solve",) + _ALL_PATHS)),
    **{f"bandsolve.solve.path.{path}": _count(f"bandsolve.solve.path.{path}", _B + attr)
       for attr, path in _PATHS},
    "solver.iterate.self_s": _self("solver.iterate", "bernbvp.solver._iterate_core"),
    "solver.iterate.count": _count("solver.iterate", "bernbvp.solver._iterate_core"),
    "solver.solve.self_s": _self("solver.solve"),
    "problems.error_curve.self_s": _self("problems.error_curve", _C + "error_curve"),
    "problems.error_curve.points":
        ("count", ("work", "problems.error_curve.points", (_C + "error_curve",))),
    "cli.main.self_s": _self("cli.main"),
    "cli.spec.self_s": _self("cli.spec", _C + "load_problem_spec"),
    "cli.write.self_s": _self("cli.write", _C + "_coefficient_document"),
    "cli.import_s": ("s", ("import", None, ())),
    "trace.root_s": ("s", ("root", None, ())),
    "trace.overhead_frac": ("ratio", ("overhead", None, ())),
}


def _read(record, kind, name):
    if kind == "self":
        return record["self_s"].get(name, 0.0)
    if kind == "calls":
        return record["calls"].get(name, 0)
    if kind == "work":
        return record["work"].get(name, 0)
    if kind == "distinct":
        calls = record["calls"].get(name, 0)
        return record["distinct"].get(name, 0) / calls if calls else None
    if kind == "refine":
        paths = sum(record["calls"].get(f"bandsolve.solve.path.{p}", 0) for _, p in _PATHS)
        return paths - record["calls"].get("bandsolve.solve", 0)
    if kind == "root":
        return record["root_s"]
    raise KeyError(kind)


def per_layer_metrics(records, import_s, overhead_frac):
    """Average each per-layer metric over the traced passes in records.

    A metric is None when a hook it needs is absent, or when it is a ratio
    over calls that never happened.
    """
    absent = set().union(*(r["absent"] for r in records))
    out = {}
    for metric, (unit, (kind, name, hooks)) in PER_LAYER.items():
        if kind == "import":
            value = import_s
        elif kind == "overhead":
            value = overhead_frac
        elif absent.intersection(hooks):
            value = None
        else:
            values = [_read(r, kind, name) for r in records]
            value = None if None in values else sum(values) / len(values)
        out[metric] = {"value": value, "unit": unit}
    return out

"""Outside-in tracer: wraps bhverify's public functions from the benchmark.

Nothing under ``src/`` knows about it.  ``install`` replaces each traced
function by a wrapper, in its defining module or class and in every
``bhverify`` module that re-exported it with ``from .x import y``, so calls
through either name are seen.  Spans are aggregated in memory by
``(name, parent)`` and read out once, when the workload ends.

Per span name the tracer keeps exact counts: calls, inclusive time of the
outermost calls (a call nested in a call of the same name is not counted
twice), and self time (duration minus the time of child spans).  For names
marked ``distinct`` it also keeps the set of call arguments, which gives the
share of calls with arguments not seen before in the process.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("cli", "coeffs", "tensor", "calculus", "registry", "paramcheck",
           "jetoracle", "radial", "report")

ARITH_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}   # calls, outer_s, self_s
        self.keys: dict[str, set] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []    # [name, child_s] per open span
        self._depth: dict[str, int] = {}

    def add(self, counter: str, amount: float):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name: str, distinct: bool = False, after=None,
             prepare=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``prepare(tracer, args)`` may rewrite the positional arguments before
        the call; ``after(tracer, args, result)`` records counts from it.
        """
        stack, depth, spans = self._stack, self._depth, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(self, args)
            if distinct:
                self.keys.setdefault(name, set()).add(
                    (args, tuple(sorted(kwargs.items()))))
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                if outer:
                    rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def dump(self) -> dict:
        """Aggregated spans, distinct-argument counts and counters as JSON."""
        return {
            "spans": [[n, p, r[0], r[1], r[2]] for (n, p), r in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "distinct": {n: len(k) for n, k in sorted(self.keys.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _replace_everywhere(owner, attr: str, new):
    """Rebind ``owner.attr`` and every bhverify module global bound to the
    same object, so re-exported names are traced too."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("bhverify") and mod is not None:
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def _wrap_function(tracer, owner, attr, name, **kw):
    _replace_everywhere(owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))


def _wrap_method(tracer, cls, attr, name, **kw):
    setattr(cls, attr, tracer.wrap(vars(cls)[attr], name, **kw))


def _from_terms_prepare(tracer, args):
    # the raw terms may be a generator: materialize once to count them
    cls, valence, raw = args
    raw = list(raw)
    tracer.add("tensor.from_terms.terms_in", len(raw))
    return cls, valence, raw


def _from_terms_after(tracer, args, result):
    tracer.add("tensor.from_terms.terms_out", len(result.terms))


def _solve_ivp_after(tracer, args, sol):
    tracer.add("radial.rhs_evals", int(sol.nfev))
    tracer.add("radial.steps", len(sol.t) - 1)


def _render_json_after(tracer, args, text):
    tracer.add("report.json_bytes", len(text.encode()))


def install(tracer: Tracer):
    """Wrap the traced functions of every bhverify module.

    Imports all bhverify modules first, so that every re-export exists when
    the originals are replaced.
    """
    mods = {m: importlib.import_module(f"bhverify.{m}") for m in MODULES}
    from sympy.polys.rings import PolyElement

    cli, coeffs, tensor = mods["cli"], mods["coeffs"], mods["tensor"]
    calculus, registry, paramcheck = mods["calculus"], mods["registry"], mods["paramcheck"]
    jetoracle, radial, report = mods["jetoracle"], mods["radial"], mods["report"]

    for attr in ("run_verify", "run_combination", "run_params", "run_scan_pd",
                 "run_oracle", "run_radial"):
        _wrap_function(tracer, cli, attr, f"cli.{attr}")

    ps = coeffs.ParamScalar
    for op in ARITH_OPERATORS:
        _wrap_method(tracer, ps, op, "coeffs.arith")
    _wrap_method(tracer, ps, "subs_param", "coeffs.subs_param", distinct=True)
    _wrap_method(tracer, ps, "evaluate", "coeffs.evaluate")
    _wrap_method(tracer, PolyElement, "cancel", "coeffs.cancel")

    _wrap_function(tracer, tensor, "canonical_form", "tensor.canonical_form",
                   distinct=True)
    from_terms = vars(tensor.TExpr)["from_terms"].__func__
    tensor.TExpr.from_terms = classmethod(tracer.wrap(
        from_terms, "tensor.from_terms", prepare=_from_terms_prepare,
        after=_from_terms_after))

    for attr in ("substitute_defs", "divergence", "grad"):
        _wrap_function(tracer, calculus, attr, f"calculus.{attr}")

    for attr in ("all_identities", "verify_identity", "solve_combination"):
        _wrap_function(tracer, registry, attr, f"registry.{attr}")

    for attr in ("check_minor_formulas", "numeric_pd_scan", "exponent_grid_check"):
        _wrap_function(tracer, paramcheck, attr, f"paramcheck.{attr}")
    _wrap_function(tracer, paramcheck, "positivity_certificate",
                   "paramcheck.positivity_certificate", distinct=True)
    _wrap_method(tracer, paramcheck.MatrixA, "entry_polys_in_alpha",
                 "paramcheck.entry_polys_in_alpha")

    _wrap_function(tracer, jetoracle, "sample_jet", "jetoracle.sample_jet",
                   distinct=True)
    for attr in ("eval_monomial_batch", "identity_lhs_flat_terms",
                 "sharp_constant_search"):
        _wrap_function(tracer, jetoracle, attr, f"jetoracle.{attr}")

    _wrap_function(tracer, radial, "shoot", "radial.shoot")
    _wrap_function(tracer, radial, "solve_ivp", "radial.solve_ivp",
                   after=_solve_ivp_after)

    _wrap_function(tracer, report, "build_report", "report.build_report")
    _wrap_function(tracer, report, "render_json", "report.render_json",
                   after=_render_json_after)


# -- per-layer metrics ---------------------------------------------------------------

def _count(kind):
    return kind, "count", "lower"


def _secs(kind):
    return kind, "s", "lower"


# metric name -> (how it is read from a dump, unit, better)
LAYER_METRICS = {
    **{f"cli.{f}.s": _secs("s") for f in (
        "run_verify", "run_combination", "run_params", "run_scan_pd",
        "run_oracle", "run_radial")},
    "coeffs.arith.calls": _count("calls"),
    "coeffs.arith.self_s": _secs("self_s"),
    "coeffs.cancel.calls": _count("calls"),
    "coeffs.cancel.s": _secs("s"),
    "coeffs.subs_param.calls": _count("calls"),
    "coeffs.subs_param.distinct_ratio": ("distinct_ratio", "ratio", "higher"),
    "coeffs.subs_param.self_s": _secs("self_s"),
    "coeffs.evaluate.calls": _count("calls"),
    "coeffs.evaluate.s": _secs("s"),
    "tensor.canonical_form.calls": _count("calls"),
    "tensor.canonical_form.hit_ratio": ("hit_ratio", "ratio", "higher"),
    "tensor.from_terms.calls": _count("calls"),
    "tensor.from_terms.terms_in": _count("counter"),
    "tensor.from_terms.terms_out": _count("counter"),
    "tensor.from_terms.self_s": _secs("self_s"),
    "calculus.substitute_defs.calls": _count("calls"),
    "calculus.substitute_defs.self_s": _secs("self_s"),
    "calculus.divergence.self_s": _secs("self_s"),
    "calculus.grad.self_s": _secs("self_s"),
    "registry.all_identities.s": _secs("s"),
    "registry.verify_identity.calls": _count("calls"),
    "registry.verify_identity.s": _secs("s"),
    "registry.solve_combination.s": _secs("s"),
    "paramcheck.check_minor_formulas.s": _secs("s"),
    "paramcheck.positivity_certificate.calls": _count("calls"),
    "paramcheck.positivity_certificate.distinct_ratio": ("distinct_ratio", "ratio", "higher"),
    "paramcheck.positivity_certificate.self_s": _secs("self_s"),
    "paramcheck.entry_polys_in_alpha.s": _secs("s"),
    "paramcheck.numeric_pd_scan.self_s": _secs("self_s"),
    "paramcheck.exponent_grid_check.s": _secs("s"),
    "jetoracle.sample_jet.calls": _count("calls"),
    "jetoracle.sample_jet.distinct_ratio": ("distinct_ratio", "ratio", "higher"),
    "jetoracle.sample_jet.s": _secs("s"),
    "jetoracle.eval_monomial_batch.calls": _count("calls"),
    "jetoracle.eval_monomial_batch.s": _secs("s"),
    "jetoracle.identity_lhs_flat_terms.s": _secs("s"),
    "jetoracle.sharp_constant_search.s": _secs("s"),
    "radial.shoot.calls": _count("calls"),
    "radial.solve_ivp.calls": _count("calls"),
    "radial.solve_ivp.s": _secs("s"),
    "radial.rhs_evals": _count("counter"),
    "radial.rhs_evals_per_traj": ("rhs_evals_per_traj", "count", "lower"),
    "radial.steps": _count("counter"),
    "report.build_report.s": _secs("s"),
    "report.render_json.s": _secs("s"),
    "report.json_bytes": _count("counter"),
}


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metric values from a ``Tracer.dump``."""
    calls, outer, self_s = {}, {}, {}
    for name, _parent, n, s, own in dump["spans"]:
        calls[name] = calls.get(name, 0) + n
        outer[name] = outer.get(name, 0.0) + s
        self_s[name] = self_s.get(name, 0.0) + own
    counters, distinct = dump["counters"], dump["distinct"]
    out = {}
    for metric, (kind, _unit, _better) in LAYER_METRICS.items():
        span = metric.rsplit(".", 1)[0]
        if kind == "calls":
            value = calls.get(span, 0)
        elif kind == "s":
            value = outer.get(span, 0.0)
        elif kind == "self_s":
            value = self_s.get(span, 0.0)
        elif kind == "counter":
            value = counters.get(metric, 0)
        elif kind == "distinct_ratio":
            value = distinct.get(span, 0) / calls[span] if calls.get(span) else 0.0
        elif kind == "hit_ratio":
            value = 1.0 - distinct.get(span, 0) / calls[span] if calls.get(span) else 0.0
        else:  # rhs_evals_per_traj
            ivp = calls.get("radial.solve_ivp", 0)
            value = counters.get("radial.rhs_evals", 0) / ivp if ivp else 0.0
        out[metric] = value
    return out

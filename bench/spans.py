"""Spans around calls into kwise, installed from the benchmark's side.

A wrapper replaces a function at the name where kwise looks it up (for
example `kwise.cli.haagerup_constant`, or `ExactSimplex.maximize` on the
class), times each call, and subtracts the time of spans opened inside it to
get the caller's own time.  Wrappers exist only in traced rounds; untraced
rounds run kwise untouched.
"""
from __future__ import annotations

import builtins
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

CLI_SUBCOMMANDS = (
    "construct", "verify", "moment", "bound", "constant", "sample", "estimate", "table",
)
STREAM_KINDS = ("partition", "xor", "independent")


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.longest: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self._open: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._real_import = None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        inner = [0.0]
        self._open.append(inner)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self._open.pop()
            if self._open:
                self._open[-1][0] += took
            self.total[name] += took
            self.own[name] += took - inner[0]
            self.calls[name] += 1
            if took > self.longest[name]:
                self.longest[name] = took

    def wrap(self, owner, attr: str, name: str, key=None) -> None:
        """Replace owner.attr with a spanned call; key(*args) names the
        distinct inputs seen, when given."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            return self.span(name, original, *args, **kwargs)

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, original))

    def wrap_when_imported(self, module: str, attr: str, name: str) -> None:
        """Wrap module.attr as soon as an import statement has loaded the
        module, so that a lazy import stays where the program puts it."""
        real_import = builtins.__import__
        self._real_import = real_import

        def importing(*args, **kwargs):
            loaded = real_import(*args, **kwargs)
            target = sys.modules.get(module)
            # a nested import can see the module half-initialized: wait for attr
            if hasattr(target, attr) and builtins.__import__ is importing:
                builtins.__import__ = real_import
                self._real_import = None
                self.wrap(target, attr, name)
            return loaded

        builtins.__import__ = importing

    def remove(self) -> None:
        if self._real_import is not None:
            builtins.__import__ = self._real_import
            self._real_import = None
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> None:
    """Every span of the layer table, for every workload alike."""
    import kwise.cli as cli
    import kwise.extremal as extremal
    from kwise.simplex import ExactSimplex

    for owner in (extremal, cli):
        tracer.wrap(owner, "solve_full", "extremal.solve_full")
    tracer.wrap(extremal, "full_constraint_labels", "extremal.full_rows")
    tracer.wrap(extremal, "verify_certificate", "simplex.certify")
    tracer.wrap(extremal, "rational_power", "intervals.rational_power")
    tracer.wrap(extremal, "uniqueness_check", "extremal.uniqueness_check")
    tracer.wrap(ExactSimplex, "prepare", "simplex.phase1")
    tracer.wrap(ExactSimplex, "maximize", "simplex.phase2")
    tracer.wrap(cli, "solve_reduced", "extremal.solve_reduced")
    tracer.wrap(cli, "haagerup_constant", "bounds.haagerup",
                key=lambda p, *rest, **kw: p)
    tracer.wrap(cli, "interpolation_bound", "bounds.interpolation")
    tracer.wrap(cli, "sharp_pairwise_value", "bounds.sharp")
    tracer.wrap(cli, "ratio_from_moment", "moments.ratio_from_moment")
    tracer.wrap(cli, "pth_moment", "moments.pth_moment")
    tracer.wrap(cli, "check_kwise", "independence.check_kwise")
    if sys.modules.get("scipy", True) is not None:  # not blocked
        tracer.wrap_when_imported("scipy.optimize", "linprog", "extremal.hint")


def layer_metrics(tracer: Tracer, draw_us: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced round, by name."""
    t, c = tracer.total, tracer.calls
    out = {
        "extremal.full_rows_s": t["extremal.full_rows"],
        "extremal.hint_s": t["extremal.hint"],
        "extremal.hint_calls": c["extremal.hint"],
        "simplex.phase1_s": t["simplex.phase1"],
        "simplex.phase2_s": t["simplex.phase2"],
        "simplex.maximize_calls": c["simplex.phase2"],
        "simplex.certify_s": t["simplex.certify"],
        "extremal.solve_full_self_s": tracer.own["extremal.solve_full"],
        "extremal.solve_full_max_s": tracer.longest["extremal.solve_full"],
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = t[f"cli.{sub}"]
    out.update({
        "bounds.haagerup_s": t["bounds.haagerup"],
        "bounds.haagerup_calls": c["bounds.haagerup"],
        "bounds.haagerup_distinct_p": len(tracer.keys["bounds.haagerup"]),
        "bounds.interpolation_s": t["bounds.interpolation"],
        "bounds.sharp_s": t["bounds.sharp"],
        "extremal.solve_reduced_s": t["extremal.solve_reduced"],
        "extremal.uniqueness_check_s": t["extremal.uniqueness_check"],
        "intervals.rational_power_s": t["intervals.rational_power"],
        "moments.ratio_from_moment_s": t["moments.ratio_from_moment"],
        "moments.pth_moment_s": t["moments.pth_moment"],
        "independence.check_kwise_s": t["independence.check_kwise"],
    })
    for kind in STREAM_KINDS:
        out[f"sampler.{kind}_draw_us"] = draw_us.get(kind, 0.0)
        out[f"sampler.estimate_{kind}_s"] = t[f"sampler.estimate_{kind}"]
    return out

"""Per-layer spans taken from outside the program.

The tracer patches each layer's public functions with a timing wrapper:
every module binding of a wrapped function (``verify``, ``schur`` and
``formulas`` import ``det`` by name) and every class attribute of a wrapped
ring op (``__rmul__`` is an alias of ``__mul__``).  No span is stored: each
call is folded into a (workload section, enclosing span, layer) aggregate of
call count and self time, so the 10^5 ring ops of one verification stay
cheap to record.  Self time is a call's duration minus the time its traced
children took.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

RINGS = ("int", "poly", "cyc", "gauss", "fraction")
DET_STRATEGIES = (
    "fraction-free-elimination",
    "sparse-minor-expansion",
    "bivariate-interpolation",
    "permutation-expansion",
)

# Layers whose .calls and .self_s the traced run can report.
LAYERS = (
    ("poly.mul", "poly.exact_div",
     "cyclotomic.cycint.mul", "cyclotomic.cycint.exact_div",
     "cyclotomic.gaussint.mul", "cyclotomic.gaussint.exact_div")
    + tuple(f"linalg.det.{r}.{s}" for r in RINGS for s in DET_STRATEGIES)
    + tuple(f"linalg.permanent.{r}" for r in RINGS)
    + ("linalg.charpoly",
       "schur.condensation_det", "schur.schur_det_step", "schur.invert_T",
       "matrices.build",
       "formulas.theta_table_row", "formulas.mitra_ratio",
       "verify.conj1", "verify.conj2", "verify.conj3", "verify.props")
)
COUNTERS = ("poly.exact_div.terms_in", "linalg.det.max_dim", "linalg.permanent.failed")

_FUNCTIONS = (
    ("verify", "verify_conjecture1", "verify.conj1"),
    ("verify", "verify_conjecture2", "verify.conj2"),
    ("verify", "verify_conjecture3", "verify.conj3"),
    ("verify", "verify_props", "verify.props"),
    ("schur", "condensation_det", "schur.condensation_det"),
    ("schur", "schur_det_step", "schur.schur_det_step"),
    ("schur", "invert_T", "schur.invert_T"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("matrices", "build_huckel", "matrices.build"),
    ("matrices", "build_reduced", "matrices.build"),
    ("matrices", "evaluate_matrix", "matrices.build"),
    ("matrices", "build_general_binomial", "matrices.build"),
    ("formulas", "theta_table_row", "formulas.theta_table_row"),
    ("formulas", "mitra_ratio", "formulas.mitra_ratio"),
)

_RING_OPS = (
    ("poly", "MultiPoly", "poly.mul", "poly.exact_div"),
    ("cyclotomic", "CycInt", "cyclotomic.cycint.mul", "cyclotomic.cycint.exact_div"),
    ("cyclotomic", "GaussInt", "cyclotomic.gaussint.mul", "cyclotomic.gaussint.exact_div"),
)


class Tracer:
    """Aggregates spans while installed; ``hp`` holds the program's modules."""

    def __init__(self, hp):
        self.hp = hp
        self.package = hp.linalg.__name__.rpartition(".")[0]
        self.stats: dict[tuple[str, str, str], list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.section = ""
        self._stack = [["op", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = defaultdict(int)
        self._stack[:] = [["op", 0.0]]

    def in_section(self, section: str, run):
        """``run``, with its spans attributed to a workload section."""
        def sectioned():
            self.section = section
            return run()
        return sectioned

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for mod_name, attr, layer in _FUNCTIONS:
            original = getattr(getattr(self.hp, mod_name), attr)
            self._rebind(modules, original, self._wrap(original, layer))
        linalg = self.hp.linalg
        self._rebind(modules, linalg.det, self._wrap(linalg.det, namer=self._det_name))
        self._rebind(modules, linalg.permanent,
                     self._wrap(linalg.permanent, namer=self._permanent_name,
                                on_error="linalg.permanent.failed"))
        for mod_name, cls_name, mul_layer, div_layer in _RING_OPS:
            cls = getattr(getattr(self.hp, mod_name), cls_name)
            mul = cls.__dict__["__mul__"]
            wrapped_mul = self._wrap(mul, mul_layer)
            for attr in ("__mul__", "__rmul__"):
                if cls.__dict__.get(attr) is mul:
                    self._set(cls, attr, wrapped_mul)
            div = cls.__dict__["exact_div"]
            if cls_name == "MultiPoly":
                self._set(cls, "exact_div", self._wrap(div, div_layer, terms_in=True))
            else:
                self._set(cls, "exact_div", self._wrap(div, div_layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # -- span names --------------------------------------------------------------

    def _det_name(self, args, kwargs) -> str:
        matrix = args[0]
        strategy = args[1] if len(args) > 1 else kwargs.get(
            "strategy", "fraction-free-elimination")
        dim = matrix.dim
        if dim > self.counters["linalg.det.max_dim"]:
            self.counters["linalg.det.max_dim"] = dim
        return f"linalg.det.{self.hp.linalg.ring_kind(matrix)}.{strategy}"

    def _permanent_name(self, args, kwargs) -> str:
        return f"linalg.permanent.{self.hp.linalg.ring_kind(args[0])}"

    # -- the wrapper ---------------------------------------------------------------

    def _wrap(self, fn, layer: str | None = None, namer=None,
              on_error: str | None = None, terms_in: bool = False):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer is not None else layer
            if terms_in:
                tracer.counters["poly.exact_div.terms_in"] += len(args[0].terms)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    tracer.counters[on_error] += 1
                raise
            finally:
                duration = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                key = (tracer.section, parent[0], name)
                entry = tracer.stats.get(key)
                if entry is None:
                    tracer.stats[key] = [1, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """calls and self seconds per layer, summed over enclosing spans."""
        totals: dict[str, list] = {}
        for (_, _, name), (calls, self_s) in self.stats.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def section_totals(self) -> dict[str, dict[str, list]]:
        """calls and self seconds per workload section and layer."""
        totals: dict[str, dict[str, list]] = {}
        for (section, _, name), (calls, self_s) in self.stats.items():
            entry = totals.setdefault(section, {}).setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def counts(self) -> dict[str, int]:
        """Everything the run counted, which must repeat exactly."""
        out = {">".join(key): calls for key, (calls, _) in sorted(self.stats.items())}
        out.update(sorted(self.counters.items()))
        return out

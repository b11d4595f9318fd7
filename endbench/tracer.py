"""Per-layer tracing of endatlas from outside the library.

``Tracer.install`` replaces each target function with a timing wrapper and
rebinds every alias of it in every loaded ``endatlas`` module (imports such as
``from .weyl import torus_action`` make their own module attribute), so calls
are caught whichever name they go through.  ``Tracer.restore`` puts every
original binding back.  Nothing under ``src/`` changes.

Spans are aggregated as they close rather than kept: the oracle sweep makes
millions of calls into the small primitives, and one record per span would
cost more memory than the program it measures.  Self time is a span's
duration minus the durations of its direct child spans; the library is
single-threaded here, so spans nest strictly.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> wrapped names; a dotted name is a method on a class of that module.
TARGETS = {
    "rootsys": ("build_root_system", "RootSystem.pairing"),
    "weyl": (
        "WeylElement.inverse",
        "torus_action",
        "weyl_part_if_member",
        "find_base_transport",
        "is_base",
        "enumerate_weyl",
        "omega_group",
    ),
    "torus": ("TorusElement.value_at",),
    "_linalg": ("solve_in_basis", "zspan_basis"),
    "galois": ("places", "restrict_model", "enumerate_cocycles"),
    "endodata": (
        "equivalent",
        "equivalent_bruteforce",
        "langlands_normalize",
        "is_elliptic",
        "localize",
        "make_datum",
        "make_datum_from_family",
        "_transport_in_subsystem",
    ),
    "elliptic": (
        "brute_force_inventory",
        "classify_elliptic",
        "pair_to_datum",
        "verify_sigma_structure",
        "match_classification",
    ),
    "localglobal": ("check_local_global", "exhaustive_local_global", "counterexample_search"),
    "reduction": (
        "finite_order_reduction",
        "shapiro_induce",
        "shapiro_descend",
        "equivalence_transfers_under_shapiro",
    ),
    "serialize": ("load_datum", "report_to_dict", "dumps"),
    "suites": ("bijection_suite", "local_global_suite", "reduction_suite", "shapiro_suite"),
    "cli": ("main",),
}

WITNESS_TARGET = "endodata.equivalent"
INVENTORY_TARGET = "elliptic.brute_force_inventory"


def metric_prefix(module: str, name: str) -> str:
    # metric names must start with a letter, so "_linalg" is reported as "linalg"
    return f"{module.lstrip('_')}.{name}"


def per_layer_names():
    """Every per-layer metric name with its unit and direction, in report order."""
    out = []
    for module, names in TARGETS.items():
        for name in names:
            prefix = metric_prefix(module, name)
            out.append((f"{prefix}.calls", "count", "lower"))
            out.append((f"{prefix}.self_s", "s", "lower"))
    out.append((f"{WITNESS_TARGET}.witness_ratio", "ratio", "higher"))
    out.append((f"{INVENTORY_TARGET}.repeat_ratio", "ratio", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    """Wraps the TARGETS of a loaded endatlas; use as a context manager."""

    def __init__(self):
        self.stats = {}  # "module.name" -> [calls, self seconds]
        self.witnesses = 0
        self.inventory_keys = set()
        self._stack = []  # per open span: seconds covered by its closed children
        self._saved = []  # (owner, attribute, original), in install order
        self._hooks = {
            WITNESS_TARGET: self._count_witness,
            INVENTORY_TARGET: self._note_inventory,
        }

    # -- hooks on results -----------------------------------------------------

    def _count_witness(self, args, kwargs, result):
        if result is not None:
            self.witnesses += 1

    def _note_inventory(self, args, kwargs, result):
        rs, galois, order_bound = (list(args) + [None] * 3)[:3]
        rs = kwargs.get("rs", rs)
        galois = kwargs.get("galois", galois)
        order_bound = kwargs.get("order_bound", order_bound)
        self.inventory_keys.add((repr(rs), repr(galois.key()), order_bound))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stat[0] += 1
                if elapsed > covered:
                    stat[1] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"endatlas.{m}") for m in TARGETS}
        replaced = {}  # id(original function) -> (original, wrapper)
        try:
            for module, names in TARGETS.items():
                for name in names:
                    owner = modules[module]
                    *path, attr = name.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(metric_prefix(module, name), original)
                    self._set(owner, attr, wrapper)
                    if not path:
                        replaced[id(original)] = (original, wrapper)
            loaded = [
                m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "endatlas" or n.startswith("endatlas."))
            ]
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._set(mod, attr, hit[1])
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> float:
        return sum(s for _, s in self.stats.values())

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer values keyed as in ``per_layer_names``."""
        out = {}
        for module, names in TARGETS.items():
            for name in names:
                prefix = metric_prefix(module, name)
                calls, self_s = self.stats.get(prefix, (0, 0.0))
                out[f"{prefix}.calls"] = calls
                out[f"{prefix}.self_s"] = self_s
        eq_calls = out[f"{WITNESS_TARGET}.calls"]
        inv_calls = out[f"{INVENTORY_TARGET}.calls"]
        out[f"{WITNESS_TARGET}.witness_ratio"] = self.witnesses / eq_calls if eq_calls else 0.0
        out[f"{INVENTORY_TARGET}.repeat_ratio"] = (
            inv_calls / len(self.inventory_keys) if self.inventory_keys else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out

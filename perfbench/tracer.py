"""Per-layer tracing of the afflap CLI from outside the package.

The tracer wraps public functions and methods of the afflap modules by
replacing module and class attributes at every place they are bound: the
defining module, each module that imported the name, and the identity
registry.  Nothing under ``src/afflap`` is edited.  ``Tracer.uninstall``
puts every original object back.

Spans are aggregated per name in memory (calls, self time, inclusive time,
longest single call) instead of being kept one per call: the hot layers are
called hundreds of thousands of times per run.  A span's self time is its
duration minus the time its child spans took.  Result hooks (matrix sizes,
slice counters) run after the span closes and are charged to no span, so
they show up as unattributed time rather than as a layer's self time.

Run as a script, it executes one traced CLI call and writes the aggregated
trace as the last line of stderr, after the marker ``TRACE_MARKER``:

    PYTHONPATH=src python3 perfbench/tracer.py spectrum --k 2 --h-max 6 --format json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACE_MARKER = "PERFBENCH-TRACE "

MODULES = ("chains", "cli", "generators", "identities", "laplacian",
           "linalg", "series", "sl2")

# (module, attribute path, span name); the attribute path may name a method
SPANS = (
    ("chains", "matrix_of", "chains.matrix_of"),
    ("chains", "enumerate_block", "chains.enumerate_block"),
    ("chains", "block_dim_table", "chains.block_dim_table"),
    ("laplacian", "laplacian_by_definition", "laplacian.laplacian_by_definition"),
    ("laplacian", "laplacian_closed_form", "laplacian.laplacian_closed_form"),
    ("laplacian", "spectrum", "laplacian.spectrum"),
    ("laplacian", "homology_table", "laplacian.homology_table"),
    ("linalg", "IntMatrix.__mul__", "linalg.IntMatrix.mul"),
    ("linalg", "bareiss_rank", "linalg.bareiss_rank"),
    ("linalg", "rank_mod_p", "linalg.rank_mod_p"),
    ("linalg", "fraction_kernel", "linalg.fraction_kernel"),
    ("linalg", "certify_full_rank", "linalg.certify_full_rank"),
    ("sl2", "singular_block_dims", "sl2.singular_block_dims"),
    ("sl2", "singular_multiplicities", "sl2.singular_multiplicities"),
    ("sl2", "RepRingElement.__mul__", "sl2.RepRingElement.mul"),
    ("sl2", "HalfLaurent.__mul__", "sl2.HalfLaurent.mul"),
    ("series", "product_over", "series.product_over"),
    ("series", "Series.__mul__", "series.Series.mul"),
    ("series", "Series.inverse", "series.Series.inverse"),
    ("cli", "_spectrum_task", "cli.tasks"),
    ("cli", "_homology_task", "cli.tasks"),
    ("cli", "_verify_task", "cli.tasks"),
    ("cli", "main", "cli.main"),
)

# counted without a span: normalize_wedge runs millions of times inside the
# operator loops, and a timed span per call would distort their self time
COUNTERS = (("chains", "normalize_wedge", "chains.normalize_wedge.calls"),)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "max_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0   # outermost activations only, so recursion is not doubled
        self.max_s = 0.0
        self.active = 0


class Tracer:
    """Installs span wrappers into the afflap modules and aggregates them."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_modular = None
        self._dim_table = None  # the unwrapped lru_cache of block_dim_table
        self._dim_table_misses = 0

    # -- wrappers ---------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn, on_result=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += took - children[0]
                if not stat.active:
                    stat.incl_s += took
                if took > stat.max_s:
                    stat.max_s = took
            if on_result is not None:
                on_result(result)
            if stack:
                # the parent's self time excludes this call and its hook
                stack[-1][0] += clock() - start
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks -----------------------------------------------------
    def _hooks(self) -> dict:
        def matrix(result):
            self._count("chains.matrix_of.columns", result.cols)
            self._count("chains.matrix_of.nnz", result.nnz())

        def block(result):
            self._count("chains.enumerate_block.monomials", len(result))

        def gamma(result):
            self._count("laplacian.gamma.nnz", result.nnz())
            self.counts["laplacian.block.dim_max"] = max(
                self.counts.get("laplacian.block.dim_max", 0), result.cols)

        def spectrum(result):
            self._count("laplacian.spectrum.exact_slices", result.exact_slices)
            self._count("laplacian.spectrum.modular_slices", result.modular_slices)
            self._count("laplacian.spectrum.residual_checked", result.residual_checked)

        def certify(result):
            if result:
                self._count("linalg.certify_full_rank.proved")

        return {"chains.matrix_of": matrix,
                "chains.enumerate_block": block,
                "laplacian.laplacian_by_definition": gamma,
                "laplacian.spectrum": spectrum,
                "linalg.certify_full_rank": certify}

    def _modular_hooks(self, laplacian):
        """Count exact re-checks that follow a modular-nullity mismatch."""
        modular, exact = laplacian.nullity_mod_p, laplacian.exact_nullity

        @functools.wraps(modular)
        def nullity_mod_p(matrix, lam=0, *rest):
            self._last_modular = (matrix, lam)
            return modular(matrix, lam, *rest)

        @functools.wraps(exact)
        def exact_nullity(matrix, lam=0):
            last = self._last_modular
            if last is not None and last[0] is matrix and last[1] == lam:
                self._count("linalg.modular.fallbacks")
            self._last_modular = None
            return exact(matrix, lam)

        return {"nullity_mod_p": nullity_mod_p, "exact_nullity": exact_nullity}

    # -- install / uninstall ----------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules: list, original, replacement) -> None:
        """Replace ``original`` wherever a module attribute is bound to it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {name: importlib.import_module(f"afflap.{name}") for name in MODULES}
        everywhere = [importlib.import_module("afflap"), *mods.values()]
        hooks = self._hooks()
        self._dim_table = mods["chains"].block_dim_table
        self._dim_table_misses = self._dim_table.cache_info().misses
        for mod_name, path, span in SPANS:
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = (owner.__dict__ if cls_path else vars(owner))[attr]
            wrapped = self._span(span, original, hooks.get(span))
            if cls_path:
                self._set(owner, attr, wrapped)
            else:
                self._rebind(everywhere, original, wrapped)
        for mod_name, attr, key in COUNTERS:
            original = getattr(mods[mod_name], attr)
            self._rebind(everywhere, original, self._counter(key, original))
        for attr, wrapped in self._modular_hooks(mods["laplacian"]).items():
            self._set(mods["laplacian"], attr, wrapped)
        registry = mods["identities"]._REGISTRY
        for name, checker in list(registry.items()):
            self._patches.append((registry, name, checker))
            registry[name] = self._span(f"identities.{name}", checker)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.counts["chains.block_dim_table.builds"] = (
            self._dim_table.cache_info().misses - self._dim_table_misses)
        self.uninstall()

    # -- report -----------------------------------------------------------
    def report(self) -> dict:
        """Aggregated spans and exact counts, JSON-ready."""
        return {
            "spans": {name: {"calls": s.calls, "self_s": s.self_s,
                             "incl_s": s.incl_s, "max_s": s.max_s}
                      for name, s in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def main(argv: list[str]) -> int:
    from afflap import cli

    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

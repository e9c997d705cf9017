"""In-process run of one workload, optionally traced layer by layer.

    python3 perfbench/traced.py --workload sym-both-w6 --seed 0 --trace 1

runs ``swcohom.cli.main`` on the workload in this process and prints one JSON
object: the exit code, the CLI's stdout, ``main_s`` (the wall time of the
``cli.main`` call) and, with ``--trace 1``, the per-layer ``metrics`` and the
aggregated ``spans`` and ``edges`` behind them.

Tracing wraps, from outside the package, every public function and public
method of every ``swcohom`` module, plus the private entries in
``PRIVATE_ENTRIES``.  Each call is a span named ``<module>.<qualname>``.  A
wrapped function is rebound under every name any ``swcohom`` module holds it
by (``homology.rank``, ``cli.reduced_complex``, ...), so calls through
re-imported names land in their span too.  A span's self time is its
duration minus the durations of the spans it called.

Spans roll up into the layers the benchmark reports:

* modules: ``<module>.self_s`` sums the self time of the module's spans;
* groups: the stages in ``GROUPS``.  A group's self time is the self time of
  its entry spans plus that of the spans of the same module called beneath
  them, so ``linalg.coords_of`` includes the membership reduction inside it
  but ``homology.centralizer`` excludes the ``kernel_basis`` it calls.
"""

import argparse
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from workloads import WORKLOADS, cli_argv

ROOT = Path(__file__).resolve().parent.parent

# private methods that are stage entries in their own right
PRIVATE_ENTRIES = frozenset({
    "SymmetricGroupSequence._mul_basis_raw",
    "SkewGroupSequence._mul_basis_raw",
    "HeckeSequence._mul_basis_raw",
    "QuotientSpace.__init__",
    "CochainComplex.__init__",
    "LieAlgebraSpec._validate",
})

# entry span -> the stage (group) it starts
GROUPS = {
    "homology.centralizer": "homology.centralizer",
    "homology.deformation_complex_truncated": "homology.assembly",
    "homology.cubic_complex": "homology.assembly",
    "homology.reduced_complex": "homology.assembly",
    "linalg.Subspace.coords_of": "linalg.coords_of",
    "linalg.Echelon.insert": "linalg.echelon_insert",
    "linalg.kernel_basis": "linalg.kernel_basis",
    "linalg.subspace_sum": "linalg.subspace_sum",
    "linalg.QuotientSpace.__init__": "linalg.quotient",
    "linalg.rank": "linalg.rank",
    "linalg.rank_mod": "linalg.rank_mod",
    "linalg.rank_exact": "linalg.rank_exact",
    "linalg.CochainComplex.__init__": "linalg.ddcheck",
    "linalg.SparseMatrix.matmul": "linalg.matmul",
    "sequences.SymmetricGroupSequence._mul_basis_raw": "sequences.basis_product",
    "sequences.SkewGroupSequence._mul_basis_raw": "sequences.basis_product",
    "sequences.HeckeSequence._mul_basis_raw": "sequences.basis_product",
    "sequences.MultiplicativeSequence.mu": "sequences.mu",
    "symgrp.signed_orbit_tuples": "symgrp.signed_orbit",
    "lierep.wheel_vanishing_table": "lierep.wheels",
    "lierep.verify_wheel_action": "lierep.wheels",
    "lierep.exterior_invariants_dims": "lierep.ext_invariants",
    "lierep.LieAlgebraSpec._validate": "lierep.spec_validate",
    "cli.main": "cli.main",
}
GROUP_MODULE = {g: g.split(".", 1)[0] for g in GROUPS.values()}


def _centralizer_counts(tracer, args, kwargs, result):
    # a hit returns the very object an earlier call with the same key built
    seq, comp = args[0], args[1]
    route = args[2] if len(args) > 2 else kwargs.get("route", "auto")
    key = (id(seq), comp.parts, route)
    seen = tracer.memo.get(key)
    if seen is None or seen[1] is not result:
        tracer.counters["homology.centralizer.builds"] += 1
        tracer.memo[key] = (seq, result)


def _coords_counts(tracer, args, kwargs, result):
    values = result.values() if isinstance(result, dict) else result
    tracer.counters["linalg.coords_of.coords_len"] += len(result)
    tracer.counters["linalg.coords_of.coords_nnz"] += sum(1 for c in values if c)


def _insert_counts(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["linalg.echelon_insert.accepted"] += 1


def _kernel_counts(tracer, args, kwargs, result):
    M = args[0]
    tracer.counters["linalg.kernel_basis.nnz_in"] += len(M.entries)
    tracer.counters["linalg.kernel_basis.cells_in"] += M.rows * M.cols


def _rank_counts(tracer, args, kwargs, result):
    tracer.counters["linalg.rank.nnz_in"] += len(args[0].entries)


COUNTERS = ("homology.centralizer.builds", "linalg.coords_of.coords_len",
            "linalg.coords_of.coords_nnz", "linalg.echelon_insert.accepted",
            "linalg.kernel_basis.nnz_in", "linalg.kernel_basis.cells_in",
            "linalg.rank.nnz_in")

HOOKS = {
    "homology.centralizer": _centralizer_counts,
    "linalg.Subspace.coords_of": _coords_counts,
    "linalg.Echelon.insert": _insert_counts,
    "linalg.kernel_basis": _kernel_counts,
    "linalg.rank": _rank_counts,
}


class Tracer:
    """Aggregated spans of one process: per span, per group, per module."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # frames: [child_s, span, group, module]
        self.spans = {}          # span -> [calls, total_s, self_s]
        # group -> [entry calls, entry total_s, self_s]
        self.groups = {g: [0, 0.0, 0.0] for g in GROUP_MODULE}
        self.modules = Counter()  # module -> self_s
        self.edges = Counter()   # (caller span, callee span) -> calls
        self.raised = Counter()  # (span, exception class) -> count
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))
        self.memo = {}

    def wrap(self, span, module, fn):
        entry_group = GROUPS.get(span)
        hook = HOOKS.get(span)
        stack, spans, groups, modules = self.stack, self.spans, self.groups, self.modules
        edges, raised = self.edges, self.raised
        clock = self.clock
        spans[span] = [0, 0.0, 0.0]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            group = entry_group
            if group is None and parent is not None and parent[2] is not None \
                    and GROUP_MODULE[parent[2]] == module:
                group = parent[2]
            frame = [0.0, span, group, module]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[(span, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                rec = spans[span]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += own
                modules[module] += own
                if group is not None:
                    grec = groups[group]
                    grec[2] += own
                    if entry_group is not None:
                        grec[0] += 1
                        grec[1] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                    edges[(parent[1], span)] += 1
                else:
                    edges[(None, span)] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package="swcohom"):
        """Wrap every public function and method of ``package``'s modules."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module("%s.%s" % (package, info.name))
                           for info in pkgutil.iter_modules(pkg.__path__)]
        replaced = {}   # id(original) -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                elif callable(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self.wrap("%s.%s" % (short, name), short, obj)
        # rebind every name that refers to a wrapped function, in every module
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        return replaced

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            qual = "%s.%s" % (cls.__name__, attr)
            if attr.startswith("_") and qual not in PRIVATE_ENTRIES:
                continue
            span = "%s.%s" % (short, qual)
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(span, short, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(span, short, raw))

    def metrics(self):
        """Flat per-layer numbers: group calls/total/self, module self, counters."""
        out = {}
        for group, (calls, total, own) in self.groups.items():
            out[group + ".calls"] = calls
            out[group + ".total_s"] = total
            out[group + ".self_s"] = own
        for module in {span.split(".", 1)[0] for span in self.spans}:
            out[module + ".self_s"] = self.modules[module]
        out.update(self.counters)
        out["linalg.rank.bad_prime"] = self.raised[("linalg.rank_mod", "BadPrimeError")]
        out["homology.centralizer.hit_ratio"] = _ratio(
            out["homology.centralizer.calls"] - out["homology.centralizer.builds"],
            out["homology.centralizer.calls"])
        out["linalg.coords_of.useful_ratio"] = _ratio(
            out["linalg.coords_of.coords_nnz"], out["linalg.coords_of.coords_len"])
        out["linalg.echelon_insert.accept_ratio"] = _ratio(
            out["linalg.echelon_insert.accepted"], out["linalg.echelon_insert.calls"])
        return out

    def report(self):
        return {
            "metrics": self.metrics(),
            "spans": {span: {"calls": c, "total_s": t, "self_s": s}
                      for span, (c, t, s) in self.spans.items() if c},
            "edges": [[caller, callee, n] for (caller, callee), n in self.edges.items()],
            "raised": [[span, exc, n] for (span, exc), n in self.raised.items()],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def run(workload, seed, trace):
    """Run ``workload`` in this process; returns the document ``main`` prints."""
    sys.path.insert(0, str(ROOT / "src"))
    from swcohom import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(cli_argv(workload, seed))
    doc = {"exit_code": code, "stdout": buf.getvalue(),
           "main_s": time.perf_counter() - start}
    if tracer is not None:
        doc.update(tracer.report())
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    doc = run(args.workload, args.seed, args.trace)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

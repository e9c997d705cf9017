"""Command-line driver: every computation as a reproducible JSON report.

The JSON document is the machine interface (schema ``swcohom/1``); the
pretty and csv printers are views over the same report object.  Reports
embed the seed, the backend and the library version, and identical
configuration produces byte-identical output.  ``--seed`` and ``--backend``
are accepted and echoed in the report envelope only: nothing is randomised,
every rank is exact, and both backends give the same report body.

Exit codes: 0 success; 2 usage error (from argparse, including out-of-range
integer options, unloadable structure-constant files, options that
contradict each other and cross-checks that would compare nothing); 3
resource-guard refusal; 4 cross-check failure, either raised inside a
computation (nothing is printed) or a report whose own check is false (the
report is printed).

Every process compiles what it imports, so this module loads no layer of
the package at import: each ``cmd_*`` handler imports the names it calls
when it runs, and the ``--algebra``/``--lie`` types import their spec class
only when the option is given.  One module ``__getattr__`` (PEP 562) still
resolves ``cli.reduced_complex`` and ``cli.centralizer`` to their layer's
current binding, because ``perfbench/traced.py``'s wrapping check reads
those two names off this module.
"""

import argparse
import json
import sys
from importlib import import_module

from . import CrossCheckError, ResourceLimitError, TruncationOverflowError, __version__

# perfbench/traced.py rebinds every function in its layer, then reads these
# two names off this module to check the wrapping; the handlers hold no layer
# name, so __getattr__ returns the layer's current binding
_TRACED_NAMES = {"reduced_complex": "homology", "centralizer": "homology"}


def __getattr__(name):
    if name not in _TRACED_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _TRACED_NAMES[name], __package__), name)


def _sequence_from_args(args):
    from .sequences import bundled_sequence

    trunc_degree = args.trunc_degree if args.trunc_degree is not None else 3
    return bundled_sequence(args.sequence, algebra=args.algebra, trunc_degree=trunc_degree)


def _envelope(args, command, payload):
    return {
        "schema": "swcohom/1",
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "backend": args.backend,
        "report": payload,
    }


def _emit(args, doc):
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        for path, value in _flatten(doc):
            sys.stdout.write("%s,%s\n" % (path, value))
    else:
        _pretty(doc, indent=0)


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _flatten(doc[k], "%s.%s" % (prefix, k) if prefix else str(k))
    elif isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            yield from _flatten(v, "%s[%d]" % (prefix, i))
    else:
        yield prefix, doc


def _pretty(doc, indent):
    pad = "  " * indent
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                sys.stdout.write("%s%s:\n" % (pad, k))
                _pretty(v, indent + 1)
            else:
                sys.stdout.write("%s%s: %s\n" % (pad, k, v))
    elif isinstance(doc, list):
        if all(not isinstance(v, (dict, list)) for v in doc):
            sys.stdout.write("%s%s\n" % (pad, ", ".join(str(v) for v in doc)))
        else:
            for v in doc:
                _pretty(v, indent + 1)
    else:
        sys.stdout.write("%s%s\n" % (pad, doc))


def _label_str(label):
    """A permutation (a tuple of ints) prints as s(...), a (multi-index,
    permutation) pair as a|s(...)."""
    if all(isinstance(x, int) for x in label):
        return "s%r" % (label,)
    return "%r|s%r" % label


def _vector_report(seq, w, vec):
    return {_label_str(l): str(c) for l, c in seq.vec_to_element(w, vec).items()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(args):
    from .combinat import distinct_odd_partition_series

    series = distinct_odd_partition_series(args.max_degree)
    payload = {"series": series}
    ok = True
    if args.check_reduced:
        from .homology import reduced_complex
        from .sequences import bundled_sequence

        seq = bundled_sequence("symmetric")
        data = reduced_complex(seq, args.check_reduced)
        payload["reduced"] = {str(w): data.h_dims[w] for w in range(1, args.check_reduced + 1)}
        overlaps = {w: series[w] == data.h_dims[w]
                    for w in range(1, min(args.check_reduced, args.max_degree) + 1)}
        payload["agree"] = all(overlaps.values())
        ok = payload["agree"]
    return payload, ok


def cmd_cohomology(args):
    from .homology import deformation_cohomology_truncated, reduced_complex

    seq = _sequence_from_args(args)
    payload = {"sequence": args.sequence}
    ok = True
    if args.mode in ("reduced", "both"):
        data = reduced_complex(seq, args.weight_max)
        payload["reduced"] = data.as_report()
        payload["H"] = {str(w): data.h_dims[w] for w in range(1, args.weight_max + 1)}
        if args.representatives:
            reps = {}
            for w in range(1, args.weight_max + 1):
                rw = data.representatives(w)
                if rw is not None:
                    reps[str(w)] = [_vector_report(seq, w, v) for v in rw]
            payload["representatives"] = reps
    if args.mode in ("full", "both"):
        tr = deformation_cohomology_truncated(seq, args.weight_max)
        payload["full"] = tr.as_report()
    if args.mode == "both":
        agree = all(payload["full"]["H"][str(d)] == payload["H"][str(d)]
                    for d in range(1, args.weight_max))
        payload["consistent"] = agree
        ok = agree
    return payload, ok


def cmd_horizontal(args):
    from .homology import horizontal_cohomology

    seq = _sequence_from_args(args)
    dims = horizontal_cohomology(seq, args.weight)
    top_only = all(v == 0 for d, v in dims.items() if d != args.weight)
    return {"sequence": args.sequence, "weight": args.weight,
            "H": {str(d): v for d, v in dims.items()},
            "concentrated_in_top": top_only}, True


def cmd_cubic(args):
    from .homology import (SnModule, cubic_cohomology, cubic_invariants_diagram,
                           relative_cube_dims, top_quotient)

    counts, expected, agree = relative_cube_dims(args.n)
    payload = {
        "n": args.n,
        "relative_simplex_counts": {str(m): counts[m] for m in counts},
        "multinomial_sums": {str(m): expected[m] for m in expected},
        "agree": agree,
    }
    module = SnModule.regular(args.n)
    dims = cubic_cohomology(cubic_invariants_diagram(module))
    tq = top_quotient(module)
    payload["regular_rep"] = {
        "H": {str(d): v for d, v in dims.items()},
        "top_quotient": tq,
        "acyclic_below_top": all(v == 0 for d, v in dims.items() if d != args.n - 1),
        "top_matches": dims[args.n - 1] == tq,
    }
    ok = agree and payload["regular_rep"]["acyclic_below_top"] \
        and payload["regular_rep"]["top_matches"]
    return payload, ok


def cmd_gl(args):
    from .lierep import (LieAlgebraSpec, check_tensor_size, exterior_invariants_dims,
                         perm_action, verify_wheel_action, wheel_vanishing_table)
    from .symgrp import e_element

    if args.lie:
        g = args.lie
        d = None
    else:
        d = args.dim if args.dim is not None else 2
        max_m = min(2 * d + 1, 6)
        # refuse before any work: d^(2m) grows in d and m, so this bounds every
        # wheel tensor built below (the action checks m = 1, 3, 5 at d lie in
        # the grid for d >= 2, and every tensor has 1 entry at d = 1)
        check_tensor_size(max_m, d)
        g = LieAlgebraSpec.gl(d)
    maxdeg = args.degree_max if args.degree_max is not None else g.dim
    dims = exterior_invariants_dims(g, maxdeg)
    payload = {"algebra": g.name, "invariant_dims": dims}
    ok = True
    if d is not None:
        kox = {}
        for m in (1, 3, 5):
            passed, ratio = verify_wheel_action(m, d)
            kox["m=%d" % m] = {"pass": passed,
                               "ratio": str(ratio) if ratio is not None else "0=0"}
            ok = ok and passed
        payload["wheel_action"] = kox
        table = wheel_vanishing_table(max_m, d)
        payload["vanishing"] = {"m=%d" % m: bool(z)
                                for (m, dd), z in table.items() if dd == d}
        expected_vanish = {m: (m % 2 == 0 or m > 2 * d - 1) for m in range(1, max_m + 1)}
        van_ok = all(table[(m, d)] == expected_vanish[m] for m in expected_vanish
                     if (m, d) in table)
        payload["vanishing_pattern_ok"] = van_ok
        ok = ok and van_ok
        if d == 2:
            e5 = perm_action(5, e_element(5), 2)
            payload["e5_acts_as_zero"] = e5.is_zero()
            ok = ok and payload["e5_acts_as_zero"]
    return payload, ok


def cmd_hecke_check(args):
    from math import comb

    from .combinat import compositions
    from .homology import centralizer, reduced_complex
    from .sequences import bundled_sequence

    seq = bundled_sequence("hecke", trunc_degree=args.trunc_degree)
    D = args.trunc_degree
    payload = {"trunc_degree": D, "level_max": args.level_max}
    ok = True
    cents = {}
    for n in range(1, args.level_max + 1):
        for comp in compositions(n):
            dim = centralizer(seq, comp).dim
            expected = 1
            for p in comp:
                expected *= comb(D + p, p)   # dim Sym^p(k^(D+1))
            cents[str(comp)] = {"dim": dim, "symmetric_power_count": expected,
                                      "match": dim == expected}
            ok = ok and dim == expected
    payload["centralizers"] = cents
    data = reduced_complex(seq, args.level_max)
    binom = {w: comb(D + 1, w) for w in range(1, args.level_max + 1)}
    payload["reduced"] = {
        "T": {str(w): data.t_dims[w] for w in range(1, args.level_max + 1)},
        "expected": {str(w): binom[w] for w in binom},
        "diff_status": {str(w): data.diff_status[w] for w in range(1, args.level_max + 1)},
    }
    t_ok = all(data.t_dims[w] == binom[w] for w in binom)
    diff_ok = all(data.diffs[w] is None or data.diffs[w].is_zero()
                  for w in range(1, args.level_max + 1))
    payload["reduced"]["match"] = t_ok
    payload["reduced"]["differential_zero"] = diff_ok
    ok = ok and t_ok and diff_ok
    return payload, ok


def cmd_selftest(args):
    from fractions import Fraction

    from .combinat import distinct_odd_partition_series
    from .homology import reduced_complex, relative_cube_dims
    from .lierep import LieAlgebraSpec, exterior_invariants_dims, verify_wheel_action
    from .sequences import bundled_sequence

    checks = {}
    series = distinct_odd_partition_series(12)
    checks["series_head"] = series == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    seq = bundled_sequence("symmetric")
    data = reduced_complex(seq, 4)
    checks["symmetric_reduced_w4"] = [data.h_dims[w] for w in range(1, 5)] == [1, 0, 1, 1]
    counts, expected, agree = relative_cube_dims(3)
    checks["relative_cube_n3"] = agree
    passed, ratio = verify_wheel_action(3, 2)
    checks["wheel_action_3_2"] = passed and ratio == Fraction(1, 2)
    g2 = LieAlgebraSpec.gl(2)
    checks["gl2_invariants"] = exterior_invariants_dims(g2, 4) == [1, 1, 0, 1, 1]
    return {"checks": checks, "all_passed": all(checks.values())}, all(checks.values())


# ---------------------------------------------------------------------------


def _int_at_least(lo):
    """argparse type: an integer >= ``lo``; anything else is a usage error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text) from None
        if value < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, value))
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _spec_file(layer, spec):
    """argparse type: a JSON structure-constant file, loaded and validated by
    the class ``spec`` of ``layer``, which is imported only when the option
    is given.

    A missing, unreadable or malformed file, or a table that fails
    validation, is a usage error naming the file.
    """
    def load(path):
        spec_cls = getattr(import_module("." + layer, __package__), spec)
        try:
            return spec_cls.from_json(path)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError("cannot load %s: %s" % (path, exc)) from None
    return load


def build_parser():
    parser = argparse.ArgumentParser(
        prog="swcohom",
        description="Exact deformation cohomology of Schur-Weyl categories.")
    parser.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    parser.add_argument("--seed", type=int, default=0,
                        help="echoed in the report; nothing is randomised")
    parser.add_argument("--backend", choices=("modular", "exact"), default="modular",
                        help="echoed in the report; every rank is exact either way")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subcommand parse from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--backend", choices=("modular", "exact"),
                        default=argparse.SUPPRESS)
    # the options that pick a bundled sequence, for each command that takes one
    sequence = argparse.ArgumentParser(add_help=False)
    sequence.add_argument("--sequence", choices=("symmetric", "skew", "hecke"),
                          default="symmetric")
    sequence.add_argument("--algebra", type=_spec_file("sequences", "CommutativeAlgebraSpec"),
                          help="JSON file with commutative algebra structure constants "
                          "(skew only)")
    # no default, so that a value given with another sequence is refused
    sequence.add_argument("--trunc-degree", type=_nonnegative_int, default=None,
                          help="Hecke truncation degree (default 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="distinct-odd-parts partition series",
                       parents=[common])
    p.add_argument("max_degree", type=_nonnegative_int)
    p.add_argument("--check-reduced", type=_nonnegative_int, metavar="P", default=0,
                   help="cross-check against the reduced complex up to weight P")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cohomology", help="reduced and/or truncated-full cohomology",
                       parents=[common, sequence])
    p.add_argument("--weight-max", type=_positive_int, default=5)
    p.add_argument("--mode", choices=("reduced", "full", "both"), default="reduced")
    p.add_argument("--representatives", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("horizontal", help="one horizontal complex",
                       parents=[common, sequence])
    p.add_argument("--weight", type=_positive_int, default=3)
    p.set_defaults(func=cmd_horizontal)

    p = sub.add_parser("cubic", help="simplicial-cube comparison and regular-rep acyclicity",
                       parents=[common])
    p.add_argument("--n", type=_positive_int, default=4)
    p.set_defaults(func=cmd_cubic)

    p = sub.add_parser("gl", help="gl(V) exterior invariants and wheel identities",
                       parents=[common])
    # no default on --dim: argparse takes a value identical to the default as
    # not given, so an explicit --dim 2 would not clash with --lie
    algebra = p.add_mutually_exclusive_group()
    algebra.add_argument("--dim", type=_positive_int, default=None,
                         help="gl(dim) with its wheel identities (default 2)")
    algebra.add_argument("--lie", type=_spec_file("lierep", "LieAlgebraSpec"),
                         help="JSON file with Lie algebra structure constants")
    p.add_argument("--degree-max", type=_nonnegative_int, default=None)
    p.set_defaults(func=cmd_gl)

    p = sub.add_parser("hecke-check", help="Bernstein-type centralizer verification",
                       parents=[common])
    p.add_argument("--trunc-degree", type=_nonnegative_int, default=3)
    p.add_argument("--level-max", type=_positive_int, default=3)
    p.set_defaults(func=cmd_hecke_check)

    p = sub.add_parser("selftest", help="fast end-to-end sanity checks",
                       parents=[common])
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cohomology" and args.mode == "full" and args.representatives:
        parser.error("cohomology --representatives needs --mode reduced or both: "
                     "representatives come from the reduced complex")
    # a cross-check over no common degree would report agreement vacuously
    if args.command == "cohomology" and args.mode == "both" and args.weight_max < 2:
        parser.error("cohomology --mode both needs --weight-max 2 or more: the "
                     "truncated full complex is final only below its top weight")
    if args.command in ("cohomology", "horizontal"):
        if args.algebra is not None and args.sequence != "skew":
            parser.error("--algebra needs --sequence skew: only the skew sequence "
                         "has a coefficient algebra")
        if args.trunc_degree is not None and args.sequence != "hecke":
            parser.error("--trunc-degree needs --sequence hecke: only the Hecke "
                         "sequence is truncated")
    if args.command == "series" and args.check_reduced and args.max_degree < 1:
        parser.error("series --check-reduced needs max_degree 1 or more: the "
                     "reduced complex starts at weight 1")
    try:
        payload, ok = args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write("resource guard: %s\n" % exc)
        return 3
    except (CrossCheckError, TruncationOverflowError) as exc:
        sys.stderr.write("cross-check failure: %s\n" % exc)
        return 4
    _emit(args, _envelope(args, args.command, payload))
    return 0 if ok else 4


if __name__ == "__main__":
    raise SystemExit(main())

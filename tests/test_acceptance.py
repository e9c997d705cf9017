"""Acceptance suite: quantitative checks at desk scale, exact tolerances.

Each test prints one PASS/FAIL line (bypassing capture) with its runtime.
"""

import random
import time
from fractions import Fraction
from itertools import product as iproduct

from swcohom.combinat import compositions, distinct_odd_partition_series, union
from swcohom.linalg import (
    CochainComplex,
    SparseMatrix,
    Subspace,
    rank,
    subspace_intersect,
    subspace_sum,
)
from swcohom.homology import (
    SnModule,
    centralizer,
    first_cohomology_direct,
    cubic_cohomology,
    cubic_invariants_diagram,
    deformation_cohomology_truncated,
    random_module,
    reduced_complex,
    relative_cube_dims,
    top_quotient,
)
from swcohom.lierep import (
    LieAlgebraSpec,
    cohomology_of_rep_category_graded,
    exterior_invariants_dims,
    perm_action,
    verify_wheel_action,
    wheel_vanishing_table,
)
from swcohom.sequences import (
    CommutativeAlgebraSpec,
    HeckeSequence,
    SkewGroupSequence,
    SymmetricGroupSequence,
)
from swcohom.symgrp import all_permutations, compose, e_element, identity, inverse


def _verdict(num, desc, ok, started):
    line = "acceptance %d (%s): %s  [%.1fs]" % (
        num, desc, "PASS" if ok else "FAIL", time.time() - started)
    print(line, flush=True)
    return ok


def test_criterion_1_partition_series():
    t0 = time.time()
    seq = SymmetricGroupSequence()
    dims = reduced_complex(seq, 8).h_dims
    expected = distinct_odd_partition_series(8)[1:]
    got = [dims[w] for w in range(1, 9)]
    ok = got == expected == [1, 0, 1, 1, 1, 1, 1, 2]
    assert _verdict(1, "partition series, weights 1..8", ok, t0), (got, expected)


def test_criterion_2_spectral_degeneration():
    t0 = time.time()
    seq = SymmetricGroupSequence()
    tr = deformation_cohomology_truncated(seq, 5)
    red = reduced_complex(seq, 5).h_dims
    ok = all(tr.dims[d] == red[d] for d in range(1, 5))
    ok = ok and [red[d] for d in range(1, 5)] == [1, 0, 1, 1]
    assert _verdict(2, "truncated complex degenerates onto the reduced one", ok, t0), \
        (tr.dims, red)


def test_criterion_3_skew_exterior_algebra():
    t0 = time.time()
    seq = SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))
    data = reduced_complex(seq, 3)
    dims = [data.h_dims[w] for w in (1, 2, 3)]
    dims_ok = dims == [2, 1, 0]

    cup_data = reduced_complex(seq, 2)
    _, basis = first_cohomology_direct(seq)
    anti_ok = True
    span = set()
    for a in basis:
        for b in basis:
            ab = cup_data.cup(1, 1, a, b)
            ba = cup_data.cup(1, 1, b, a)
            anti_ok = anti_ok and all(x + y == 0 for x, y in zip(ab, ba))
            if any(ab):
                span.add(tuple(ab))
    surj_ok = len(span) >= 1 and cup_data.t_dims[2] == 1

    ok = dims_ok and anti_ok and surj_ok
    assert _verdict(3, "skew sequence reduced dims + cup pairing", ok, t0), (
        "honest reduced dims are %r: the tensor square of Q[x]/(x^2-2) has "
        "zero divisors ((x(x)1-1(x)x)(x(x)1+1(x)x) = 0), so weight-3 "
        "centralizers exceed the symmetric-power pattern; antisymmetry=%s, "
        "surjectivity=%s" % (dims, anti_ok, surj_ok))


def test_criterion_4_hecke_bernstein():
    t0 = time.time()
    D = 3
    seq = HeckeSequence(trunc_degree=D, level_cap=3)
    cent_ok = True
    for n in range(1, 4):
        for comp in compositions(n):
            expected = 1
            for p in comp.parts:
                expected *= sum(1 for mono in iproduct(range(D + 1), repeat=p)
                                if all(mono[i] >= mono[i + 1] for i in range(p - 1)))
            cent_ok = cent_ok and centralizer(seq, comp).dim == expected
    data = reduced_complex(seq, 3)
    binom = {1: 4, 2: 6, 3: 4}  # C(D+1, w) at D = 3
    t_ok = all(data.t_dims[w] == binom[w] for w in (1, 2, 3))
    diff_ok = all(data.diffs[w] is None or data.diffs[w].is_zero() for w in (1, 2))
    ok = cent_ok and t_ok and diff_ok
    assert _verdict(4, "Hecke centralizers and reduced complex at D=3", ok, t0), (
        cent_ok, {w: data.t_dims[w] for w in (1, 2, 3)}, diff_ok)


def test_criterion_5_cubic_acyclicity():
    t0 = time.time()
    rng = random.Random(501)
    print("criterion 5 module seed: 501", flush=True)
    ok = True
    for n in range(2, 6):
        M = SnModule.regular(n)
        dims = cubic_cohomology(cubic_invariants_diagram(M))
        ok = ok and all(dims[d] == 0 for d in range(n - 1))
        ok = ok and dims[n - 1] == top_quotient(M)
    for _ in range(20):
        n = rng.randint(2, 4)
        M = random_module(n, rng)
        dims = cubic_cohomology(cubic_invariants_diagram(M))
        ok = ok and all(dims[d] == 0 for d in range(n - 1))
        ok = ok and dims[n - 1] == top_quotient(M)
    assert _verdict(5, "cubic complexes acyclic below the top degree", ok, t0)


def test_criterion_6_simplicial_cube():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        counts, expected, agree = relative_cube_dims(n)
        ok = ok and agree
    assert _verdict(6, "relative cube simplices match multinomial sums", ok, t0)


def test_criterion_7_invariant_theory():
    t0 = time.time()
    g2 = LieAlgebraSpec.gl(2)
    dims_ok = exterior_invariants_dims(g2, 4) == [1, 1, 0, 1, 1]
    kox_ok = True
    for (m, d) in [(1, 2), (3, 2), (3, 3), (5, 2), (5, 3)]:
        passed, _ = verify_wheel_action(m, d)
        kox_ok = kox_ok and passed
    table = wheel_vanishing_table(6, 2)
    vanish_ok = all(table[(m, d)] == ((m % 2 == 0) or (m > 2 * d - 1))
                    for (m, d) in table)
    e5_ok = perm_action(5, e_element(5), 2).is_zero()
    ok = dims_ok and kox_ok and vanish_ok and e5_ok
    assert _verdict(7, "gl(2) invariants, wheel action, vanishing table", ok, t0), (
        dims_ok, kox_ok, vanish_ok, e5_ok)


def test_criterion_8_cross_route_equality():
    t0 = time.time()
    g2 = LieAlgebraSpec.gl(2)
    direct = exterior_invariants_dims(g2, 3)
    ok = all(cohomology_of_rep_category_graded(g2, n) == direct[n] for n in (1, 2, 3))
    assert _verdict(8, "cubic route equals direct exterior invariants", ok, t0)


def test_criterion_9_infrastructure():
    t0 = time.time()
    rng = random.Random(901)
    ok = True

    # d.d = 0 is enforced on construction, and violations are rejected
    eye = SparseMatrix.identity(1)
    try:
        CochainComplex([1, 1, 1], [eye.col_dicts(), eye.col_dicts()])
        ok = False
    except ValueError:
        pass

    # Grassmann identity on randomized subspaces
    for _ in range(40):
        n = rng.randint(2, 7)
        U = _random_subspace(rng, n)
        W = _random_subspace(rng, n)
        if subspace_sum(U, W).dim + subspace_intersect(U, W).dim != U.dim + W.dim:
            ok = False

    # join property, exhaustive at low levels for all three sequences
    seqs = [(SymmetricGroupSequence(), 4),
            (SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2)), 4),
            (HeckeSequence(trunc_degree=1, level_cap=4), 4)]
    for seq, max_w in seqs:
        for w in range(2, max_w + 1):
            comps = compositions(w)
            for i, lam in enumerate(comps):
                for mu in comps[i:]:
                    lhs = subspace_intersect(centralizer(seq, lam),
                                             centralizer(seq, mu))
                    if lhs != centralizer(seq, union(lam, mu)):
                        ok = False

    # Hecke twisted Leibniz on S_3 and length decrease on S_4, exhaustive
    hk = HeckeSequence(trunc_degree=1, level_cap=4)
    for s in all_permutations(3):
        si = inverse(s)
        for u in all_permutations(3):
            for i in range(1, 4):
                lhs = dict(hk.partial(3, i, compose(s, u)))
                rhs = {}
                for q, c in hk.partial(3, i, s).items():
                    r = compose(q, u)
                    rhs[r] = rhs.get(r, 0) + c
                for q, c in hk.partial(3, si[i - 1], u).items():
                    r = compose(s, q)
                    rhs[r] = rhs.get(r, 0) + c
                if lhs != {k: v for k, v in rhs.items() if v}:
                    ok = False
    for s in all_permutations(4):
        if s == identity(4):
            continue
        for i in range(1, 5):
            d = hk.partial(4, i, s)
            if d and max(_inversions(q) for q in d) >= _inversions(s):
                ok = False

    # every seeded random matrix: the sparse rank, the rank of the transpose
    # and an independent exact route (the dimension of the RREF row space)
    for _ in range(200):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        ent = {(i, j): Fraction(rng.randint(-3, 3))
               for i in range(r) for j in range(c) if rng.random() < 0.5}
        M = SparseMatrix(r, c, ent)
        if not rank(M) == Subspace.from_vectors(M.row_dicts(), M.cols).dim \
                == rank(M.transpose()):
            ok = False

    assert _verdict(9, "infrastructure properties", ok, t0)


def _inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def _random_subspace(rng, n):
    k = rng.randint(0, n)
    vecs = [{j: Fraction(rng.randint(-2, 2)) for j in range(n) if rng.random() < 0.6}
            for _ in range(k)]
    return Subspace.from_vectors(vecs, n)

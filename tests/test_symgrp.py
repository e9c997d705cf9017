from fractions import Fraction

import pytest

from swcohom import ResourceLimitError
from swcohom.combinat import Composition, distinct_odd_partition_series
from swcohom.linalg import add_scaled
from swcohom.sequences import SymmetricGroupSequence
from swcohom.symgrp import (
    all_permutations,
    class_representative,
    compose,
    conjugate_by_t,
    e_element,
    has_distinct_odd_type,
    identity,
    inverse,
    partitions,
    sign,
    signed_class_basis,
    signed_class_dim,
    signed_orbit_tuples,
    transposition,
    young_positions,
)


def t(n, i):
    return transposition(n, i)


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def conjugate(p, s):
    """s p s^-1 for any s: the reference that ``conjugate_by_t`` is checked against."""
    assert len(p) == len(s)
    img = [0] * len(p)
    for i in range(len(p)):
        img[s[i] - 1] = s[p[i] - 1]
    return tuple(img)


def cycle_type(p):
    """Cycle lengths in decreasing order (a partition of len(p))."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_group_laws():
    t1, t2 = t(3, 1), t(3, 2)
    assert compose(t1, t1) == identity(3)
    assert compose(t1, inverse(t1)) == identity(3)
    p = compose(t1, t2)
    assert compose(p, inverse(p)) == identity(3)
    assert sign(p) == 1 and sign(t1) == -1
    # t_1 t_2 ... t_(m-1) = (1 2 ... m), the class representative of an m-cycle
    for m in range(1, 6):
        p = identity(m)
        for i in range(1, m):
            p = compose(p, t(m, i))
        assert p == class_representative(m, (m,)) == tuple(range(2, m + 1)) + (1,)
    assert sign(class_representative(4, (4,))) == -1  # 4-cycle is odd
    assert inversions(t1) == 1
    with pytest.raises(ValueError):
        transposition(3, 3)
    with pytest.raises(ValueError):
        compose(t1, t(2, 1))


def test_conjugation_convention():
    # s p s^-1 relabels points: cycle types are preserved
    got = conjugate(t(3, 1), t(3, 2))
    assert got == (3, 2, 1)  # the transposition (1 3)
    for p in all_permutations(4):
        for i in range(1, 4):
            q = conjugate(p, t(4, i))
            assert cycle_type(q) == cycle_type(p)
            assert q == conjugate_by_t(p, i)


def test_enumeration():
    assert len(all_permutations(1)) == 1
    assert len(all_permutations(3)) == 6
    assert len(all_permutations(6)) == 720
    with pytest.raises(ResourceLimitError):
        all_permutations(9)


def test_young_positions():
    assert young_positions(Composition((1, 1, 1, 1))) == []
    assert young_positions(Composition((4,))) == [1, 2, 3]
    assert young_positions(Composition((2, 2))) == [1, 3]
    assert young_positions(Composition((1, 3, 2))) == [2, 3, 5]


def test_signed_class_dims_match_series():
    series = distinct_odd_partition_series(8)
    for n in range(9):
        assert signed_class_dim(n) == series[n], n
    assert signed_class_dim(2) == 0
    assert signed_class_dim(3) == 1
    assert signed_class_dim(8) == 2


def test_distinct_odd_criterion_matches_sweep():
    for n in range(1, 7):
        for ct in partitions(n):
            swept = signed_orbit_tuples(class_representative(n, ct)) is not None
            assert swept == has_distinct_odd_type(ct), (n, ct)


def test_signed_class_functions_satisfy_twist():
    for n in range(2, 7):
        basis = signed_class_basis(n)
        assert len(basis) == signed_class_dim(n)
        gens = [t(n, i) for i in range(1, n)]
        reps = [class_representative(n, ct) for ct in partitions(n)]
        for f in basis:
            support = list(f)
            for s in gens:
                for p in reps + support[:6]:
                    assert f.get(conjugate(p, s), 0) == sign(s) * f.get(p, 0)


def test_e_elements():
    assert e_element(1) == SymmetricGroupSequence().one(1)
    assert e_element(2) == {}
    e3 = e_element(3)
    t1, t2 = t(3, 1), t(3, 2)
    expected = {compose(t1, t2): Fraction(1), compose(t2, t1): Fraction(-1)}
    assert e3 == expected
    assert e_element(4) == {}


def test_e2_forced_zero_by_twist_rule():
    # brute scan: on the transposition class of S_2 the twist rule is
    # inconsistent, so the only sign-twisted function supported there is 0
    n = 2
    cls = [p for p in all_permutations(n) if cycle_type(p) == (2,)]
    for value in (1, -1):
        consistent = True
        for s in all_permutations(n):
            for p in cls:
                q = conjugate(p, s)
                if q in cls and value != sign(s) * value:
                    consistent = False
        assert not consistent


def test_e_m_annihilates_centralizer_pairing():
    # trace pairing <e_m, x + t_i x t_i> = 0 for every basis x of Q[S_m]
    for m in (1, 3, 5):
        e = e_element(m)
        for i in range(1, m):
            for x in all_permutations(m):
                val = e.get(x, Fraction(0)) + e.get(conjugate_by_t(x, i), Fraction(0))
                assert val == 0, (m, i, x)


def test_group_algebra_arithmetic():
    sym = SymmetricGroupSequence()
    t1 = {t(3, 1): 1}
    one = sym.one(3)
    assert sym.multiply(3, t1, t1) == one
    assert add_scaled({}, add_scaled(dict(t1), t1), Fraction(1, 2)) == t1
    assert add_scaled(dict(t1), t1, -1) == {}

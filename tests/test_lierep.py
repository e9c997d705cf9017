import json
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from swcohom.linalg import SparseMatrix, add_scaled
from swcohom.lierep import (
    LieAlgebraSpec,
    act_on_power,
    ad_transform,
    alt2_wheel_raw,
    cohomology_of_rep_category_graded,
    current_invariants_dims,
    exterior_invariants_dims,
    perm_action,
    perm_matrix,
    verify_wheel_action,
    wheel,
    wheel_vanishing_table,
)
from swcohom.symgrp import all_permutations, compose, e_element, sign, transposition


def test_lie_spec_validation():
    LieAlgebraSpec.gl(2)
    LieAlgebraSpec.sl2()
    with pytest.raises(ValueError):
        # not antisymmetric
        LieAlgebraSpec(2, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    with pytest.raises(ValueError):
        # antisymmetric but fails Jacobi: [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e0
        LieAlgebraSpec(3, [
            [(0, 0, 0), (0, 0, 1), (-1, 0, 0)],
            [(0, 0, -1), (0, 0, 0), (1, 0, 0)],
            [(1, 0, 0), (-1, 0, 0), (0, 0, 0)],
        ])


def test_lie_spec_json_roundtrip(tmp_path):
    g = LieAlgebraSpec.sl2()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    h = LieAlgebraSpec.from_json(str(path))
    assert h.table == g.table and h.dim == g.dim


def test_centres():
    assert LieAlgebraSpec.gl(1).center().dim == 1
    assert LieAlgebraSpec.gl(2).center().dim == 1
    assert LieAlgebraSpec.sl2().center().dim == 0
    assert LieAlgebraSpec.abelian(3).center().dim == 3


def test_wheel_m1_is_identity():
    for d in (1, 2, 3):
        identity = SparseMatrix.identity(d).entries
        assert wheel(1, d) == identity
        N, den = alt2_wheel_raw(1, d)
        assert den == 1 and act_on_power(N, 1, d).entries == identity


@pytest.mark.parametrize("m, d", [(m, d) for m in range(1, 6) for d in range(1, 4)] + [(6, 2)])
def test_alt2_wheel_raw_is_the_signed_sum_of_permuted_chains(m, d):
    # the reference for the sorted-key shortcut: all m! permutations of the
    # (V, V*) pairs of every chain a, each with its sign, summed term by term
    direct = {}
    for p in all_permutations(m):
        for a in product(range(d), repeat=m):
            pairs = [(a[k], a[(k + 1) % m]) for k in range(m)]
            key = tuple(x for i in p for x in pairs[i - 1])
            add_scaled(direct, {key: sign(p)})
    assert alt2_wheel_raw(m, d) == (direct, factorial(m))


def test_wheel_vanishing():
    # x_m = 0 exactly for even m, or odd m beyond 2d-1
    table = wheel_vanishing_table(6, 2)
    for m in range(1, 7):
        expected = (m % 2 == 0) or (m > 3)
        assert table[(m, 2)] == expected, m
    table1 = wheel_vanishing_table(6, 1)
    for m in range(1, 7):
        assert table1[(m, 1)] == ((m % 2 == 0) or (m > 1)), m


def test_perm_action_is_algebra_map():
    d = 2
    for p in all_permutations(3):
        for q in all_permutations(3):
            assert (perm_matrix(p, d).matmul(perm_matrix(q, d)).entries
                    == perm_matrix(compose(p, q), d).entries)
    # t_1 on V(x)V is the swap matrix
    t1 = perm_matrix(transposition(2, 1), 2)
    assert (t1.rows, t1.cols) == (4, 4)
    assert t1.entries == {(0, 0): 1, (3, 3): 1, (1, 2): 1, (2, 1): 1}
    pid = perm_action(1, e_element(1), 2)
    assert pid.entries == SparseMatrix.identity(2).entries
    # e_2 is the empty element: its level is the argument, not read off a label
    zero = perm_action(2, e_element(2), 2)
    assert (zero.rows, zero.cols) == (4, 4) and zero.is_zero()


def test_wheel_action_identity():
    for (m, d) in [(1, 2), (3, 2), (3, 3)]:
        passed, ratio = verify_wheel_action(m, d)
        assert passed
        if m > 1:
            assert ratio == Fraction(1, 2)


def test_x3_matches_half_commutator_action():
    # x_3 acts as (t1 t2 - t2 t1)/2 on V^(x)3, d = 2
    d = 2
    N, den = alt2_wheel_raw(3, d)
    t1 = transposition(3, 1)
    t2 = transposition(3, 2)
    comm = add_scaled(dict(perm_matrix(compose(t1, t2), d).entries),
                      perm_matrix(compose(t2, t1), d).entries, -1)
    assert act_on_power(N, 3, d).entries == add_scaled({}, comm, den // 2)


def test_x_ad_invariance():
    for (m, d) in [(1, 2), (2, 2), (3, 2), (1, 1), (3, 1)]:
        N, _ = alt2_wheel_raw(m, d)
        for i in range(d):
            for j in range(d):
                X = SparseMatrix(d, d, {(i, j): 1})
                assert not ad_transform(X, N), (m, d, i, j)
    # and the transform itself is not zero: ad(E_10) E_01 = [E_10, E_01] = E_11 - E_00
    assert ad_transform(SparseMatrix(2, 2, {(1, 0): 1}), {(0, 1): 1}) == {(1, 1): 1, (0, 0): -1}


def test_exterior_invariants():
    assert exterior_invariants_dims(LieAlgebraSpec.gl(1), 2) == [1, 1, 0]
    assert exterior_invariants_dims(LieAlgebraSpec.gl(2), 4) == [1, 1, 0, 1, 1]
    assert exterior_invariants_dims(LieAlgebraSpec.sl2(), 3) == [1, 0, 0, 1]
    ab = LieAlgebraSpec.abelian(1)
    assert exterior_invariants_dims(ab, 1) == [1, 1]


def test_exterior_invariants_match_series():
    # gl(d) invariants match prod_{i<=d} (1 + t^{2i-1}) for d = 1, 2
    for d in (1, 2):
        g = LieAlgebraSpec.gl(d)
        dims = exterior_invariants_dims(g, g.dim)
        coeffs = _poly_product(d, g.dim)
        assert dims == coeffs, d


def _poly_product(d, N):
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for i in range(1, d + 1):
        m = 2 * i - 1
        for n in range(N, m - 1, -1):
            coeffs[n] += coeffs[n - m]
    return coeffs


def test_current_invariants():
    ab = LieAlgebraSpec.abelian(1)
    dims, expected, agree = current_invariants_dims(ab, 1, 1)
    assert agree and dims[1] == 2
    g2 = LieAlgebraSpec.gl(2)
    dims, expected, agree = current_invariants_dims(g2, 1, 1)
    assert agree and dims[1] == 2
    s2 = LieAlgebraSpec.sl2()
    dims, expected, agree = current_invariants_dims(s2, 1, 1)
    assert agree and dims[1] == 0


def test_current_invariants_vandermonde_bound():
    # imposing one more power of x beyond s = m adds no constraints
    g2 = LieAlgebraSpec.gl(2)
    base = current_invariants_dims(g2, 1, 2)[0]
    extra = current_invariants_dims(g2, 1, 2, check_extra_power=True)[0]
    assert base == extra


def test_rep_category_route_matches_direct():
    g2 = LieAlgebraSpec.gl(2)
    direct = exterior_invariants_dims(g2, 3)
    for n in (1, 2, 3):
        assert cohomology_of_rep_category_graded(g2, n) == direct[n], n
    g1 = LieAlgebraSpec.gl(1)
    assert cohomology_of_rep_category_graded(g1, 1) == 1

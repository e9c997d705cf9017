from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest

from swcohom import CrossCheckError, ResourceLimitError
from swcohom.homology import cohomology_of_rep_category_graded
import swcohom.lierep as lierep
from swcohom.linalg import SparseMatrix, add_scaled, kernel_basis
from swcohom.lierep import (
    LieAlgebraSpec,
    act_on_power,
    alt2_wheel_raw,
    check_tensor_size,
    current_invariants_dims,
    exterior_invariants_dims,
    perm_action,
    verify_wheel_action,
    wheel_vanishing_table,
)
from swcohom.symgrp import all_permutations, compose, e_element, sign, transposition


def test_lie_spec_validation():
    LieAlgebraSpec.gl(2)
    LieAlgebraSpec.sl2()
    with pytest.raises(ValueError):
        # not antisymmetric
        LieAlgebraSpec(2, [[(0, 0), (1, 0)], [(1, 0), (0, 0)]])
    with pytest.raises(ValueError, match=r"^Jacobi identity fails at \(0,1,2\)$"):
        # antisymmetric but fails Jacobi: [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e0
        LieAlgebraSpec(3, [
            [(0, 0, 0), (0, 0, 1), (-1, 0, 0)],
            [(0, 0, -1), (0, 0, 0), (1, 0, 0)],
            [(1, 0, 0), (-1, 0, 0), (0, 0, 0)],
        ])
    # e0 scales e1, e2, e3 by 1/2, 1/3, -5/6, and [e2, e3] = e1/2: the weights
    # 1/3 - 5/6 != 1/2 break Jacobi first at (0,2,3), every earlier triple holding
    with pytest.raises(ValueError, match=r"^Jacobi identity fails at \(0,2,3\)$"):
        LieAlgebraSpec(4, _brackets(4, {(0, 1): {1: Fraction(1, 2)},
                                        (0, 2): {2: Fraction(1, 3)},
                                        (0, 3): {3: Fraction(-5, 6)},
                                        (2, 3): {1: Fraction(1, 2)}}))


def _brackets(dim, upper):
    """An antisymmetric table from {(i, j): {k: c}} for i < j: [e_i, e_j] = sum c e_k."""
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), image in upper.items():
        for k, c in image.items():
            table[i][j][k], table[j][i][k] = c, -c
    return table


def test_lie_spec_json_roundtrip(write_spec):
    g = LieAlgebraSpec.sl2()
    h = LieAlgebraSpec.from_json(write_spec(g, "g.json"))
    assert h.table == g.table and h.dim == g.dim


def test_centres():
    assert exterior_invariants_dims(LieAlgebraSpec.gl(1), 1)[1] == 1
    assert exterior_invariants_dims(LieAlgebraSpec.gl(2), 1)[1] == 1
    assert exterior_invariants_dims(LieAlgebraSpec.sl2(), 1)[1] == 0
    assert exterior_invariants_dims(LieAlgebraSpec.abelian(3), 1)[1] == 3


def wheel(m, d):
    """Cyclic trace tensor sum_a E_{a1 a2} (x) ... (x) E_{am a1} in gl(V)^(x)m.

    Keys alternate (v_1, w_1, ..., v_m, w_m) with w_k = v_{k+1} cyclically;
    each chain a gives its own key, so every entry is 1.
    """
    return {tuple(x for k in range(m) for x in (a[k], a[(k + 1) % m])): 1
            for a in product(range(d), repeat=m)}


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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_vanishing_table_matches_the_expanded_wheel(d):
    # the table reads x_m = 0 off the sorted-key counts; the reference expands
    # every count over S_m and asks whether anything is left
    for m in range(1, 7):
        try:
            check_tensor_size(m, d)
        except ResourceLimitError:
            continue
        assert wheel_vanishing_table(m, d)[(m, d)] == (not alt2_wheel_raw(m, d)[0]), (m, d)


@pytest.mark.parametrize("m, d", [(m, d) for m in range(1, 6) for d in range(1, 4)])
def test_perm_matrix_follows_the_slot_rule(m, d):
    # reference: e_j goes to e_i with i[perm[k] - 1] = j[k], indices flattened entry by entry
    def flat(idx):
        out = 0
        for x in idx:
            out = out * d + x
        return out

    for perm in all_permutations(m):
        ent = {}
        for j in product(range(d), repeat=m):
            i = [0] * m
            for k in range(m):
                i[perm[k] - 1] = j[k]
            ent[(flat(i), flat(j))] = 1
        P = perm_action(m, {perm: 1}, d)
        assert (P.rows, P.cols, P.entries) == (d ** m, d ** m, ent), perm


def _flat(idx, d):
    out = 0
    for x in idx:
        out = out * d + x
    return out


def _act_on_power_per_key(t, m, d):
    # the reference: two flat indices and a bound check per key
    if any(len(key) != 2 * m or max(key) >= d for key in t):
        raise ValueError("shape mismatch")
    return SparseMatrix(d ** m, d ** m, {
        (_flat(key[0::2], d), _flat(key[1::2], d)): c for key, c in t.items()})


def _perm_matrix_by_rows(perm, d):
    m = len(perm)
    rows = [0]
    for k in range(m):
        w = d ** (m - perm[k])
        rows = [r + x * w for r in rows for x in range(d)]
    return SparseMatrix(d ** m, d ** m, {(r, col): 1 for col, r in enumerate(rows)})


def _perm_action_per_matrix(m, u, d):
    # the reference: one checked permutation matrix per term of u
    ent = {}
    for p, c in u.items():
        add_scaled(ent, _perm_matrix_by_rows(p, d).entries, c)
    return SparseMatrix(d ** m, d ** m, ent)


@pytest.mark.parametrize("m, d", [(m, d) for m in (1, 3, 5) for d in (1, 2, 3)])
def test_slot_actions_match_their_per_key_definitions(m, d):
    for t in (alt2_wheel_raw(m, d)[0], wheel(m, d)):
        new, old = act_on_power(t, m, d), _act_on_power_per_key(t, m, d)
        assert (new.rows, new.cols, new.entries) == (old.rows, old.cols, old.entries)
    perms = all_permutations(m)
    for u in (e_element(m), {perms[-1]: 3, perms[0]: -1},
              {p: Fraction(k + 1, 2) * sign(p) for k, p in enumerate(perms)}):
        new, old = perm_action(m, u, d), _perm_action_per_matrix(m, u, d)
        assert (new.rows, new.cols, new.entries) == (old.rows, old.cols, old.entries)
    for p in perms:
        new, old = perm_action(m, {p: 1}, d), _perm_matrix_by_rows(p, d)
        assert (new.rows, new.cols, new.entries) == (old.rows, old.cols, old.entries)


@pytest.mark.parametrize("key", [(0, 1), (0, 1, 2, 0), (0, 2, 1, 1), (0, 1, 1)])
def test_act_on_power_refuses_a_key_of_the_wrong_shape(key):
    # m = 2, d = 2: keys are 4 indices below 2
    with pytest.raises(ValueError, match="^shape mismatch$"):
        act_on_power({(0, 0, 1, 1): 1, key: 1}, 2, 2)
    with pytest.raises(ValueError, match="^shape mismatch$"):
        _act_on_power_per_key({(0, 0, 1, 1): 1, key: 1}, 2, 2)


def test_perm_action_is_algebra_map():
    d = 2
    for p in all_permutations(3):
        for q in all_permutations(3):
            assert (perm_action(3, {p: 1}, d).matmul(perm_action(3, {q: 1}, d)).entries
                    == perm_action(3, {compose(p, q): 1}, d).entries)
    # t_1 on V(x)V is the swap matrix
    t1 = perm_action(2, {transposition(2, 1): 1}, 2)
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


def test_wheel_action_mismatch_reports_the_measured_ratio(monkeypatch):
    # a proportional mismatch names its ratio (1 here, for twice the action);
    # any other mismatch names none
    act = lierep.act_on_power

    def doubled(t, m, d):
        M = act(t, m, d)
        return SparseMatrix(M.rows, M.cols, {ij: 2 * v for ij, v in M.entries.items()})

    def dropped(t, m, d):
        entries = dict(act(t, m, d).entries)
        del entries[max(entries)]
        return SparseMatrix(d ** m, d ** m, entries)

    monkeypatch.setattr(lierep, "act_on_power", doubled)
    assert verify_wheel_action(3, 2) == (False, Fraction(1))
    monkeypatch.setattr(lierep, "act_on_power", dropped)
    assert verify_wheel_action(3, 2) == (False, None)


def test_x3_matches_half_commutator_action():
    # x_3 acts as (t1 t2 - t2 t1)/2 on V^(x)3, d = 2
    d = 2
    N, den = alt2_wheel_raw(3, d)
    t1 = transposition(3, 1)
    t2 = transposition(3, 2)
    comm = add_scaled(dict(perm_action(3, {compose(t1, t2): 1}, d).entries),
                      perm_action(3, {compose(t2, t1): 1}, d).entries, -1)
    assert act_on_power(N, 3, d).entries == add_scaled({}, comm, den // 2)


def ad_transform(X, T):
    """Diagonal ad-action of the d x d ``SparseMatrix`` X on a gl(V)^(x)m tensor."""
    cols, rows = X.col_dicts(), X.row_dicts()
    out = {}
    for key, c in T.items():
        for v in range(0, len(key), 2):
            # X acting on the V leg, -X^T on the V* leg
            for r, x in cols[key[v]].items():
                add_scaled(out, {key[:v] + (r,) + key[v + 1:]: x}, c)
            for r, x in rows[key[v + 1]].items():
                add_scaled(out, {key[:v + 1] + (r,) + key[v + 2:]: x}, -c)
    return out


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


def _full_kernel_wedge_invariants_dim(act, n, m):
    # the reference: every operator on every wedge, one full kernel
    rows = {}
    for op, images in enumerate(act):
        for col, tup in enumerate(combinations(range(n), m)):
            for slot, i in enumerate(tup):
                rest = tup[:slot] + tup[slot + 1:]
                for j, c in images[i]:
                    if j in rest:
                        continue
                    pos = bisect_left(rest, j)
                    add_scaled(rows.setdefault((op, rest[:pos] + (j,) + rest[pos:]), {}),
                               {col: -c if (slot + pos) & 1 else c})
    return kernel_basis(SparseMatrix.from_row_dicts(list(rows.values()), comb(n, m))).dim


def _ad_images(g):
    return [[[(j, c) for j, c in enumerate(g.table[xi][i]) if c] for i in range(g.dim)]
            for xi in range(g.dim)]


def _is_diagonal(images):
    return all(j == i for i, im in enumerate(images) for j, _ in im)


def _basis_changed_gl2():
    # f_a = sum_i P[i][a] E_i with P unimodular; [f_a, f_b] in f-coordinates via P^-1
    P = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [2, 0, 0, 1]]
    Pinv = [[-1, 1, -1, 1], [2, -1, 1, -1], [-2, 2, -1, 1], [2, -2, 2, -1]]
    g = LieAlgebraSpec.gl(2)
    table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a, b, i, j, k in product(range(4), repeat=5):
        bracket = sum(P[i][a] * P[j][b] * g.table[i][j][t] * Pinv[k][t] for t in range(4))
        table[a][b][k] += bracket
    return LieAlgebraSpec(4, table, name="gl(2), skew basis")


def _fraction_weights():
    # e0 scales e1..e4 by 1/2, 1/3, -1/2, -1/3 and fixes e5; [e1, e3] = [e2, e4] = e5
    # (a graded Heisenberg algebra): weights cancel only as Fractions
    return LieAlgebraSpec(6, _brackets(6, {(0, 1): {1: Fraction(1, 2)},
                                           (0, 2): {2: Fraction(1, 3)},
                                           (0, 3): {3: Fraction(-1, 2)},
                                           (0, 4): {4: Fraction(-1, 3)},
                                           (1, 3): {5: 1}, (2, 4): {5: 1}}))


def test_wedge_invariants_match_the_full_kernel():
    algebras = [LieAlgebraSpec.gl(d) for d in (1, 2, 3)]
    algebras += [LieAlgebraSpec.sl2(), LieAlgebraSpec.abelian(3), _basis_changed_gl2(),
                 _fraction_weights()]
    skew = _ad_images(algebras[5])
    assert not any(_is_diagonal(images) for images in skew)
    assert any(_is_diagonal(images) for images in _ad_images(algebras[6]))
    for g in algebras:
        act = _ad_images(g)
        for m in range(1, g.dim + 1):
            assert lierep._wedge_invariants_dim(act, g.dim, m) == \
                _full_kernel_wedge_invariants_dim(act, g.dim, m), (g.name, m)


def test_current_wedge_invariants_match_the_full_kernel(monkeypatch):
    # every act list current_invariants_dims builds, checked against the reference
    solve = lierep._wedge_invariants_dim
    seen = []

    def checked(act, n, m):
        dim = solve(act, n, m)
        assert dim == _full_kernel_wedge_invariants_dim(act, n, m), (n, m)
        seen.append(any(_is_diagonal(images) for images in act))
        return dim

    monkeypatch.setattr(lierep, "_wedge_invariants_dim", checked)
    for g, D, maxdeg in [(LieAlgebraSpec.gl(2), 1, 3), (LieAlgebraSpec.sl2(), 1, 3),
                         (LieAlgebraSpec.gl(1), 2, 3), (LieAlgebraSpec.gl(3), 0, 3)]:
        for extra in (False, True):
            current_invariants_dims(g, D, maxdeg, check_extra_power=extra)
    assert len(seen) == 32 and all(seen)


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
    # wedge degree 3, where each target wedge collects several slots
    for extra in (False, True):
        assert current_invariants_dims(g2, 1, 3, check_extra_power=extra)[0] == [1, 2, 1, 0]
    dims, expected, agree = current_invariants_dims(s2, 1, 3)
    assert agree and dims == [1, 0, 0, 0]
    # D = 0 keeps only the constants, yet x^s (s >= 1) still acts: its images
    # leave the window, so the cubic invariant x_3 of gl(3) is not invariant here
    g3 = LieAlgebraSpec.gl(3)
    assert current_invariants_dims(g3, 0, 3)[0] == [1, 1, 0, 0]
    assert exterior_invariants_dims(g3, 3) == [1, 1, 0, 1]


def test_current_invariants_refuse_a_wide_wedge_before_any_kernel(monkeypatch):
    import swcohom.lierep as lierep

    def boom(*args):
        raise AssertionError("kernel solved before the guard")

    # the wedge solve is one rank
    monkeypatch.setattr(lierep, "rank", boom)
    # gl(3) (x) span{1, x, x^2} is 27-dim; its 6th wedge power has 296 010 vectors
    with pytest.raises(ResourceLimitError, match="exterior power of dim 296010"):
        current_invariants_dims(LieAlgebraSpec.gl(3), 2, 6)


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


class _UnreadBrackets:
    """A 4-dim algebra whose bracket table must not be read."""

    dim = 4

    @property
    def products(self):
        raise AssertionError("brackets read before the guard")


def test_rep_category_route_refuses_a_large_power_before_any_work():
    # 4^9 = 262 144 basis vectors of g^(x)9
    with pytest.raises(ResourceLimitError, match=r"^g\^\(x\)9 too large$"):
        cohomology_of_rep_category_graded(_UnreadBrackets(), 9)


def test_rep_category_route_checks_its_top_against_the_direct_quotient(monkeypatch):
    import swcohom.homology as homology

    monkeypatch.setattr(homology, "top_quotient", lambda module: -1)
    with pytest.raises(CrossCheckError, match="^cubic top 1 != direct quotient -1$"):
        cohomology_of_rep_category_graded(LieAlgebraSpec.gl(2), 3)

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from swcohom import ResourceLimitError, TruncationOverflowError
from swcohom.combinat import Composition, compositions
from swcohom.linalg import add_scaled
from swcohom.sequences import (
    CommutativeAlgebraSpec,
    HeckeSequence,
    MultiplicativeSequence,
    SkewGroupSequence,
    SymmetricGroupSequence,
)
from swcohom.symgrp import (
    all_permutations,
    compose,
    identity,
    inverse,
    transposition,
    young_positions,
)


@pytest.fixture(scope="module")
def sym():
    return SymmetricGroupSequence()


@pytest.fixture(scope="module")
def skew():
    return SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))


@pytest.fixture(scope="module")
def hecke():
    return HeckeSequence(trunc_degree=3, level_cap=3)


def basis_el(seq, n, label):
    return {label: 1}


def generator(n, kind, i):
    """The Hecke generator t_i or y_i of level n as an element."""
    if kind == "t":
        return {((0,) * n, transposition(n, i)): 1}
    return {(tuple(int(k == i - 1) for k in range(n)), identity(n)): 1}


def normal_form(hecke, word, n):
    """Product of a generator word, e.g. [("y", 1), ("t", 1)], in normal form."""
    el = hecke.one(n)
    for kind, i in word:
        el = hecke.multiply(n, el, generator(n, kind, i))
    return el


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


# -- symmetric ---------------------------------------------------------------


def test_symmetric_group_multiplication(sym):
    t1 = sym.subalgebra_generators(Composition((2,)))[0]
    assert sym.multiply(2, t1, t1) == sym.one(2)


def test_symmetric_mu_shift(sym):
    t1_at_2 = basis_el(sym, 2, transposition(2, 1))
    out = sym.mu(1, 2, sym.one(1), t1_at_2)
    assert out == basis_el(sym, 3, transposition(3, 2))
    # unitality
    assert sym.mu(2, 2, sym.one(2), sym.one(2)) == sym.one(4)


def test_symmetric_young_generators(sym):
    assert [sorted(g)[0] for g in
            sym.subalgebra_generators(Composition((2, 1)))] == [(2, 1, 3)]
    assert sym.subalgebra_generators(Composition((1, 1, 1))) == []


# -- commutative algebra specs -------------------------------------------------


def test_algebra_spec_validation():
    CommutativeAlgebraSpec.quadratic(2)
    with pytest.raises(ValueError):
        # non-commutative table
        CommutativeAlgebraSpec(2, [[(1, 0), (0, 1)], [(1, 1), (2, 0)]], (1, 0))
    with pytest.raises(ValueError):
        # commutative but not associative: (e1 e1) e2 = 0 while e1 (e1 e2) = e1
        CommutativeAlgebraSpec(
            3,
            [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
             [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
             [(0, 0, 1), (1, 0, 0), (0, 0, 0)]],
            (1, 0, 0))
    with pytest.raises(ValueError):
        # wrong unit
        CommutativeAlgebraSpec(2, [[(1, 0), (0, 1)], [(0, 1), (2, 0)]], (0, 1))


def test_algebra_spec_json_roundtrip(write_spec):
    a = CommutativeAlgebraSpec.quadratic(5)
    b = CommutativeAlgebraSpec.from_json(write_spec(a, "alg.json"))
    assert b.table == a.table and b.unit == a.unit and b.dim == a.dim


# -- skew --------------------------------------------------------------------


def test_skew_level_one_square(skew):
    x = basis_el(skew, 1, ((1,), identity(1)))
    sq = skew.multiply(1, x, x)
    assert sq == add_scaled({}, skew.one(1), 2)


def test_skew_mu_placement(skew):
    x = basis_el(skew, 1, ((1,), identity(1)))
    out = skew.mu(1, 1, x, x)
    assert out == basis_el(skew, 2, ((1, 1), identity(2)))


def test_skew_subalgebra_restrictions(skew):
    # A-part is commutative
    pid = identity(2)
    labels = [(a, pid) for a in product(range(2), repeat=2)]
    for la in labels:
        for lb in labels:
            ea, eb = basis_el(skew, 2, la), basis_el(skew, 2, lb)
            assert skew.multiply(2, ea, eb) == skew.multiply(2, eb, ea)
    # S_n part multiplies by the group law
    ones = (0, 0)
    for p in all_permutations(2):
        for q in all_permutations(2):
            ea, eb = basis_el(skew, 2, (ones, p)), basis_el(skew, 2, (ones, q))
            assert skew.multiply(2, ea, eb) == basis_el(skew, 2, (ones, compose(p, q)))


def test_skew_generators(skew):
    gens = skew.subalgebra_generators(Composition((1, 1)))
    labels = sorted(next(iter(g)) for g in gens)
    assert labels == [((0, 1), identity(2)), ((1, 0), identity(2))]
    gens21 = skew.subalgebra_generators(Composition((2, 1)))
    perms = {next(iter(g))[1] for g in gens21}
    assert transposition(3, 1) in perms


# -- Hecke ---------------------------------------------------------------------


def test_hecke_defining_relation(hecke):
    y1 = generator(2, "y", 1)
    t1 = generator(2, "t", 1)
    y2 = generator(2, "y", 2)
    # y1 t1 is already in normal form y^(1,0) t
    lhs = hecke.multiply(2, y1, t1)
    assert lhs == basis_el(hecke, 2, ((1, 0), transposition(2, 1)))
    # t1 y2 = y1 t1 - 1
    rhs = hecke.multiply(2, t1, y2)
    assert rhs == add_scaled(dict(lhs), hecke.one(2), -1)
    # so y1 t1 - t1 y2 = 1
    assert add_scaled(dict(lhs), rhs, -1) == hecke.one(2)


def test_hecke_partial_base_cases(hecke):
    t1 = transposition(3, 1)
    t2 = transposition(3, 2)
    one = {identity(3): Fraction(1)}
    assert hecke.partial(3, 1, t1) == one
    assert hecke.partial(3, 2, t1) == {identity(3): Fraction(-1)}
    assert hecke.partial(3, 3, t1) == {}
    assert hecke.partial(3, 1, t2) == {}
    for bad in (0, 4):
        with pytest.raises(ValueError):
            hecke.partial(3, bad, t1)
    # everywhere on S_3, d_i(s) is its definition y_i s - s y_{s^-1(i)}, with
    # both products taken through ``multiply``
    zero = (0, 0, 0)
    for s in all_permutations(3):
        for i in range(1, 4):
            y_i, y_k = generator(3, "y", i), generator(3, "y", inverse(s)[i - 1])
            want = add_scaled(hecke.multiply(3, y_i, {(zero, s): 1}),
                              hecke.multiply(3, {(zero, s): 1}, y_k), -1)
            assert {(zero, q): c for q, c in hecke.partial(3, i, s).items()} == want, (s, i)


def test_hecke_twisted_leibniz_exhaustive(hecke):
    n = 3
    for s in all_permutations(n):
        si = inverse(s)
        for u in all_permutations(n):
            su = compose(s, u)
            for i in range(1, n + 1):
                lhs = dict(hecke.partial(n, i, su))
                rhs = {}
                for q, c in hecke.partial(n, i, s).items():
                    r = compose(q, u)
                    rhs[r] = rhs.get(r, 0) + c
                for q, c in hecke.partial(n, si[i - 1], u).items():
                    r = compose(s, q)
                    rhs[r] = rhs.get(r, 0) + c
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs


def test_hecke_length_decrease_exhaustive():
    hk = HeckeSequence(trunc_degree=1, level_cap=4)
    for s in all_permutations(4):
        if s == identity(4):
            continue
        for i in range(1, 5):
            d = hk.partial(4, i, s)
            if d:
                assert max(inversions(q) for q in d) < inversions(s)


def test_hecke_mu_shift(hecke):
    t1_at_2 = basis_el(hecke, 2, ((0, 0), transposition(2, 1)))
    out = hecke.mu(1, 2, hecke.one(1), t1_at_2)
    assert out == basis_el(hecke, 3, ((0, 0, 0), transposition(3, 2)))
    y1_at_1 = generator(1, "y", 1)
    out = hecke.mu(1, 1, hecke.one(1), y1_at_1)
    assert out == generator(2, "y", 2)


def test_hecke_truncation_overflow(hecke):
    y1 = generator(1, "y", 1)
    cube = hecke.multiply(1, hecke.multiply(1, y1, y1), y1)  # y^3, at the edge
    with pytest.raises(TruncationOverflowError):
        hecke.multiply(1, cube, y1)


def test_hecke_normal_form_words(hecke):
    el = normal_form(hecke, [("y", 1), ("t", 1)], 2)
    assert el == basis_el(hecke, 2, ((1, 0), transposition(2, 1)))
    el = normal_form(hecke, [("t", 1), ("y", 2)], 2)
    assert el == add_scaled(basis_el(hecke, 2, ((1, 0), transposition(2, 1))), hecke.one(2), -1)
    assert normal_form(hecke, [], 2) == hecke.one(2)


def test_hecke_braid_relations(hecke):
    t1 = generator(3, "t", 1)
    t2 = generator(3, "t", 2)
    lhs = hecke.multiply(3, hecke.multiply(3, t1, t2), t1)
    rhs = hecke.multiply(3, hecke.multiply(3, t2, t1), t2)
    assert lhs == rhs
    assert hecke.multiply(3, t1, t1) == hecke.one(3)


# -- the associativity square for mu, all three sequences ----------------------


def _test_sequences():
    return [SymmetricGroupSequence(),
            SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2), level_cap=5),
            HeckeSequence(trunc_degree=2, level_cap=5)]


@pytest.mark.parametrize("seq", _test_sequences(), ids=lambda s: s.seq_id)
def test_mu_associativity_square(seq):
    # exhaustive over all basis triples with l + m + n <= 5
    triples = [(l, m, n) for l in (1, 2, 3) for m in (1, 2, 3) for n in (1, 2, 3)
               if l + m + n <= 5]
    for (l, m, n) in triples:
        for la in seq.basis(l):
            for lb in seq.basis(m):
                for lc in seq.basis(n):
                    ea = basis_el(seq, l, la)
                    eb = basis_el(seq, m, lb)
                    ec = basis_el(seq, n, lc)
                    one_way = seq.mu(l + m, n, seq.mu(l, m, ea, eb), ec)
                    other = seq.mu(l, m + n, ea, seq.mu(m, n, eb, ec))
                    assert one_way == other


@pytest.mark.parametrize("seq", _test_sequences(), ids=lambda s: s.seq_id)
def test_mu_is_algebra_map_on_pairs(seq):
    rng = random.Random(17)
    b1 = seq.basis(1)
    checked = 0
    for _ in range(60):
        la, lb, lc, ld = (b1[rng.randrange(len(b1))] for _ in range(4))
        u, v, u2, v2 = (basis_el(seq, 1, x) for x in (la, lb, lc, ld))
        try:
            rhs = seq.mu(1, 1, seq.multiply(1, u, u2), seq.multiply(1, v, v2))
            lhs = seq.multiply(2, seq.mu(1, 1, u, v), seq.mu(1, 1, u2, v2))
        except TruncationOverflowError:
            continue  # the partial product is undefined on this quadruple
        assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_level_caps():
    seq = SymmetricGroupSequence(level_cap=4)
    with pytest.raises(ResourceLimitError):
        seq.basis(5)


# -- polynomial-representation oracle for the Hecke rewriting -------------------
#
# On polynomials in y_1..y_n, the operators Y_i = (multiply by y_i) and
# T_i = s_i + divided difference satisfy the defining relations, so
# element -> operator must be multiplicative.  This validates the normal-form
# engine against arithmetic that never rewrites anything.


def _poly_mul_y(f, i):
    return {tuple(a + (1 if k == i - 1 else 0) for k, a in enumerate(mono)): c
            for mono, c in f.items()}


def _poly_swap(f, i):
    out = {}
    for mono, c in f.items():
        m = list(mono)
        m[i - 1], m[i] = m[i], m[i - 1]
        key = tuple(m)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _poly_divdiff(f, i):
    # (f - s_i f) / (y_i - y_{i+1}), exact on each monomial
    out = {}
    for mono, c in f.items():
        p, q = mono[i - 1], mono[i]
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = min(p, q), max(p, q)
        for k in range(lo, hi):
            m = list(mono)
            m[i - 1], m[i] = k, p + q - 1 - k
            key = tuple(m)
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _poly_apply_label(label, f):
    (a, perm) = label
    # first the permutation part (t_i factors from a reduced word), then y^a
    word = []
    p = perm
    while p != identity(len(p)):
        inv = inverse(p)
        j = next(j for j in range(1, len(p)) if inv[j - 1] > inv[j])
        word.append(j)
        p = compose(transposition(len(p), j), p)
    for j in reversed(word):
        f = _t_op(f, j)
    for i, e in enumerate(a, start=1):
        for _ in range(e):
            f = _poly_mul_y(f, i)
    return {k: v for k, v in f.items() if v}


def _t_op(f, i):
    out = dict(_poly_swap(f, i))
    for k, v in _poly_divdiff(f, i).items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _apply_element(el, f):
    out = {}
    for label, c in el.items():
        for mono, v in _poly_apply_label(label, f).items():
            s = out.get(mono, 0) + c * v
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def test_polynomial_operators_satisfy_relations():
    n = 3
    monos = [m for m in product(range(3), repeat=n)]
    for i in (1, 2):
        for m in monos:
            f = {m: Fraction(1)}
            # T_i is an involution
            assert _t_op(_t_op(f, i), i) == f
            # Y_i T_i - T_i Y_{i+1} = 1
            lhs = _poly_mul_y(_t_op(f, i), i)
            rhs = _t_op(_poly_mul_y(f, i + 1), i)
            diff = dict(lhs)
            for k, v in rhs.items():
                s = diff.get(k, 0) - v
                if s:
                    diff[k] = s
                else:
                    diff.pop(k, None)
            assert diff == f, (i, m)
    # braid relation
    for m in monos:
        f = {m: Fraction(1)}
        aba = _t_op(_t_op(_t_op(f, 1), 2), 1)
        bab = _t_op(_t_op(_t_op(f, 2), 1), 2)
        assert aba == bab, m


def test_hecke_multiplication_against_polynomial_oracle():
    hk = HeckeSequence(trunc_degree=2, level_cap=3)
    rng = random.Random(31)
    n = 3
    basis = hk.basis(n)
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 1)]
    checked = 0
    for _ in range(400):
        la = basis[rng.randrange(len(basis))]
        lb = basis[rng.randrange(len(basis))]
        ea = basis_el(hk, n, la)
        eb = basis_el(hk, n, lb)
        try:
            prod = hk.multiply(n, ea, eb)
        except TruncationOverflowError:
            continue
        for m in monos:
            f = {m: Fraction(1)}
            via_product = _apply_element(prod, f)
            via_compose = _apply_element(ea, _apply_element(eb, f))
            assert via_product == via_compose, (la, lb, m)
        checked += 1
    assert checked >= 60


# -- unit-pairing index maps ----------------------------------------------------


def _skew_over_shifted_basis():
    # Q[x]/(x^2-2) over the basis e0 = 1 + x, e1 = x: the unit is e0 - e1, so
    # one(m) has 2^m terms and every pairing sums over all of them
    doc = {"dim": 2, "unit": ["1", "-1"],
           "table": [[["3", "-1"], ["2", "-1"]], [["2", "-1"], ["2", "-2"]]]}
    return SkewGroupSequence(CommutativeAlgebraSpec.from_json(doc))


@pytest.mark.parametrize("seq, top", [
    (SymmetricGroupSequence(), 6),
    (SkewGroupSequence(), 4),
    (_skew_over_shifted_basis(), 4),
    (HeckeSequence(trunc_degree=2), 3),
    (HeckeSequence(trunc_degree=3), 3),
], ids=["symmetric", "skew", "skew-unit-of-two-terms", "hecke-d2", "hecke-d3"])
def test_unit_pairing_maps_equal_mu(seq, top):
    rng = random.Random(31)
    for w in range(1, top):
        for m in range(1, top - w + 1):
            one = seq.one(m)
            maps = {side: seq.unit_pairing(m, w, side) for side in ("left", "right")}
            vectors = [{j: 1} for j in range(seq.dim(w))]
            for _ in range(5):
                vectors.append({j: rng.choice((-2, -1, 1, 3, Fraction(1, 2)))
                                for j in rng.sample(range(seq.dim(w)), min(4, seq.dim(w)))})
            for vec in vectors:
                el = seq.vec_to_element(w, vec)
                expected = {"left": seq.element_to_vec(m + w, seq.mu(m, w, one, el)),
                            "right": seq.element_to_vec(m + w, seq.mu(w, m, el, one))}
                for side, index_map in maps.items():
                    image = {}
                    for j, c in vec.items():
                        add_scaled(image, index_map[j], c)
                    assert image == expected[side], (w, m, side, vec)
    assert len(_skew_over_shifted_basis().one(2)) == 4


# -- skew slot tensors ----------------------------------------------------------


def _slotwise(algebra, n, slot=None, k=None):
    # one(n), or the insertion of e_k into ``slot``, one coefficient per
    # multi-index: the unit's coordinates in every slot but ``slot``
    acc = {}
    for a in product(range(algebra.dim), repeat=n):
        c = 1
        for l, i in enumerate(a):
            c *= int(i == k) if l == slot else algebra.unit[i]
        if c:
            acc[(a, identity(n))] = c
    return acc


def _slotwise_product(algebra, la, lb):
    # (a, p)(b, q) = (a . p(b), pq), a . p(b) expanded slot by slot
    (a, p), (b, q) = la, lb
    inv = inverse(p)
    rows = [algebra.table[a[l]][b[inv[l] - 1]] for l in range(len(a))]
    return {(c, compose(p, q)): prod(row[i] for row, i in zip(rows, c))
            for c in product(range(algebra.dim), repeat=len(a))
            if all(row[i] for row, i in zip(rows, c))}


@pytest.mark.parametrize("algebra", [CommutativeAlgebraSpec.quadratic(2),
                                     _skew_over_shifted_basis().algebra],
                         ids=["x2-2", "unit-of-two-terms"])
def test_skew_slot_tensors_equal_their_slotwise_definitions(algebra):
    # terms in lexicographic order of the multi-index, hence the item lists
    seq = SkewGroupSequence(algebra)
    unit_ix = algebra.unit_basis_index()
    for n in range(1, 4):
        assert seq.basis(n) == tuple((a, p) for a in product(range(algebra.dim), repeat=n)
                                     for p in all_permutations(n))
        assert list(seq.one(n).items()) == list(_slotwise(algebra, n).items())
        for comp in compositions(n):
            # the hand-built generators: one(n) times each Young t_i, then
            # every insertion of a basis vector other than the unit
            gens = [{(a, compose(p, transposition(n, i))): c
                     for (a, p), c in _slotwise(algebra, n).items()}
                    for i in young_positions(comp)]
            gens += [_slotwise(algebra, n, slot, k) for slot in range(n)
                     for k in range(algebra.dim) if k != unit_ix]
            assert ([list(g.items()) for g in seq.subalgebra_generators(comp)]
                    == [list(g.items()) for g in gens]), comp
        for slot in range(n):
            for k in range(algebra.dim):
                assert (list(seq._slot_insertion(n, slot, k).items())
                        == list(_slotwise(algebra, n, slot, k).items())), (n, slot, k)
        if n <= 2:
            for la in seq.basis(n):
                for lb in seq.basis(n):
                    assert (list(seq._mul_basis_raw(n, la, lb).items())
                            == list(_slotwise_product(algebra, la, lb).items())), (la, lb)


@pytest.mark.parametrize("D", range(4))
def test_hecke_slot_plumbing_matches_its_hand_built_forms(D):
    # the references: the sorted exponent window times S_n, the unit y^0, and
    # the generators t_i and y_i as single labels
    seq = HeckeSequence(trunc_degree=D)
    for n in range(4):
        zero, ident = (0,) * n, identity(n)
        window = sorted(product(range(D + 1), repeat=n), key=lambda a: (sum(a), a))
        assert seq.basis(n) == tuple((a, p) for a in window for p in all_permutations(n))
        assert seq.one(n) == {(zero, ident): 1}
        for comp in compositions(n) if n else ():
            gens = [{(zero, transposition(n, i)): 1} for i in young_positions(comp)]
            gens += [{(tuple(int(k == i) for k in range(n)), ident): 1} for i in range(n)]
            assert seq.subalgebra_generators(comp) == gens, comp


# -- commutators ----------------------------------------------------------------


def _cubic_field():
    # Q[x]/(x^3 - x - 1) on 1, x, x^2: x * x^2 = 1 + x and x^2 * x^2 = x + x^2
    table = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
             [(0, 1, 0), (0, 0, 1), (1, 1, 0)],
             [(0, 0, 1), (1, 1, 0), (0, 1, 1)]]
    return CommutativeAlgebraSpec(3, table, (1, 0, 0), name="Q[x]/(x^3-x-1)")


class _UpperTriangular(CommutativeAlgebraSpec):
    """A spec whose table need not commute: its laws are not checked."""

    def _validate(self):
        pass


def test_skew_commutators_multiply_on_the_right_by_the_column():
    # the upper-triangular T_2 on 1, e12, e22: e12 e22 = e12 but e22 e12 = 0, so
    # (b, q) g must take slot q(s) times e_e from the column table[x][e]
    table = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
             [(0, 1, 0), (0, 0, 0), (0, 1, 0)],
             [(0, 0, 1), (0, 0, 0), (0, 0, 1)]]
    seq = SkewGroupSequence(_UpperTriangular(3, table, (1, 0, 0), name="T_2"))
    checked = 0
    for n in (2, 3):
        indices = range(seq.dim(n))
        for g in seq.subalgebra_generators(Composition((1,) * n)):
            assert seq._insertion_slot(n, g) is not None, (n, g)
            assert seq.commutators(n, g, indices) == \
                MultiplicativeSequence.commutators(seq, n, g, indices), (n, g)
            checked += 1
    assert checked == 10


@pytest.mark.parametrize("algebra, direct, top", [
    (CommutativeAlgebraSpec.quadratic(2), True, 4),
    (CommutativeAlgebraSpec.quadratic(0), True, 4),
    (_cubic_field(), True, 4),
    (_skew_over_shifted_basis().algebra, False, 3),
], ids=["x2-2", "x-nilpotent", "cubic-field", "unit-of-two-terms"])
def test_skew_commutators_equal_the_basis_product_route(algebra, direct, top):
    # slot insertions are multiplied slot by slot, everything else (the t_i,
    # and every generator when the unit is no basis vector) by the default;
    # the default's generators have 2^(n-1) terms there, hence its lower top
    seq = SkewGroupSequence(algebra)
    raw_products = []
    product = seq._mul_basis_raw
    seq._mul_basis_raw = lambda *args: raw_products.append(args) or product(*args)
    for n in range(1, top + 1):
        indices = range(seq.dim(n))
        for g in seq.subalgebra_generators(Composition((n,))):
            is_insertion = all(p == identity(n) for _, p in g)
            del raw_products[:]
            got = seq.commutators(n, g, indices)
            assert bool(raw_products) != (direct and is_insertion), (n, g)
            assert got == MultiplicativeSequence.commutators(seq, n, g, indices), (n, g)

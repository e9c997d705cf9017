import random
from fractions import Fraction
from functools import reduce

import pytest

from swcohom.homology import (
    SnModule,
    centralizer,
    cubic_complex,
    cubic_invariants_diagram,
    deformation_complex_truncated,
)
from swcohom.linalg import (
    CochainComplex,
    Echelon,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    add_scaled,
    image_basis,
    kernel_basis,
    rank,
    subspace_intersect,
    subspace_sum,
)
from swcohom.sequences import SkewGroupSequence, SymmetricGroupSequence
from swcohom.combinat import Composition


def dense_rref(rows):
    """Independent oracle: the nonzero rows of the reduced row echelon form,
    by plain Gaussian elimination on dense Fraction rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank_ = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank_ < len(rows) and col < ncols:
        piv = next((i for i in range(rank_, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank_], rows[piv] = rows[piv], rows[rank_]
        inv = 1 / rows[rank_][col]
        rows[rank_] = [x * inv for x in rows[rank_]]
        for i in range(len(rows)):
            if i != rank_ and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank_])]
        rank_ += 1
        col += 1
    return rows[:rank_]


def one_plus_t1_matrix():
    """Left multiplication by 1 + t_1 on Q[S_3], dense."""
    seq = SymmetricGroupSequence()
    t1 = seq.subalgebra_generators(Composition((2, 1)))[0]
    u = add_scaled(seq.one(3), t1)
    return seq.left_mult_matrix(3, u)


def to_dense(M):
    out = [[Fraction(0)] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        out[i][j] = v
    return out


def test_rank_trivial_cases():
    assert rank(SparseMatrix(3, 3)) == 0
    assert rank(SparseMatrix.identity(4)) == 4


def test_rank_one_plus_t1():
    M = one_plus_t1_matrix()
    assert len(dense_rref(to_dense(M))) == 3  # oracle
    assert rank(M) == 3


def test_kernel_image_one_plus_t1():
    M = one_plus_t1_matrix()
    K = kernel_basis(M)
    I = image_basis(M)
    assert K.dim == 3 and I.dim == 3
    for v in K.basis():
        assert not M.apply(v)
    for v in I.basis():
        # attained exactly: v is a combination of columns, check membership
        assert image_basis(M).contains(v)


def _entries_are_ints(vectors):
    return all(type(c) is int for v in vectors for c in v.values())


def test_integral_data_stay_int():
    # a directed graph's incidence matrix (4-cycle plus the chord 0 -> 2) is
    # totally unimodular, so its RREF has only +-1 pivots and never divides
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    M = SparseMatrix(4, len(edges), {(v, e): s for e, (a, b) in enumerate(edges)
                                     for v, s in ((a, -1), (b, 1))})
    K = kernel_basis(M)
    assert K.dim == 2
    assert _entries_are_ints(K.basis())
    C = centralizer(SymmetricGroupSequence(), Composition((2, 2)))
    assert C.dim > 0 and _entries_are_ints(C.basis())
    # over Q[x]/(x^2-2) elimination meets pivots of 2, yet every entry of the
    # truncated differentials is an int: the assembly maps integral rows
    diffs = deformation_complex_truncated(SkewGroupSequence(), 4).differentials
    entries = [v for d in diffs for v in d.entries.values()]
    assert len(entries) > 1000
    assert all(type(v) is int for v in entries)


def test_pivot_normalisation_divides_exactly():
    ech = Echelon()
    assert ech.insert({0: 2, 1: 1}) == 0
    [row] = ech.row_list()
    assert row == {0: 1, 1: Fraction(1, 2)}
    assert not any(isinstance(c, float) for c in row.values())


def _dense(vec, n):
    return [vec.get(j, 0) for j in range(n)]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_rref_rows_coords_and_rank_match_dense_oracle(kind):
    # the fraction-free rows must come back as exactly the RREF of the input
    rng = random.Random(41 if kind == "int" else 43)
    for _ in range(60):
        r, n = rng.randint(1, 7), rng.randint(1, 8)
        if kind == "int":
            draw = lambda: rng.randint(-2, 2)
        else:
            draw = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        vecs = [{j: draw() for j in range(n) if rng.random() < 0.6} for _ in range(r)]
        vecs = [{j: x for j, x in v.items() if x} for v in vecs]
        U = Subspace.from_vectors(vecs, n)
        oracle = dense_rref([_dense(v, n) for v in vecs])
        basis = U.basis()
        assert [_dense(row, n) for row in basis] == oracle
        assert all(type(x) is int for row in basis for x in row.values()
                   if x.denominator == 1)
        for v in vecs:
            rebuilt = {}
            for pos, c in U.coords_of(v).items():
                add_scaled(rebuilt, basis[pos], c)
            assert rebuilt == v
        M = SparseMatrix.from_row_dicts(vecs, n)
        assert rank(M) == U.dim == len(oracle)


def test_kernel_image_extremes():
    assert kernel_basis(SparseMatrix.identity(5)).dim == 0
    assert image_basis(SparseMatrix.identity(5)).dim == 5
    Z = SparseMatrix(4, 6)
    assert kernel_basis(Z).dim == 6
    assert image_basis(Z).dim == 0


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
        ent = {(i, j): Fraction(rng.randint(-2, 2))
               for i in range(r) for j in range(c) if rng.random() < 0.4}
        M = SparseMatrix(r, c, ent)
        assert kernel_basis(M).dim + image_basis(M).dim == c
        assert rank(M) == len(dense_rref(to_dense(M)))
        assert rank(M.transpose()) == rank(M)


def test_rank_with_fraction_entries_matches_dense_oracle():
    # entries p/q with |p| <= 9 make most pivots non-units, so rows go Fraction
    rng = random.Random(5)
    for _ in range(40):
        r = rng.randint(1, 7)
        c = rng.randint(1, 7)
        ent = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for i in range(r) for j in range(c) if rng.random() < 0.5}
        M = SparseMatrix(r, c, ent)
        assert rank(M) == len(dense_rref(to_dense(M)))


def _random_sparse(rng, rows, cols, density=0.3):
    return SparseMatrix(rows, cols, {
        (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i in range(rows) for j in range(cols) if rng.random() < density})


def test_derived_matrices_match_dense_and_the_constructor_still_validates():
    rng = random.Random(3)
    for _ in range(10):
        A, B = _random_sparse(rng, 4, 3, 0.5), _random_sparse(rng, 4, 2, 0.5)
        dA, dB = to_dense(A), to_dense(B)
        tA, tB = [list(c) for c in zip(*dA)], [list(c) for c in zip(*dB)]
        assert to_dense(A.transpose()) == tA
        assert to_dense(A.hstack(B)) == [a + b for a, b in zip(dA, dB)]
        assert to_dense(SparseMatrix.vstack([A.transpose(), B.transpose()])) == tA + tB
        prod = A.transpose().matmul(B)
        assert to_dense(prod) == [[sum(x * y for x, y in zip(a, b)) for b in tB] for a in tA]
        assert all(prod.entries.values())
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): 1})
    assert SparseMatrix(2, 2, {(0, 0): 0}).is_zero()


def test_rank_matches_dense_oracle_over_shapes_and_densities():
    rng = random.Random(17)
    for shape in ((12, 5), (5, 12), (9, 9)):
        for _ in range(15):
            M = _random_sparse(rng, *shape, density=rng.choice((0.15, 0.3, 0.6)))
            assert rank(M) == len(dense_rref(to_dense(M)))


def test_rank_equals_cols_minus_kernel_dim_on_real_differentials():
    complexes = (cubic_complex(cubic_invariants_diagram(SnModule.regular(5))),
                 deformation_complex_truncated(SymmetricGroupSequence(), 5))
    diffs = [d for cx in complexes for d in cx.differentials]
    assert len(diffs) == 9
    for d in diffs:
        assert rank(d) == d.cols - kernel_basis(d).dim


def test_subspace_membership_and_coords():
    U = Subspace.from_vectors([{0: 1, 1: 2}, {2: 1}], 3)
    assert U.dim == 2
    assert U.contains({0: 2, 1: 4, 2: 5})
    assert not U.contains({1: 1})
    v = {0: 3, 1: 6, 2: -1}
    coords = U.coords_of(v)
    basis = U.basis()
    rebuilt = {}
    for pos, c in coords.items():
        for k, x in basis[pos].items():
            rebuilt[k] = rebuilt.get(k, 0) + c * x
    assert {k: v_ for k, v_ in rebuilt.items() if v_} == v
    with pytest.raises(ValueError):
        U.coords_of({1: 1})


def test_add_scaled_drops_cancelled_keys():
    acc = {0: Fraction(1), 1: Fraction(2)}
    assert add_scaled(acc, {1: Fraction(1), 2: Fraction(3)}, -2) is acc
    assert acc == {0: Fraction(1), 2: Fraction(-6)}
    assert add_scaled({}, {5: Fraction(1, 2)}) == {5: Fraction(1, 2)}


def test_reduce_residue_is_pivot_free_and_congruent():
    # one pass of Echelon.reduce must clear every pivot and change vec only by
    # an element of the subspace
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 8)
        U = _random_subspace(rng, n)
        vec = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
               for j in range(n) if rng.random() < 0.7}
        res = U.reduce(vec)
        assert all(x != 0 for x in res.values())
        assert not set(res) & set(U.pivots)
        assert U.contains(add_scaled(dict(vec), res, -1))


def test_sparse_coords_rebuild_randomized():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 8)
        U = _random_subspace(rng, n)
        basis = U.basis()
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
        vec = {}
        for w, row in zip(weights, basis):
            for k, x in row.items():
                vec[k] = vec.get(k, 0) + w * x
        vec = {k: x for k, x in vec.items() if x}
        coords = U.coords_of(vec)
        assert all(c != 0 for c in coords.values())
        assert all(0 <= pos < U.dim for pos in coords)
        assert coords == {i: w for i, w in enumerate(weights) if w}
        rebuilt = {}
        for pos, c in coords.items():
            for k, x in basis[pos].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * x
        assert {k: x for k, x in rebuilt.items() if x} == vec


def test_coords_positions_shift_after_insert():
    U = Subspace.from_vectors([{2: 1}, {4: 1}], 5)
    assert U.coords_of({4: 7}) == {1: 7}
    # a new row with a smaller pivot moves the rows for pivots 2 and 4 down
    U._ech.insert({0: 1})
    assert U.pivots == [0, 2, 4]
    assert U.coords_of({4: 7}) == {2: 7}
    assert U.coords_of({0: 1, 2: -1}) == {0: 1, 1: -1}


def test_sum_intersect_trivial_and_complementary():
    U = Subspace.from_vectors([{0: 1}, {1: 1}], 4)
    W = Subspace.from_vectors([{2: 1}, {3: 1}], 4)
    assert subspace_sum(U, U) == U
    assert subspace_intersect(U, U) == U
    assert subspace_sum(U, W).dim == 4
    assert subspace_intersect(U, W).dim == 0
    with pytest.raises(ValueError):
        subspace_sum(U, Subspace.full(3))


def test_subspace_sum_of_many_equals_the_pairwise_fold():
    # RREF is unique, so one pass over every basis row gives the same rows as
    # folding two at a time; a zero start gives the fold of no spaces too
    rng = random.Random(29)
    with pytest.raises(ValueError):
        subspace_sum()
    for _ in range(20):
        n = rng.randint(1, 7)
        for k in range(4):
            spaces = [_random_subspace(rng, n) for _ in range(k)]
            zero = Subspace.zero(n)
            assert subspace_sum(zero, *spaces).basis() == \
                reduce(subspace_sum, spaces, zero).basis()
            if spaces:
                assert subspace_sum(*spaces).basis() == reduce(subspace_sum, spaces).basis()


def test_grassmann_identity_randomized():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 7)
        U = _random_subspace(rng, n)
        W = _random_subspace(rng, n)
        s = subspace_sum(U, W)
        i = subspace_intersect(U, W)
        assert s.dim + i.dim == U.dim + W.dim
        for v in i.basis():
            assert U.contains(v) and W.contains(v)


def _random_subspace(rng, n):
    k = rng.randint(0, n)
    vecs = [{j: Fraction(rng.randint(-2, 2)) for j in range(n) if rng.random() < 0.6}
            for _ in range(k)]
    return Subspace.from_vectors(vecs, n)


def test_quotient_dim():
    V = Subspace.full(5)
    assert QuotientSpace(V, Subspace.zero(5)).dim == 5
    assert QuotientSpace(V, V).dim == 0
    assert QuotientSpace(Subspace.full(5), Subspace.from_vectors([{0: 1}], 5)).dim == 4
    with pytest.raises(ValueError):
        QuotientSpace(Subspace.from_vectors([{0: 1}], 5),
                      Subspace.from_vectors([{1: 1}], 5))


def test_quotient_space_reps():
    V = Subspace.full(3)
    U = Subspace.from_vectors([{0: 1, 1: 1}], 3)
    q = QuotientSpace(V, U)
    assert q.dim == 2
    # classes add up consistently
    c1 = q.coords_of({0: 1})
    c2 = q.coords_of({1: -1})
    assert c1 == c2  # e0 = -e1 modulo (e0 + e1)


def test_cochain_complex_basics():
    eye = SparseMatrix.identity(1)
    cx = CochainComplex(0, [1, 1], [eye])
    assert cx.cohomology_dims() == {0: 0, 1: 0}
    zero2 = SparseMatrix(3, 2)
    zero3 = SparseMatrix(1, 3)
    cx = CochainComplex(0, [2, 3, 1], [zero2, zero3])
    assert cx.cohomology_dims() == {0: 2, 1: 3, 2: 1}


def test_cochain_complex_rejects_nonzero_square():
    eye = SparseMatrix.identity(1)
    with pytest.raises(ValueError):
        CochainComplex(0, [1, 1, 1], [eye, eye])


def test_cohomology_representatives():
    # 0 -> Q^2 --(x,y)->x--> Q -> 0 : H^0 = ker = 1-dim, H^1 = coker = 0
    d = SparseMatrix(1, 2, {(0, 0): Fraction(1)})
    cx = CochainComplex(0, [2, 1], [d])
    dims, reps = cx.cohomology()
    assert dims == {0: 1, 1: 0}
    assert reps[0][0] == {1: Fraction(1)}

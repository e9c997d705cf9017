import random
from fractions import Fraction
from functools import partial, reduce

import pytest

from conftest import from_indicators, quotient_by_residues
from swcohom.homology import (
    SnModule,
    centralizer,
    cubic_complex,
    cubic_invariants_diagram,
    deformation_complex_truncated,
    random_module,
)
from swcohom.linalg import (
    CochainComplex,
    Echelon,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    _pivot_rows,
    add_scaled,
    combination,
    kernel_basis,
    rank,
    subspace_intersect,
    subspace_sum,
)
from swcohom.sequences import (
    CommutativeAlgebraSpec,
    HeckeSequence,
    SkewGroupSequence,
    SymmetricGroupSequence,
)
from swcohom.combinat import Composition, compositions
from swcohom.symgrp import young_positions


def image_basis(M):
    """Column space of M as a Subspace of Q^rows."""
    return Subspace.from_vectors(M.col_dicts(), M.rows)


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
    """Left multiplication by 1 + t_1 on Q[S_3], on basis indices."""
    seq = SymmetricGroupSequence()
    t1 = seq.subalgebra_generators(Composition((2, 1)))[0]
    u = add_scaled(seq.one(3), t1)
    idx = seq.index_of(3)
    return SparseMatrix(seq.dim(3), seq.dim(3), {
        (idx[l], j): c for j, label in enumerate(seq.basis(3))
        for l, c in seq.multiply(3, u, {label: 1}).items()})


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
        assert M.matmul(SparseMatrix(M.cols, 1, {(j, 0): x for j, x in v.items()})).is_zero()
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
    [row] = ech.basis()
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
        assert rank(SparseMatrix.from_row_dicts(M.col_dicts(), M.rows)) == rank(M)


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
        prod = SparseMatrix.from_row_dicts(A.col_dicts(), A.rows).matmul(B)
        assert to_dense(prod) == [[sum(x * y for x, y in zip(a, b)) for b in tB] for a in tA]
        assert all(prod.entries.values())
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): 1})
    assert SparseMatrix(2, 2, {(0, 0): 0}).is_zero()
    # column j holds its one 1 at row perm[j]
    assert to_dense(SparseMatrix.permutation([2, 0, 1])) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_rank_matches_dense_oracle_over_shapes_and_densities():
    rng = random.Random(17)
    for shape in ((12, 5), (5, 12), (9, 9)):
        for _ in range(15):
            M = _random_sparse(rng, *shape, density=rng.choice((0.15, 0.3, 0.6)))
            assert rank(M) == len(dense_rref(to_dense(M)))


def _assert_a_maximal_independent_set(rows, pivots):
    # every pivot row is accepted in turn, then no other row adds to their span
    assert len(set(pivots)) == len(pivots)
    ech = Echelon()
    assert all(ech.insert(rows[i]) is not None for i in pivots)
    assert all(ech.insert(row) is None for row in rows)
    ncols = 1 + max((c for row in rows for c in row), default=0)
    assert ech.dim == len(dense_rref([_dense(row, ncols) for row in rows]))


@pytest.mark.parametrize("kind", [lambda p, q: p, Fraction], ids=["int", "fraction"])
def test_pivot_rows_are_a_maximal_independent_set(kind):
    rng = random.Random(43)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.1:
                rows.append({})
            elif roll < 0.25 and rows:
                rows.append(dict(rng.choice(rows)))     # a repeated row
            else:
                density = rng.choice((0.15, 0.4, 0.7))
                rows.append({j: kind(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2)))
                             for j in range(ncols) if rng.random() < density})
        _assert_a_maximal_independent_set(rows, _pivot_rows([dict(row) for row in rows]))


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)])
def test_a_row_left_with_one_entry_by_a_pivot_of_two_is_pivoted(scale):
    # r0 pivots first at value 2 in column 0 (three rows hold it, four hold
    # column 1); r1 becomes 2 r1 - 3 r0 = {2: 2}, a one-entry row, which then
    # clears column 2 from r2, and r3 repeats r0
    rows = [{0: 2, 1: 4}, {0: 3, 1: 6, 2: 1}, {1: 1, 2: 1, 3: 1}, {0: 2, 1: 4}]
    rows = [{c: x * scale for c, x in row.items()} for row in rows]
    pivots = _pivot_rows([dict(row) for row in rows])
    assert sorted(pivots) in ([0, 1, 2], [1, 2, 3])
    _assert_a_maximal_independent_set(rows, pivots)


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
    U.insert({0: 1})
    assert U.pivots == [0, 2, 4]
    assert U.coords_of({4: 7}) == {2: 7}
    assert U.coords_of({0: 1, 2: -1}) == {0: 1, 1: -1}


def _regular4_orbit_partitions():
    """The orbits of each Young subgroup of S_4 on its regular rep, and the
    index maps of S_4's generators t_1, t_2, t_3."""
    import swcohom.homology as homology

    module = SnModule.regular(4)
    perms = [homology._as_permutation(T) for T in module.gens]
    partitions = []
    for comp in compositions(4):
        pos, heads, *_ = homology._orbits(module.dim,
                                          [perms[i - 1] for i in young_positions(comp)])
        partitions.append([[k for k, p in enumerate(pos) if p == j] for j in range(len(heads))])
    return partitions, [[{q: 1} for q in perm] for perm in perms], module.dim


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _proved_block(space, source, index_map):
    """``space.image_coords(source, index_map, 2, -1)``, read off the label
    list of ``face_labels`` wherever that proves the face."""
    labels = space.face_labels(source, index_map)
    if labels is None:
        return space.image_coords(source, index_map, 2, -1)
    block = [{} for _ in range(source.dim)]
    for p, j in enumerate(labels):
        if j >= 0:
            block[j][2 + p] = -1
    return block


def test_from_indicators_adopts_what_elimination_builds():
    partitions, maps, dim = _regular4_orbit_partitions()
    assert len(partitions) == 8 and any(len(orbit) > 1 for orbit in partitions[0])
    full, faces = Subspace.full(dim), []
    # every orbit partition, and every other orbit of each: a partial cover
    for orbits in partitions + [orbits[::2] for orbits in partitions]:
        adopted = from_indicators(orbits, dim)
        built = Subspace.from_vectors([{k: 1 for k in orbit} for orbit in orbits], dim)
        assert adopted.pivots == built.pivots
        assert adopted.integral_rows() == built.integral_rows()
        assert adopted.basis() == built.basis()
        member = {k: j + 1 for j, orbit in enumerate(orbits) for k in orbit}
        assert adopted.coords_of(member) == built.coords_of(member)
        # faces into the space from itself and from Q^dim, under the identity
        # (one array comparison between adopted spaces) and t_1..t_3 (a
        # lookup), row by row otherwise: a t_i of the Young subgroup maps
        # each orbit onto itself, another one may map an orbit out of the space
        for source, index_map in [(s, m) for s in (adopted, built, full) for m in [None] + maps]:
            block = _outcome(lambda: _proved_block(adopted, source, index_map))
            assert block == _outcome(lambda: built.image_coords(source, index_map, 2, -1))
            assert block == _outcome(lambda: adopted.image_coords(source, index_map, 2, -1))
            faces.append(block == "vector not in subspace")
        # a refused insert keeps the arrays; an accepted one clears its pivot
        # from the 0/1 rows it keeps from then on, so both stay equal row by
        # row, and membership moves to elimination with the same answers
        assert adopted.insert(member) is built.insert(member) is None and adopted._pos is not None
        for orbit in orbits:
            if len(orbit) > 1:
                assert adopted.insert({orbit[-1]: 1}) == built.insert({orbit[-1]: 1})
        uncovered = min(set(range(dim)).difference(*orbits), default=None)
        if uncovered is not None:
            assert adopted.insert({uncovered: 1}) == built.insert({uncovered: 1}) == uncovered
        assert adopted.integral_rows() == built.integral_rows()
        assert adopted.basis() == built.basis()
        assert adopted.coords_of(member) == built.coords_of(member)
    assert set(faces) == {True, False}
    assert from_indicators([[i] for i in range(5)], 5) == Subspace.full(5)
    assert from_indicators([], 3).dim == 0


_NOT_IN = "vector not in subspace"


@pytest.mark.parametrize("source, target, index_map, block", [
    # a two-term image: e0 -> f0 + f1, onto a target orbit, or off the partial
    # target span{f0 + f1}, where f2 and f3 lie in no support
    (([[0], [1, 2]], 3), ([[0, 1], [2, 3]], 4), [{0: 1, 1: 1}, {2: 1}, {3: 1}],
     [{2: -1}, {3: -1}]),
    (([[0], [1, 2]], 3), ([[0, 1]], 4), [{0: 1, 1: 1}, {2: 1}, {3: 1}], _NOT_IN),
    # a coefficient other than 1
    (([[0], [1]], 2), ([[0], [1]], 2), [{0: 2}, {1: 1}], [{2: -2}, {3: -1}]),
    (([[0], [1]], 2), ([[0], [1]], 2), [{0: -1}, {1: 1}], [{2: 1}, {3: -1}]),
    # two source indices sent to one target index
    (([[0, 1], [2]], 3), ([[0], [1]], 2), [{0: 1}, {0: 1}, {1: 1}], [{2: -2}, {3: -1}]),
    (([[0], [1]], 2), ([[0]], 2), [{0: 1}, {0: 1}], [{2: -1}, {2: -1}]),
    (([[0], [1]], 2), ([[0, 1]], 2), [{0: 1}, {0: 1}], _NOT_IN),
    # a target index past the ambient dimension, from a covered source index
    # or from one that lies in no source support
    (([[0], [1]], 2), ([[0], [1]], 2), [{0: 1}, {2: 1}], _NOT_IN),
    (([[0]], 2), ([[1]], 2), [{1: 1}, {2: 1}], [{2: -1}]),
    # the identity between ambients of other dimensions
    (([[0], [1]], 2), ([[0], [1], [2]], 3), None, [{2: -1}, {3: -1}]),
    (([[0], [1]], 2), ([[0], [1, 2]], 3), None, _NOT_IN),
    (([[0], [3]], 4), ([[0], [1], [2]], 3), None, _NOT_IN),
    (([[0]], 4), ([[0], [1, 2]], 3), None, [{2: -1}]),
], ids=["two-terms", "two-terms-partial", "coefficient-2", "coefficient-minus-1",
        "not-injective", "not-injective-partial", "not-injective-leaves", "out-of-range",
        "out-of-range-uncovered", "identity-smaller-source", "identity-smaller-source-leaves",
        "identity-larger-source-leaves", "identity-larger-source-partial"])
def test_blocks_the_array_proof_refuses_agree_with_elimination(source, target, index_map,
                                                               block):
    # every index map the one array comparison must refuse: the adopted target
    # and the eliminated one give the same block, or the same ValueError
    source = from_indicators(*source)
    supports, dim = target
    adopted = from_indicators(supports, dim)
    built = Subspace.from_vectors([dict.fromkeys(support, 1) for support in supports], dim)
    for space in (adopted, built):
        assert _outcome(lambda: _proved_block(space, source, index_map)) == block
        assert _outcome(lambda: space.image_coords(source, index_map, 2, -1)) == block


def _membership_probes(orbits, dim):
    """(vector, is a member) pairs for the span of the indicators of ``orbits``
    in Q^dim: members, and each kind of non-member the lookup must refuse."""
    covered = {k for orbit in orbits for k in orbit}
    member = {k: Fraction(j + 1, 2) if j % 3 else j for j, orbit in enumerate(orbits)
              for k in orbit}   # orbit 0 has coefficient 0: stored zeros
    probes = [({}, True), (member, True),
              ({dim: 1}, False), ({**member, dim: 1}, False), ({**member, dim: 0}, True)]
    uncovered = [k for k in range(dim) if k not in covered]
    probes += [({k: 1}, False) for k in uncovered[:1]]
    for orbit in orbits:
        indicator = dict.fromkeys(orbit, 3)
        probes.append((indicator, True))
        if len(orbit) > 1:
            probes += [
                ({**indicator, orbit[-1]: 2}, False),           # not constant
                ({**indicator, orbit[-1]: 0}, False),           # a stored zero inside
                ({k: 3 for k in orbit[:-1]}, False),            # one index missing
                ({k: 3 for k in orbit[1:]}, False),             # the head missing
                # the head, with indices off every support in place of the rest
                ({orbit[0]: 3, **dict.fromkeys(uncovered[:len(orbit) - 1], 3)}, False),
            ]
    return probes


def test_lookup_membership_agrees_with_elimination():
    # every orbit partition, every other orbit of each (so some indices lie
    # off every support), and Subspace.full
    partitions, _, dim = _regular4_orbit_partitions()
    cases = [(from_indicators(orbits, dim), orbits, dim)
             for orbits in partitions + [orbits[::2] for orbits in partitions]]
    cases.append((Subspace.full(5), [[i] for i in range(5)], 5))
    for adopted, orbits, ambient in cases:
        built = Subspace.from_vectors([dict.fromkeys(orbit, 1) for orbit in orbits], ambient)
        kinds = set()
        for vec, is_member in _membership_probes(orbits, ambient):
            assert adopted.contains(vec) is built.contains(vec) is is_member, vec
            if is_member:
                assert adopted.coords_of(vec) == built.coords_of(vec)
            else:
                for space in (adopted, built):
                    with pytest.raises(ValueError):
                        space.coords_of(vec)
            kinds.add(is_member)
        assert kinds == {True, False}


@pytest.mark.parametrize("supports", [
    [[0, 2], [1, 2]],       # overlapping supports
    [[0, 1, 1]],            # an index repeated inside one support
    [[1, 0], [2]],          # a head that is not the least index
    [[0], [1, 3]],          # an index outside the ambient dimension
    [[-1, 0]],              # a negative head
], ids=["overlap", "repeat", "head-not-least", "out-of-range", "negative"])
def test_from_indicators_rejects_what_is_not_an_rref(supports):
    with pytest.raises(ValueError):
        from_indicators(supports, 3)


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


def test_an_insert_into_a_sum_rebuilds_its_column_index():
    # the sum keeps no column index; inserts after it, whose pivots the sum's
    # rows hold, must still clear those columns from every row
    U = Subspace.from_vectors([{0: 2, 1: 1, 3: 1}, {2: 1, 3: -1, 4: 2}], 5)
    W = from_indicators([[1, 4]], 5)
    S = subspace_sum(U, W)
    assert S._uses is None
    extra = [{3: 1, 4: 1}, {0: 1, 1: 1, 2: 1, 3: 1, 4: 3}]
    assert [S.insert(vec) for vec in extra] == [3, 4]
    rows = [row for space in (U, W) for row, _ in space.integral_rows()] + extra
    assert S.integral_rows() == Subspace.from_vectors(rows, 5).integral_rows()


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
    # integral rows are the representatives over their pivot values, row by
    # row, also where a pivot value is not 1
    q2 = QuotientSpace(Subspace.from_vectors([{0: 2, 1: 1}, {2: 3, 1: 1}], 3),
                       Subspace.from_vectors([{2: 3, 1: 1}], 3))
    for quot in (q, q2):
        rows = quot.integral_rows()
        assert len(rows) == quot.dim
        assert [{k: Fraction(x, d) for k, x in row.items()} for row, d in rows] \
            == quot.basis()
    assert [d for _, d in q2.integral_rows()] == [2]


def _quotient_inputs():
    """(V, U) pairs with U in V: random ones, some pivot values other than 1;
    V adopted (``Subspace.full`` and the orbit spaces of S_4's Young
    subgroups on its regular rep), U eliminated or adopted."""
    rng = random.Random(29)
    pairs = []
    for _ in range(60):
        n = rng.randint(1, 7)
        V = Subspace.from_vectors([{j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.6}
                                   for _ in range(rng.randint(0, n))], n)
        basis = V.basis()
        U = Subspace.from_vectors(
            [combination(basis, {i: rng.randint(-2, 2) for i in range(len(basis))})
             for _ in range(rng.randint(0, len(basis)))], n)
        pairs.append((V, U))
        pairs.append((Subspace.full(n), V))
    partitions, _, dim = _regular4_orbit_partitions()
    for orbits in partitions:
        V = from_indicators(orbits, dim)
        pairs.append((V, from_indicators(orbits[::2], dim)))
        pairs.append((V, Subspace.from_vectors(
            [{k: 1 for orbit in orbits[j:j + 2] for k in orbit} for j in range(len(orbits) - 1)],
            dim)))
        pairs.append((Subspace.full(dim), V))
    return pairs


def test_quotient_takes_the_rows_of_V_the_residues_would_give(monkeypatch):
    residues, inserts = [], []
    residue, insert = Echelon._residue, Echelon.insert

    def counting_residue(self, vec):
        residues.append(self)
        return residue(self, vec)

    def counting_insert(self, vec):
        inserts.append(self)
        return insert(self, vec)

    pairs = _quotient_inputs()
    expected = [quotient_by_residues(V, U).integral_rows() for V, U in pairs]
    assert any(d != 1 for rows in expected for _, d in rows)
    monkeypatch.setattr(Echelon, "_residue", counting_residue)
    monkeypatch.setattr(Echelon, "insert", counting_insert)
    for (V, U), rows in zip(pairs, expected):
        del residues[:], inserts[:]
        q = QuotientSpace(V, U)
        assert q.integral_rows() == rows
        # only the containment guard reduces, and only modulo V; each row of V
        # at a pivot U lacks is inserted once, and no other row
        assert all(space is V for space in residues)
        assert inserts == [q] * (V.dim - U.dim)


def test_cochain_complex_basics():
    eye = SparseMatrix.identity(1)
    cx = CochainComplex([1, 1], [eye.col_dicts()])
    assert cx.cohomology_dims() == {0: 0, 1: 0}
    zero2 = SparseMatrix(3, 2)
    zero3 = SparseMatrix(1, 3)
    cx = CochainComplex([2, 3, 1], [zero2.col_dicts(), zero3.col_dicts()])
    assert cx.cohomology_dims() == {0: 2, 1: 3, 2: 1}


def test_cochain_complex_rejects_a_bad_shape():
    eye = SparseMatrix.identity(1).col_dicts()
    with pytest.raises(ValueError, match="^need one differential per adjacent degree pair$"):
        CochainComplex([1, 1, 1], [eye])
    # a column too few, and a row index past the target's dimension
    for dims, cols in (([2, 1], eye), ([1, 1], [{1: 1}])):
        with pytest.raises(ValueError, match="^differential 0 is no 1x%d matrix$" % dims[0]):
            CochainComplex(dims, [cols])


def test_label_faces_are_read_back_as_columns():
    # d_0 sends the one basis vector to both middle vectors, d_1 maps them to
    # the top block's second vector; two faces from one source into one block
    # add, here to zero
    cx = CochainComplex([1, 2, 2], [None, None],
                        [[(0, 0, [0], 1), (0, 1, [0], 1)],
                         [(0, 0, [-1, 0], 1), (1, 0, [-1, 0], -1)]])
    assert cx.columns == [[{0: 1, 1: 1}], [{1: 1}, {1: -1}]]
    assert [d.entries for d in cx.differentials] == [{(0, 0): 1, (1, 0): 1},
                                                     {(1, 0): 1, (1, 1): -1}]
    assert cx.cohomology_dims() == {0: 0, 1: 0, 2: 1}
    cancelled = CochainComplex([1, 1], [None], [[(0, 0, [0], 2), (0, 0, [0], -2)]])
    assert cancelled.columns == [[{}]] and cancelled.cohomology_dims() == {0: 1, 1: 1}
    # a label face past the target's or the source's dimension
    for dims, face in (([1, 1], (0, 0, [0, 0], 1)), ([1, 2], (0, 1, [1], 1))):
        with pytest.raises(ValueError, match="^differential 0 is no %dx1 matrix$" % dims[1]):
            CochainComplex(dims, [None], [[face]])


@pytest.mark.parametrize("signs, zero", [
    ((-1, -1, 2), True),    # a sign-2 path cancels two sign -1 paths
    ((-1, 2), False),       # but not one
    ((-1, -1, 1), False),
], ids=["two-against-two", "two-against-one", "unbalanced"])
def test_label_faces_cancel_by_integer_weight(signs, zero):
    # the one vector of C^0 goes to each middle block, and each middle block
    # to the one vector on top with its sign: the paths share one composite
    firsts = [(0, m, [0], 1) for m in range(len(signs))]
    seconds = [(m, 0, [0], sign) for m, sign in enumerate(signs)]
    build = partial(CochainComplex, [1, len(signs), 1], [None, None], [firsts, seconds])
    if zero:
        build()
    else:
        with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees 0 and 2$"):
            build()


@pytest.mark.parametrize("last, zero", [(-1, True), (-2, False)])
def test_label_faces_cancel_entry_by_entry(last, zero):
    # three paths with three different composites, (0, -1), (-1, 0) and (0, 0):
    # no two cancel as wholes, but their entries do when the last sign is -1
    firsts = [(0, m, [0], 1) for m in range(3)]
    seconds = [(0, 0, [0, -1], 1), (1, 0, [-1, 0], 1), (2, 0, [0, 0], last)]
    build = partial(CochainComplex, [1, 3, 2], [None, None], [firsts, seconds])
    if zero:
        assert build().cohomology_dims() == {0: 0, 1: 0, 2: 0}
    else:
        with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees 0 and 2$"):
            build()


@pytest.mark.parametrize("sign, zero", [(-1, True), (1, False)])
def test_label_faces_from_overlapping_sources_cancel_by_column(sign, zero):
    # the faces from offsets 0 and 1 both hit column 1 of C^0, through
    # different middle rows: their composites differ in their source offset,
    # so only the sum by column sees them cancel
    firsts = [(0, 0, [1], 1), (1, 1, [0], sign)]
    seconds = [(0, 0, [0], 1), (1, 0, [0], 1)]
    build = partial(CochainComplex, [2, 2, 1], [None, None], [firsts, seconds])
    if zero:
        assert build().cohomology_dims() == {0: 1, 1: 0, 2: 0}
    else:
        with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees 0 and 2$"):
            build()


@pytest.mark.parametrize("firsts, seconds, zero, h", [
    # d_0 fills the two middle rows as one block; d_1 reads them as the
    # blocks at offsets 0 and 1, so the path through row 1 starts at no
    # offset d_0 ends at
    ([(0, 0, [0, 0], 1)], [(0, 0, [0], 1), (1, 0, [0], -1)], True, {0: 0, 1: 0, 2: 0}),
    ([(0, 0, [0, 0], 1)], [(0, 0, [0], 1), (1, 0, [0], 1)], False, None),
    # two faces into offset 0 span one row and two rows
    ([(0, 0, [0], 1), (0, 0, [-1, 0], 1)], [(0, 0, [0], 1), (1, 0, [0], -1)], True,
     {0: 0, 1: 0, 2: 0}),
    ([(0, 0, [0], 1), (0, 0, [-1, 0], 1)], [(0, 0, [0], 1), (1, 0, [0], 1)], False, None),
    # the spans at offsets 0 and 1 overlap in row 1, where d_0 cancels or not
    ([(0, 0, [-1, 0], 1), (0, 1, [0], -1)], [(1, 0, [0], 1)], True, {0: 1, 1: 1, 2: 0}),
    ([(0, 0, [-1, 0], 1), (0, 1, [0], 1)], [(1, 0, [0], 1)], False, None),
], ids=["one-block-read-as-two", "one-block-read-as-two-bad", "unequal-spans",
        "unequal-spans-bad", "overlapping-spans", "overlapping-spans-bad"])
def test_label_faces_that_do_not_meet_block_to_block_are_checked_on_columns(firsts, seconds,
                                                                            zero, h):
    # only the column product sees every path here
    build = partial(CochainComplex, [1, 2, 1], [None, None], [firsts, seconds])
    if zero:
        assert build().cohomology_dims() == h
    else:
        with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees 0 and 2$"):
            build()


def test_cochain_complex_rejects_nonzero_square():
    eye = SparseMatrix.identity(1)
    with pytest.raises(ValueError):
        CochainComplex([1, 1, 1], [eye.col_dicts(), eye.col_dicts()])


def _dims_from_independent_ranks(cx):
    # the reference: each differential ranked alone, not along the chain
    ranks = [0] + [rank(d) for d in cx.differentials] + [0]
    return {k: dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(cx.dims)}


def _random_cubes():
    rng = random.Random(2027)
    return [cubic_complex(cubic_invariants_diagram(random_module(rng.randint(2, 4), rng)))
            for _ in range(8)]


def _truncated(seq, max_weight):
    return [deformation_complex_truncated(seq, W) for W in range(1, max_weight + 1)]


@pytest.mark.parametrize("build", [
    _random_cubes,
    lambda: [cubic_complex(cubic_invariants_diagram(SnModule.regular(4)))],
    lambda: _truncated(SymmetricGroupSequence(), 5),
    lambda: _truncated(SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2)), 3),
    lambda: _truncated(HeckeSequence(trunc_degree=2, level_cap=3), 3),
], ids=["random-cubes", "regular-4", "symmetric-W5", "skew-W3", "hecke-D2-W3"])
def test_chained_ranks_match_independent_ranks(build):
    for cx in build():
        assert cx.cohomology_dims() == _dims_from_independent_ranks(cx), cx.dims


def test_chained_ranks_through_a_pivot_value_of_two():
    # d0 pivots at value 2; d1 (with a Fraction) and d2 then lose the columns
    # of the earlier pivot rows: ranks 1, 2, 1 on dims 2, 3, 3, 1
    d0 = SparseMatrix(3, 2, {(0, 0): 2, (0, 1): 4, (2, 0): 2, (2, 1): 4})
    d1 = SparseMatrix(3, 3, {(0, 0): Fraction(1, 3), (0, 2): Fraction(-1, 3), (1, 1): 2,
                             (2, 0): Fraction(1, 3), (2, 1): 2, (2, 2): Fraction(-1, 3)})
    d2 = SparseMatrix(1, 3, {(0, 0): 2, (0, 1): 2, (0, 2): -2})
    cx = CochainComplex([2, 3, 3, 1], [d.col_dicts() for d in (d0, d1, d2)])
    assert [rank(d) for d in cx.differentials] == [1, 2, 1]
    assert cx.cohomology_dims() == _dims_from_independent_ranks(cx) == {0: 1, 1: 0, 2: 0, 3: 0}
    # kernels modulo images, in dimensions
    kernels = [kernel_basis(d).dim for d in cx.differentials] + [cx.dims[-1]]
    images = [0] + [image_basis(d).dim for d in cx.differentials]
    assert [k - i for k, i in zip(kernels, images)] == [1, 0, 0, 0]


def test_cohomology_representatives():
    # 0 -> Q^2 --(x,y)->x--> Q -> 0 : H^0 = ker = 1-dim, H^1 = coker = 0
    d = SparseMatrix(1, 2, {(0, 0): Fraction(1)})
    cx = CochainComplex([2, 1], [d.col_dicts()])
    assert cx.cohomology_dims() == {0: 1, 1: 0}
    # the representative of H^0 = ker d, modulo the zero image
    ker = kernel_basis(cx.differentials[0])
    assert QuotientSpace(ker, Subspace.zero(2)).basis() == [{1: Fraction(1)}]

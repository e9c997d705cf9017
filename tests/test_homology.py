import random
from collections import Counter
from fractions import Fraction

import pytest

from swcohom.combinat import Composition, compositions, union
from swcohom.linalg import SparseMatrix, Subspace, add_scaled, kernel_basis, subspace_intersect
from swcohom.homology import (
    SnModule,
    centralizer,
    commutant,
    cubic_cohomology,
    cubic_invariants_diagram,
    deformation_cohomology_truncated,
    deformation_complex_truncated,
    first_cohomology_direct,
    horizontal_cohomology,
    random_module,
    reduced_complex,
    relative_cube_dims,
    top_quotient,
)
from swcohom.sequences import (
    CommutativeAlgebraSpec,
    HeckeSequence,
    SkewGroupSequence,
    SymmetricGroupSequence,
)
from swcohom.symgrp import e_element, identity, young_positions


@pytest.fixture(scope="module")
def sym():
    return SymmetricGroupSequence()


@pytest.fixture(scope="module")
def skew():
    return SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))


@pytest.fixture(scope="module")
def hecke():
    return HeckeSequence(trunc_degree=3, level_cap=3)


# -- centralizers ---------------------------------------------------------------


def test_symmetric_centralizer_dims(sym):
    assert centralizer(sym, Composition((3,))).dim == 3       # the centre
    assert centralizer(sym, Composition((1, 1, 1))).dim == 6  # everything
    assert centralizer(sym, Composition((2, 1))).dim == 4


@pytest.mark.parametrize("name, max_n", [("sym", 5), ("skew", 4), ("hecke", 3)])
def test_centralizer_two_routes_agree(request, name, max_n):
    # the Young-fixed part of C(1^n) against the commutant on all of A_n
    seq = request.getfixturevalue(name)
    for n in range(1, max_n + 1):
        full = Subspace.full(seq.dim(n))
        for comp in compositions(n):
            reference = commutant(seq, n, seq.subalgebra_generators(comp), full)
            assert centralizer(seq, comp) == reference, comp


def test_full_algebra_commutant_solved_once_per_level(monkeypatch):
    # every coarser composition starts from C(1^n), so the commutant on all
    # of A_n is solved once per level, not once per composition (15 here)
    import swcohom.homology as homology

    solved = []
    inner = homology.commutant

    def counting(seq, n, gens, space):
        if space.dim == seq.dim(n):
            solved.append(n)
        return inner(seq, n, gens, space)

    monkeypatch.setattr(homology, "commutant", counting)
    seq = SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))
    reduced_complex(seq, 4)
    deformation_complex_truncated(seq, 4)
    assert solved == [1, 2, 3, 4]


@pytest.mark.parametrize("name", ["sym", "skew", "hecke"])
def test_label_conjugation_is_an_involutive_permutation(request, name):
    seq = request.getfixturevalue(name)
    for n in range(2, 4):
        for i in range(1, n):
            perm = seq.label_conjugation(n, i)
            if name == "hecke":
                assert perm is None
                continue
            assert sorted(perm) == list(range(seq.dim(n)))
            assert all(perm[perm[k]] == k for k in range(len(perm)))


def brute_force_commutant(seq, n, gens):
    """Dense oracle: solve [g, a] = 0 by elimination on the full table."""
    dim = seq.dim(n)
    rows = []
    for g in gens:
        mats = seq.left_mult_matrix(n, g), seq.right_mult_matrix(n, g)
        for j in range(dim):
            row = {}
            for (i, jj), v in mats[0].entries.items():
                if jj == j:
                    row[i] = row.get(i, 0) + v
            for (i, jj), v in mats[1].entries.items():
                if jj == j:
                    row[i] = row.get(i, 0) - v
            rows.append(row)
    # transpose the per-column conditions into one linear system
    per_gen = len(rows) // max(len(gens), 1)
    system = []
    for gi, g in enumerate(gens):
        block = rows[gi * per_gen:(gi + 1) * per_gen]
        for out_coord in range(dim):
            cond = {}
            for j, row in enumerate(block):
                if out_coord in row:
                    cond[j] = row[out_coord]
            if cond:
                system.append(cond)
    return kernel_basis(SparseMatrix.from_row_dicts(system, dim))


def test_skew_centralizer_against_dense_oracle(skew):
    # the tensor square of Q[x]/(x^2-2) has zero divisors, so the centralizer
    # is strictly larger than the symmetric-power slice; the value is frozen
    # from the independent dense commutant oracle
    comp = Composition((2,))
    gens = skew.subalgebra_generators(comp)
    oracle = brute_force_commutant(skew, 2, gens)
    got = centralizer(skew, comp)
    assert got == oracle
    assert got.dim == 5
    assert centralizer(skew, Composition((1, 1))).dim == 6


def test_skew_centralizer_contains_symmetric_powers(skew):
    # S^2(A) inside the centre: 1(x)1, x(x)1 + 1(x)x, x(x)x all commute
    c2 = centralizer(skew, Composition((2,)))
    pid = identity(2)
    idx = skew.index_of(2)
    sym_vectors = [
        {idx[((0, 0), pid)]: Fraction(1)},
        {idx[((1, 0), pid)]: Fraction(1), idx[((0, 1), pid)]: Fraction(1)},
        {idx[((1, 1), pid)]: Fraction(1)},
    ]
    for v in sym_vectors:
        assert c2.contains(v)


def test_hecke_centralizer_bernstein(hecke):
    # box-truncated symmetric-power counts (every exponent <= D)
    from itertools import product as iproduct
    D = hecke.trunc_degree
    for n in range(1, 4):
        for comp in compositions(n):
            expected = 1
            for p in comp.parts:
                expected *= sum(1 for mono in iproduct(range(D + 1), repeat=p)
                                if all(mono[i] >= mono[i + 1] for i in range(p - 1)))
            assert centralizer(hecke, comp).dim == expected, comp


def test_join_property_all_sequences(sym, skew, hecke):
    for seq, max_w in ((sym, 4), (skew, 3), (hecke, 3)):
        for w in range(2, max_w + 1):
            comps = compositions(w)
            for lam in comps:
                for mu in comps:
                    lhs = subspace_intersect(centralizer(seq, lam),
                                             centralizer(seq, mu))
                    rhs = centralizer(seq, union(lam, mu))
                    assert lhs == rhs, (seq.seq_id, lam.parts, mu.parts)


# -- cubic diagrams ---------------------------------------------------------------


def test_cubic_trivial_and_sign():
    triv = cubic_invariants_diagram(SnModule.trivial(3))
    for comp in compositions(3):
        assert triv.space(comp).dim == 1
    sgn = cubic_invariants_diagram(SnModule.sign(2))
    assert sgn.space(Composition((2,))).dim == 0
    assert sgn.space(Composition((1, 1))).dim == 1
    assert cubic_cohomology(sgn) == {0: 0, 1: 1}


def test_cubic_regular_s3():
    diagram = cubic_invariants_diagram(SnModule.regular(3))
    assert diagram.space(Composition((2, 1))).dim == 3
    assert cubic_cohomology(diagram) == {0: 0, 1: 0, 2: 1}


def test_top_quotient_examples():
    assert top_quotient(SnModule.sign(2)) == 1
    assert top_quotient(SnModule.regular(4)) == 1
    # tensor square of a 2-dim abelian Lie algebra: quotient is the wedge
    swap = SparseMatrix(4, 4, {(0, 0): Fraction(1), (3, 3): Fraction(1),
                               (1, 2): Fraction(1), (2, 1): Fraction(1)})
    M = SnModule(2, 4, [swap])
    assert top_quotient(M) == 1
    # trivial rep: (1 + t_i) acts as 2, invertible
    assert top_quotient(SnModule.trivial(4)) == 0


def test_bad_module_rejected():
    bad = SparseMatrix(2, 2, {(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        SnModule(2, 2, [bad])


def test_cubic_acyclicity_random_modules():
    rng = random.Random(2026)
    print("cubic acyclicity seed: 2026")
    for _ in range(8):
        n = rng.randint(2, 4)
        M = random_module(n, rng)
        dims = cubic_cohomology(cubic_invariants_diagram(M))
        for d in range(n - 1):
            assert dims[d] == 0, (M.name, dims)
        assert dims[n - 1] == top_quotient(M)


def _kernel_vertex(module, comp):
    # the solve route: the kernel of the stacked t_i - 1 over comp's Young generators
    diagonal = SparseMatrix.identity(module.dim).entries
    mats = [SparseMatrix(module.dim, module.dim,
                         add_scaled(dict(module.gens[i - 1].entries), diagonal, -1))
            for i in young_positions(comp)]
    return kernel_basis(SparseMatrix.vstack(mats) if mats
                        else SparseMatrix(0, module.dim))


@pytest.mark.parametrize("module", [
    *(SnModule.natural(n) for n in range(1, 6)),
    SnModule.regular(3),
    SnModule.regular(4),
    SnModule.natural(3).tensor(SnModule.natural(3)),
    SnModule.natural(4).direct_sum(SnModule.trivial(4)),
], ids=lambda m: "%s-%d" % (m.name, m.n))
def test_orbit_vertices_match_the_kernel_route(module):
    diagram = cubic_invariants_diagram(module)
    for comp in compositions(module.n):
        reference = _kernel_vertex(module, comp)
        assert diagram.space(comp) == reference, comp
        assert diagram.space(comp).basis() == reference.basis(), comp


def test_as_permutation_accepts_only_permutation_matrices():
    import swcohom.homology as homology

    assert [homology._as_permutation(T) for T in SnModule.natural(3).gens] == [
        [1, 0, 2], [0, 2, 1]]
    assert homology._as_permutation(SnModule.sign(2).gens[0]) is None
    rejected = [
        SparseMatrix(2, 2, {(0, 1): 2, (1, 0): 1}),           # holds a 2
        SparseMatrix(2, 2, {(0, 1): 1, (1, 0): -1}),          # signed permutation
        SparseMatrix(2, 3, {(0, 0): 1, (1, 1): 1}),           # not square
        SparseMatrix(3, 2, {(0, 0): 1, (1, 1): 1}),           # not square
        SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1}),           # two columns to one row
    ]
    for T in rejected:
        assert homology._as_permutation(T) is None, T.entries


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_permutation_modules_solve_no_kernel(monkeypatch):
    import swcohom.homology as homology

    calls = _count_calls(monkeypatch, homology, "kernel_basis")
    cubic_invariants_diagram(SnModule.regular(5))
    assert calls == []
    # a sign generator is no permutation: one kernel per vertex with Young generators
    cubic_invariants_diagram(SnModule.sign(4))
    assert len(calls) == sum(1 for c in compositions(4) if young_positions(c))


def test_faces_resolved_once_per_composition(monkeypatch):
    import swcohom.homology as homology

    diagram = cubic_invariants_diagram(SnModule.regular(4))
    calls = _count_calls(monkeypatch, homology, "subdivisions")
    homology.cubic_complex(diagram)
    per_comp = Counter(comp.parts for (comp,) in calls)
    assert per_comp and max(per_comp.values()) == 1
    calls.clear()
    deformation_complex_truncated(SymmetricGroupSequence(), 4)
    per_comp = Counter(comp.parts for (comp,) in calls)
    assert per_comp and max(per_comp.values()) == 1


# -- horizontal complexes ----------------------------------------------------------


def test_horizontal_symmetric(sym):
    assert horizontal_cohomology(sym, 2) == {1: 0, 2: 0}
    assert horizontal_cohomology(sym, 3) == {1: 0, 2: 0, 3: 1}


def test_horizontal_skew(skew):
    dims = horizontal_cohomology(skew, 2)
    assert dims[2] == 1  # the wedge square of a 2-dim algebra
    assert dims[1] == 0


def test_horizontal_hecke(hecke):
    dims = horizontal_cohomology(hecke, 2)
    assert dims == {1: 0, 2: 6}  # binom(D+1, 2) at D = 3


# -- the truncated full complex ------------------------------------------------------


def test_truncated_symmetric_w4(sym):
    tr = deformation_cohomology_truncated(sym, 4)
    assert [tr.dims[d] for d in range(1, 4)] == [1, 0, 1]
    assert tr.is_final(3) and not tr.is_final(4)


def test_truncated_complex_structure(sym):
    cx = deformation_complex_truncated(sym, 3)
    # degree 1 holds the three centres, degree 3 only Q[S_3]
    assert cx.dims[1] == 1 + 2 + 3
    assert cx.dims[3] == 6


# -- the reduced complex ---------------------------------------------------------------


def test_reduced_symmetric_p6(sym):
    data = reduced_complex(sym, 6)
    assert [data.t_dims[w] for w in range(1, 7)] == [1, 0, 1, 1, 1, 1]
    assert [data.h_dims[w] for w in range(1, 7)] == [1, 0, 1, 1, 1, 1]
    for w in range(1, 6):
        if data.diffs.get(w) is not None:
            assert data.diffs[w].is_zero()


def test_both_proofs_of_vanishing_delta_agree(sym):
    # the dual proof (sign-twisted class functions one weight up) and the
    # matrix route (representatives of T_w and T_{w+1}) overlap at w <= 5
    for w in range(1, 8):
        assert sym.delta_vanishes_dually(w), w
    data = reduced_complex(sym, 5)
    for w in range(1, 6):
        assert data.diff_status[w] in ("matrix", "source-zero"), w
        assert data.diffs[w] is None or data.diffs[w].is_zero(), w


def test_reduced_skew_cross_route(skew):
    # honest values for Q[x]/(x^2-2): the oracle is the independently built
    # truncated full complex, which must agree in degrees <= W-1
    red = reduced_complex(skew, 4).h_dims
    tr = deformation_cohomology_truncated(skew, 4)
    for d in range(1, 4):
        assert red[d] == tr.dims[d], d
    assert [red[w] for w in (1, 2, 3)] == [2, 1, 2]


def test_reduced_symmetric_cross_route(sym):
    red = reduced_complex(sym, 5).h_dims
    tr = deformation_cohomology_truncated(sym, 5)
    for d in range(1, 5):
        assert red[d] == tr.dims[d], d


def test_reduced_hecke(hecke):
    data = reduced_complex(hecke, 3)
    assert [data.t_dims[w] for w in (1, 2, 3)] == [4, 6, 4]
    for w in (1, 2):
        assert data.diff_status[w] == "matrix"
        assert data.diffs[w].is_zero()


@pytest.mark.parametrize("D", [1, 2, 3])
def test_reduced_hecke_wedge_dims_all_truncations(D):
    seq = HeckeSequence(trunc_degree=D, level_cap=3)
    data = reduced_complex(seq, 3)
    from math import comb
    for w in (1, 2, 3):
        assert data.t_dims[w] == comb(D + 1, w), (D, w)
        if data.diffs.get(w) is not None:
            assert data.diffs[w].is_zero()


@pytest.mark.parametrize("D", [1, 2])
def test_reduced_hecke_cross_route(D):
    seq = HeckeSequence(trunc_degree=D, level_cap=3)
    tr = deformation_cohomology_truncated(seq, 3)
    red = reduced_complex(seq, 3).h_dims
    for d in range(1, 4):
        assert tr.dims[d] == red[d], (D, d)


def test_horizontal_complex_representatives(sym):
    from swcohom.homology import centralizer_diagram, cubic_complex
    cx = cubic_complex(centralizer_diagram(sym, 3))
    dims, reps = cx.cohomology()
    assert dims == {0: 0, 1: 0, 2: 1}
    assert len(reps[2]) == 1


def test_reduced_symmetric_p9_annotated_edge(sym):
    from swcohom.combinat import distinct_odd_partition_series
    data = reduced_complex(sym, 9)
    series = distinct_odd_partition_series(9)
    assert [data.t_dims[w] for w in range(1, 10)] == series[1:]
    assert data.final[8] is True
    assert data.final[9] is False  # outgoing differential beyond the sweep cap
    assert data.diff_status[9] == "not-computed"


def test_first_cohomology_direct(sym, skew, hecke):
    assert first_cohomology_direct(sym)[0] == 1
    assert first_cohomology_direct(skew)[0] == 2
    assert first_cohomology_direct(hecke)[0] == 4
    # agreement with the reduced complex at weight 1
    assert reduced_complex(sym, 1).h_dims[1] == 1
    assert reduced_complex(skew, 1).h_dims[1] == 2


def test_cup_products_symmetric(sym):
    data = reduced_complex(sym, 4)
    e1 = e_element(1)
    e3 = e_element(3)
    assert data.cup(1, 1, e1, e1) == []          # T_2 = 0
    c13 = data.cup(1, 3, e1, e3)
    assert any(c13)                              # e1.e3 spans H^4
    # graded commutativity: u.v = (-1)^{mn} v.u on classes
    c31 = data.cup(3, 1, e3, e1)
    assert c13 == [(-1) ** (1 * 3) * x for x in c31]


def test_cup_antisymmetry_skew(skew):
    data = reduced_complex(skew, 2)
    _, basis = first_cohomology_direct(skew)
    for a in basis:
        for b in basis:
            ab = data.cup(1, 1, a, b)
            ba = data.cup(1, 1, b, a)
            assert all(x + y == 0 for x, y in zip(ab, ba))
    # surjectivity of the pairing onto T_2
    span = set()
    for a in basis:
        for b in basis:
            c = tuple(data.cup(1, 1, a, b))
            if any(c):
                span.add(c)
    assert span, "cup pairing misses T_2"


def test_reduced_differential_formula_matches_first_page(sym):
    # the truncated full complex and the reduced complex are independent
    # constructions; their agreement (test_reduced_symmetric_cross_route)
    # pins the chain-level signs.  Here: a deliberate wrong sign breaks d.d=0.
    cx = deformation_complex_truncated(sym, 3)
    d1, d2 = cx.differentials[1], cx.differentials[2]
    assert d2.matmul(d1).is_zero()
    flipped = SparseMatrix(d1.rows, d1.cols,
                           {k: -v if k[0] < d1.rows // 2 else v
                            for k, v in d1.entries.items()})
    assert not d2.matmul(flipped).is_zero()


# -- simplicial cube ---------------------------------------------------------------


def test_relative_cube_small():
    counts, expected, agree = relative_cube_dims(2)
    assert counts == {1: 1, 2: 2} and agree
    counts, expected, agree = relative_cube_dims(1)
    assert counts == {1: 1} and agree


def test_relative_cube_up_to_five():
    for n in range(1, 6):
        _, _, agree = relative_cube_dims(n)
        assert agree, n

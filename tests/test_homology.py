import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from swcohom import CrossCheckError, ResourceLimitError
from swcohom.combinat import Composition, compositions, subdivisions, union
from swcohom.linalg import (
    CochainComplex,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    add_scaled,
    combination,
    divided,
    kernel_basis,
    rank,
    subspace_intersect,
)
from swcohom.homology import (
    SnModule,
    annihilated,
    centralizer,
    cubic_cohomology,
    cubic_complex,
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
            reference = annihilated(full, [partial(seq.commutators, n, g)
                                           for g in seq.subalgebra_generators(comp)])
            assert centralizer(seq, comp) == reference, comp


def test_full_algebra_commutant_solved_once_per_level(monkeypatch):
    # every coarser composition starts from C(1^n), so the commutant on all
    # of A_n is solved once per level, not once per composition (15 here)
    import swcohom.homology as homology

    solved = []
    inner = homology.annihilated

    def counting(space, maps):
        if space.dim == space.ambient_dim:
            solved.append(space.dim)
        return inner(space, maps)

    monkeypatch.setattr(homology, "annihilated", counting)
    seq = SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))
    reduced_complex(seq, 4)
    deformation_complex_truncated(seq, 4)
    assert solved == [seq.dim(n) for n in (1, 2, 3, 4)]


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


def mult_matrix(seq, n, u, side):
    """Left (``side`` "left") or right multiplication by the element ``u`` on
    A_n, as a matrix on basis indices built from ``seq.multiply``."""
    idx = seq.index_of(n)
    ent = {}
    for j, label in enumerate(seq.basis(n)):
        a, b = (u, {label: 1}) if side == "left" else ({label: 1}, u)
        prod = seq.multiply(n, a, b)
        for l, c in prod.items():
            ent[(idx[l], j)] = c
    return SparseMatrix(seq.dim(n), seq.dim(n), ent)


def brute_force_commutant(seq, n, gens):
    """Dense oracle: solve [g, a] = 0 by elimination on the full table."""
    dim = seq.dim(n)
    rows = []
    for g in gens:
        mats = mult_matrix(seq, n, g, "left"), mult_matrix(seq, n, g, "right")
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


@pytest.mark.parametrize("c", [2, 0], ids=["x2-2", "x-nilpotent"])
def test_skew_centralizers_at_three_against_dense_oracle(c):
    # C(1^3) comes from the slot-insertion commutators, the coarser ones from
    # its Young averages; the oracle multiplies every basis element by seq.multiply
    seq = SkewGroupSequence(CommutativeAlgebraSpec.quadratic(c))
    for comp in compositions(3):
        oracle = brute_force_commutant(seq, 3, seq.subalgebra_generators(comp))
        got = centralizer(seq, comp)
        assert got.dim == oracle.dim and got == oracle, comp


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
        assert triv[comp.parts].dim == 1
    sgn = cubic_invariants_diagram(SnModule.sign(2))
    assert sgn[(2,)].dim == 0
    assert sgn[(1, 1)].dim == 1
    assert cubic_cohomology(sgn) == {0: 0, 1: 1}


def test_cubic_regular_s3():
    diagram = cubic_invariants_diagram(SnModule.regular(3))
    assert diagram[(2, 1)].dim == 3
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


def _top_quotient_by_rank(module):
    # the reference: dim M minus the rank of the 1 + t_i side by side
    diagonal = SparseMatrix.identity(module.dim).entries
    ent = {(i, b * module.dim + j): v for b, T in enumerate(module.gens)
           for (i, j), v in add_scaled(dict(T.entries), diagonal).items()}
    return module.dim - rank(SparseMatrix(module.dim, module.dim * len(module.gens), ent))


def _swap_module():
    # Q^2 (x) Q^2 with t_1 swapping the tensor factors: fixes e_00 and e_11
    return SnModule(2, 4, [SparseMatrix.permutation([0, 2, 1, 3])])


def _permutation_modules():
    mods = [_swap_module(), _swap_module().direct_sum(SnModule.natural(2))]
    for n in range(1, 6):
        natural = SnModule.natural(n)
        mods += [SnModule.trivial(n), natural, natural.tensor(natural), SnModule.regular(n),
                 natural.direct_sum(SnModule.regular(n)),
                 SnModule.regular(n).direct_sum(SnModule.trivial(n))]
    return mods


def test_a_permutation_module_counts_its_top_quotient_without_a_rank(monkeypatch):
    import swcohom.homology as homology

    mods = _permutation_modules()
    expected = [_top_quotient_by_rank(M) for M in mods]

    def refuse(M):
        raise AssertionError("a permutation module reached rank")

    monkeypatch.setattr(homology, "rank", refuse)
    assert all(None not in M.perms for M in mods)
    assert [top_quotient(M) for M in mods] == expected
    by_name = {(M.name, M.n): q for M, q in zip(mods, expected)}
    # a fixed point is an odd loop: (1 + t) is invertible there
    assert [by_name[("triv", n)] for n in range(1, 6)] == [1, 0, 0, 0, 0]
    assert [by_name[("regular", n)] for n in range(1, 6)] == [1, 1, 1, 1, 1]
    assert [by_name[("perm", n)] for n in range(1, 6)] == [1, 1, 0, 0, 0]
    assert expected[:2] == [1, 2]   # the swap module: its wedge, then plus one more


def test_any_other_module_is_ranked(monkeypatch):
    import swcohom.homology as homology

    rng = random.Random(31)
    mods = [SnModule.sign(n) for n in range(2, 6)]
    mods += [SnModule.natural(3).direct_sum(SnModule.sign(3)),
             SnModule.sign(4).tensor(SnModule.regular(4))]
    while len(mods) < 12:
        M = random_module(rng.randint(2, 4), rng)
        if None in M.perms:
            mods.append(M)
    calls = []

    def recording(A):
        calls.append(A)
        return rank(A)

    monkeypatch.setattr(homology, "rank", recording)
    for M in mods:
        before = len(calls)
        assert top_quotient(M) == _top_quotient_by_rank(M), M.name
        assert len(calls) == before + 1, M.name
    assert [top_quotient(SnModule.sign(n)) for n in range(2, 6)] == [1, 1, 1, 1]


def test_bad_module_rejected():
    bad = SparseMatrix(2, 2, {(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        SnModule(2, 2, [bad])


def _permutation_matrix(*images, sign_block=False):
    # sends index j to images[j]; a trailing -1 block makes it no permutation
    ent = {(i, j): 1 for j, i in enumerate(images)}
    if sign_block:
        ent[(len(images), len(images))] = -1
    size = len(images) + sign_block
    return SparseMatrix(size, size, ent)


@pytest.mark.parametrize("n, images, message", [
    (2, [(1, 2, 0)], "t_1 is not an involution"),                        # a 3-cycle
    (3, [(1, 0, 2, 3), (0, 1, 3, 2)], "braid relation fails at 1"),        # (0 1), (2 3)
    (4, [(1, 0, 2), (1, 0, 2), (0, 2, 1)], "t_1, t_3 do not commute"),     # t_1 = t_2
], ids=["involution", "braid", "commutation"])
def test_permutation_presentations_fail_as_matrices_do(monkeypatch, n, images, message):
    # the same relation fails with the same message on the index path (no
    # matrix product) and, with a sign block added, on the matrix path
    products = _count_calls(monkeypatch, SparseMatrix, "matmul")
    with pytest.raises(ValueError, match="^%s$" % message):
        SnModule(n, len(images[0]), [_permutation_matrix(*p) for p in images])
    assert products == []
    with pytest.raises(ValueError, match="^%s$" % message):
        SnModule(n, len(images[0]) + 1,
                 [_permutation_matrix(*p, sign_block=True) for p in images])
    assert products


@pytest.mark.parametrize("module", [
    SnModule.regular(4),
    SnModule.natural(5),
    SnModule.trivial(3),
    SnModule.natural(3).tensor(SnModule.regular(3)),
    SnModule.natural(4).direct_sum(SnModule.trivial(4)),
    SnModule.regular(3).direct_sum(SnModule.natural(3).tensor(SnModule.natural(3))),
], ids=lambda m: "%s-%d" % (m.name, m.n))
def test_permutation_modules_keep_their_index_maps(module):
    assert len(module.perms) == module.n - 1
    for T, perm in zip(module.gens, module.perms):
        assert T.entries == {(i, j): 1 for j, i in enumerate(perm)}


def test_a_signed_generator_has_no_index_map():
    assert SnModule.sign(2).perms == [None]
    assert SnModule.natural(3).direct_sum(SnModule.sign(3)).perms == [None, None]


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
    positions = young_positions(comp)
    ent = {(b * module.dim + i, j): v for b, p in enumerate(positions)
           for (i, j), v in add_scaled(dict(module.gens[p - 1].entries), diagonal, -1).items()}
    return kernel_basis(SparseMatrix(module.dim * len(positions), module.dim, ent))


@pytest.mark.parametrize("module", [
    *(SnModule.natural(n) for n in range(1, 6)),
    SnModule.regular(3),
    SnModule.regular(4),
    SnModule.natural(3).tensor(SnModule.natural(3)),
    SnModule.natural(4).direct_sum(SnModule.trivial(4)),
    # no permutation modules: their vertices take the solve branch
    SnModule.sign(3),
    SnModule.natural(3).direct_sum(SnModule.sign(3)),
    random_module(4, random.Random(5)),
    random_module(4, random.Random(9)),
], ids=lambda m: "%s-%d" % (m.name, m.n))
def test_orbit_vertices_match_the_kernel_route(module):
    diagram = cubic_invariants_diagram(module)
    for comp in compositions(module.n):
        reference = _kernel_vertex(module, comp)
        assert diagram[comp.parts] == reference, comp
        assert diagram[comp.parts].basis() == reference.basis(), comp


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


def test_containment_failure_names_both_vertices(monkeypatch):
    import swcohom.linalg as linalg

    # C(2) = Q^2 does not lie inside C(1, 1) = span{e_0}, whether that target
    # was eliminated (one residue per face of e_0 and e_1) or adopted from
    # indicators (found by lookup, with no residue)
    residues = _count_calls(monkeypatch, linalg.Echelon, "_residue")
    for target, eliminations in ((Subspace.from_vectors([{0: 1}], 2), 2),
                                 (Subspace.from_indicators([[0]], 2), 0)):
        residues.clear()
        diagram = {(2,): Subspace.full(2), (1, 1): target}
        with pytest.raises(CrossCheckError,
                           match=r"^face \(2,\) -> \(1, 1\) leaves its target$"):
            cubic_cohomology(diagram)
        assert len(residues) == eliminations


def test_each_face_membership_is_tested_once(monkeypatch):
    # the cube of S_4's regular rep: every vertex is adopted from orbit
    # indicators, and one block lookup per (source vertex, refinement face)
    # proves both the containment and the coordinates of all its rows, with
    # no elimination and no per-row ``coords_of``
    import swcohom.linalg as linalg

    inserts = _count_calls(monkeypatch, linalg.Echelon, "insert")
    residues = _count_calls(monkeypatch, linalg.Echelon, "_residue")
    coords = _count_calls(monkeypatch, linalg.Subspace, "coords_of")
    blocks = _count_calls(monkeypatch, linalg.Subspace, "image_coords")
    diagram = cubic_invariants_diagram(SnModule.regular(4))
    assert cubic_cohomology(diagram) == {0: 0, 1: 0, 2: 0, 3: 1}
    assert inserts == [] and residues == [] and coords == []
    vertex_of = {id(space): comp for comp, space in diagram.items()}
    looked_up = Counter((vertex_of[id(source)], vertex_of[id(target)])
                        for target, source, *_ in blocks)
    assert looked_up == Counter((lam, mu) for lam in compositions(4)
                                for _, mu in subdivisions(lam))


def test_face_divides_the_image_of_an_integral_row():
    import swcohom.homology as homology

    # the source is span{(1, 1/2)}, stored as the integral row 2 e0 + e1 (d = 2);
    # the face sends e0 -> f0 + f1 and e1 -> 3 f2 into T = span{f0 + f1, f2},
    # so (1, 1/2) -> (1, 1, 3/2) = 1 (f0 + f1) + 3/2 f2, negated by the sign
    spaces = {"s": Subspace.from_vectors([{0: 2, 1: 1}], 2),
              "t": Subspace.from_vectors([{0: 1, 1: 1}, {2: 1}], 3)}
    assert spaces["s"].integral_rows() == [({0: 2, 1: 1}, 2)]
    faces = {"s": [(-1, "t", [{0: 1, 1: 1}, {2: 3}])], "t": []}
    cx = homology._face_complex([["s"], ["t"]], spaces.__getitem__, faces.__getitem__)
    assert cx.dims == [1, 2]
    assert cx.differentials[0].entries == {(0, 0): -1, (1, 0): Fraction(-3, 2)}


def _per_row_differentials(layout, space, faces):
    """The face assembly one source row at a time, kept as the reference: one
    ``coords_of`` per (source row, face), divided by the row's pivot value and
    added in as {(row, col): coefficient} entries."""
    offsets, dims = {}, []
    for keys in layout:
        off = 0
        for key in keys:
            offsets[key] = off
            off += space(key).dim
        dims.append(off)
    out = []
    for k in range(len(layout) - 1):
        ent = {}
        for key in layout[k]:
            col = offsets[key]
            for vec, d in space(key).integral_rows():
                for sign, target, index_map in faces(key):
                    image = vec if index_map is None else combination(index_map, vec)
                    coords = divided(space(target).coords_of(image), d)
                    add_scaled(ent, {(offsets[target] + r, col): c
                                     for r, c in coords.items()}, sign)
                col += 1
        out.append(ent)
    return out


@pytest.mark.parametrize("build", [
    lambda: cubic_complex(cubic_invariants_diagram(SnModule.regular(4))),
    lambda: cubic_complex(cubic_invariants_diagram(SnModule.regular(5))),
    lambda: deformation_complex_truncated(SymmetricGroupSequence(), 5),
    lambda: reduced_complex(SymmetricGroupSequence(), 5),
    lambda: deformation_complex_truncated(
        SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2)), 3),
    lambda: reduced_complex(_StubSequence(), 1),
], ids=["regular-4", "regular-5", "symmetric-W5", "symmetric-reduced-5", "skew-W3",
        "stub-reduced"])
def test_face_blocks_match_the_per_row_assembly(monkeypatch, build):
    # every complex built while ``build`` runs, entry by entry against the
    # per-row reference on the same layout, spaces and faces
    import swcohom.homology as homology

    built = []
    face_complex = homology._face_complex

    def recording(layout, space, faces):
        cx = face_complex(layout, space, faces)
        built.append((cx, _per_row_differentials(layout, space, faces)))
        return cx

    monkeypatch.setattr(homology, "_face_complex", recording)
    build()
    assert built
    for cx, reference in built:
        assert [d.entries for d in cx.differentials] == reference


def _one_face(source, target, index_map):
    spaces = {"s": source, "t": target}
    return [["s"], ["t"]], spaces.__getitem__, {"s": [(1, "t", index_map)], "t": []}.__getitem__


@pytest.mark.parametrize("source, target, index_map", [
    ([[0], [1]], [[0, 1]], None),             # target orbit {0, 1} straddles {0} and {1}
    ([[0]], [[0, 1]], None),                  # {0, 1} is met at its head, but not covered
    ([[0], [2]], [[0, 1], [2]], None),        # the same beside a covered orbit
    ([[0, 1]], [[0, 1], [2]], [{1: 1}, {2: 1}, {0: 1}]),    # {0, 1} -> {1, 2}
    ([[0, 1]], [[0]], None),                  # index 1 lies in no target orbit
])
def test_an_orbit_face_that_leaves_its_target_is_refused(source, target, index_map):
    import swcohom.homology as homology

    face = _one_face(Subspace.from_indicators(source, 3),
                     Subspace.from_indicators(target, 3), index_map)
    with pytest.raises(CrossCheckError, match=r"^face 's' -> 't' leaves its target$"):
        homology._face_complex(*face)
    with pytest.raises(ValueError, match="^vector not in subspace$"):
        _per_row_differentials(*face)


@pytest.mark.parametrize("source, target, index_map, entries", [
    # not injective: 0 and 1 both go to 0
    ([[0, 1], [2]], [[0], [1]], [{0: 1}, {0: 1}, {1: 1}], {(0, 0): 2, (1, 1): 1}),
    # a two-term image: 0 -> f0 + f1
    ([[0], [1, 2]], [[0, 1], [2, 3]], [{0: 1, 1: 1}, {2: 1}, {3: 1}], {(0, 0): 1, (1, 1): 1}),
    # a coefficient other than 1
    ([[0], [1]], [[0], [1]], [{0: 2}, {1: 1}], {(0, 0): 2, (1, 1): 1}),
], ids=["not-injective", "two-terms", "coefficient-2"])
def test_other_orbit_faces_take_the_per_row_route(monkeypatch, source, target, index_map,
                                                  entries):
    import swcohom.homology as homology
    import swcohom.linalg as linalg

    face = _one_face(Subspace.from_indicators(source, 3),
                     Subspace.from_indicators(target, 4), index_map)
    coords = _count_calls(monkeypatch, linalg.Subspace, "coords_of")
    cx = homology._face_complex(*face)
    assert len(coords) == len(source)
    assert [d.entries for d in cx.differentials] == _per_row_differentials(*face) == [entries]


@pytest.mark.parametrize("k", [0, 1])
def test_dd_is_checked_on_every_column(k):
    # the cube of S_4's regular rep from degree k on, after zero spaces below
    # k: a flipped entry in the last column of d_k alone leaves every other
    # product zero, and the constructor must still refuse it; d_1 has 14
    # columns, so a check of the first column alone would pass it
    cx = cubic_complex(cubic_invariants_diagram(SnModule.regular(4)))
    assert len(cx.columns[1]) == 14
    dims = [0] * k + cx.dims[k:]
    columns = [[] for _ in range(k)] + [list(cols) for cols in cx.columns[k:]]
    CochainComplex(dims, columns)
    last = columns[k][-1]
    i = next(i for i in last if columns[k + 1][i])
    columns[k][-1] = {**last, i: -last[i]}
    with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees %d and %d$" % (k, k + 2)):
        CochainComplex(dims, columns)


# -- horizontal complexes ----------------------------------------------------------


def cohomology_with_representatives(cx):
    """(H^k dims, H^k representatives) of ``cx``: kernels modulo images, degree
    by degree, kept as the reference for ``cohomology_dims``."""
    dims, reps = {}, {}
    diffs = cx.differentials
    for k, dim in enumerate(cx.dims):
        ker = kernel_basis(diffs[k]) if k < len(diffs) else Subspace.full(dim)
        img = (Subspace.from_vectors(diffs[k - 1].col_dicts(), dim) if k
               else Subspace.zero(dim))
        quot = QuotientSpace(ker, img)
        dims[k], reps[k] = quot.dim, quot.basis()
    assert sum((-1) ** k * h for k, h in dims.items()) \
        == sum((-1) ** k * c for k, c in enumerate(cx.dims))
    return dims, reps


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


class _StubSequence:
    """T_1 = span{2 e0 + e1} and T_2 = Q^3 / span{e2}, with unit pairings
    e0 -> e0, e1 -> e1 on the left and e0 -> e1, e1 -> e2 on the right."""

    matrix_cap = 2
    seq_id = "stub"

    def __init__(self):
        self.centralizer_cache = {
            (1,): Subspace.from_vectors([{0: 2, 1: 1}], 2),   # pivot value 2
            (1, 1): Subspace.full(3),
            (2,): Subspace.from_vectors([{2: 1}], 3),
        }

    def dim(self, n):
        return n + 1

    def unit_pairing(self, m, w, side):
        return [{0: 1}, {1: 1}] if side == "left" else [{1: 1}, {2: 1}]

    def delta_vanishes_dually(self, w):
        return False


def test_reduced_differential_nonzero_on_a_stub():
    # delta(2 e0 + e1) = (2 e0 + e1) + (2 e1 + e2) = 2 e0 + 3 e1 mod e2, and the
    # source row is twice the RREF basis row: a missing / d would read 2, 3,
    # a wrong right-face sign 1, -1/2
    data = reduced_complex(_StubSequence(), 1)
    assert data.t_dims == {1: 1, 2: 2}
    assert data.h_dims == {1: 0}
    assert data.diff_status[1] == "matrix"
    assert data.diffs[1].entries == {(0, 0): 1, (1, 0): Fraction(3, 2)}


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
    from swcohom.homology import centralizer_diagram
    cx = cubic_complex(centralizer_diagram(sym, 3))
    dims, reps = cohomology_with_representatives(cx)
    assert dims == cx.cohomology_dims() == {0: 0, 1: 0, 2: 1}
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


@pytest.mark.parametrize("name, dim", [("sym", 1), ("skew", 2), ("hecke", 4)])
def test_first_cohomology_direct_basis_meets_its_definition(request, name, dim):
    # H^1 = {a in C(1) with mu(a, 1) + mu(1, a) in C(2)}, whatever basis is returned
    seq = request.getfixturevalue(name)
    count, basis = first_cohomology_direct(seq)
    assert count == len(basis) == dim
    z1, z2 = centralizer(seq, Composition((1,))), centralizer(seq, Composition((2,)))
    one = seq.one(1)
    vecs = [seq.element_to_vec(1, a) for a in basis]
    for a, vec in zip(basis, vecs):
        assert z1.contains(vec)
        s = add_scaled(seq.mu(1, 1, a, one), seq.mu(1, 1, one, a))
        assert z2.contains(seq.element_to_vec(2, s))
    assert Subspace.from_vectors(vecs, seq.dim(1)).dim == dim


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
    # the truncated full complex and the reduced complex share the face-complex
    # assembler but not their spaces (centralizers vs quotients T_w) or faces;
    # their agreement (test_reduced_symmetric_cross_route) pins the chain-level
    # signs.  Here: a deliberate wrong sign breaks d.d=0, and the complex's
    # own constructor refuses it.
    cx = deformation_complex_truncated(sym, 3)
    CochainComplex(cx.dims, cx.columns)
    d1 = cx.differentials[1]
    flipped = SparseMatrix(d1.rows, d1.cols,
                           {k: -v if k[0] < d1.rows // 2 else v
                            for k, v in d1.entries.items()})
    columns = cx.columns[:1] + [flipped.col_dicts()] + cx.columns[2:]
    with pytest.raises(ValueError, match=r"^d\.d != 0 between degrees 1 and 3$"):
        CochainComplex(cx.dims, columns)


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


# the counts of relative_cube_dims, as first recorded
RELATIVE_CUBE_COUNTS = {
    1: {1: 1},
    2: {1: 1, 2: 2},
    3: {1: 1, 2: 6, 3: 6},
    4: {1: 1, 2: 14, 3: 36, 4: 24},
    5: {1: 1, 2: 30, 3: 150, 4: 240, 5: 120},
    6: {1: 1, 2: 62, 3: 540, 4: 1560, 5: 1800, 6: 720},
}


def test_relative_cube_counts_are_pinned():
    for n, counts in RELATIVE_CUBE_COUNTS.items():
        assert relative_cube_dims(n) == (counts, counts, True), n
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cubic-n6.json"
    recorded = json.loads(golden.read_text(encoding="utf-8"))["report"]
    assert {int(m): c for m, c in recorded["relative_simplex_counts"].items()} \
        == RELATIVE_CUBE_COUNTS[6]
    with pytest.raises(ResourceLimitError, match="capped at n=6"):
        relative_cube_dims(7)

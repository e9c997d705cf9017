"""Centralizer diagrams and the cohomology of Schur-Weyl deformation complexes.

The degree-n component of the deformation complex of a multiplicative
sequence splits as a direct sum of centralizers C(lambda) indexed by
compositions lambda.  The weight filtration slices it into horizontal
complexes shaped like cubes (one per weight w, occupying degrees 1..w); for
the bundled sequences these are acyclic away from the top, which collapses
everything onto the one-row reduced complex

    T_w = C(1,...,1) / sum_j C(1,..,2,..,1)

with differential induced by a -> mu(1 (x) a) + (-1)^(w+1) mu(a (x) 1).
Every collapse used here is recomputed, not assumed: the truncated full
complex, the horizontal complexes and the reduced complex are all built
explicitly and compared by the test suite.
"""

from math import lcm

from . import CrossCheckError, ResourceLimitError
from .combinat import Composition, compositions, subdivisions
from .linalg import (
    CochainComplex,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    add_scaled,
    divided,
    kernel_basis,
    rank,
    subspace_sum,
)
from .symgrp import all_permutations, young_positions


# ---------------------------------------------------------------------------
# S_n-modules given by generator matrices


class SnModule:
    """An S_n-module presented by the matrices of t_1..t_{n-1}.

    The involution, braid and distant-commutation relations are checked at
    construction, so a bad presentation fails fast.
    """

    def __init__(self, n, dim, gens, name="M"):
        self.n = n
        self.dim = dim
        self.gens = list(gens)
        self.name = name
        if len(self.gens) != n - 1:
            raise ValueError("need %d generator matrices" % (n - 1))
        eye = SparseMatrix.identity(dim)
        for i, T in enumerate(self.gens, start=1):
            if T.rows != dim or T.cols != dim:
                raise ValueError("generator %d has wrong shape" % i)
            if T.matmul(T).entries != eye.entries:
                raise ValueError("t_%d is not an involution" % i)
        for i in range(1, n - 1):
            a, b = self.gens[i - 1], self.gens[i]
            if a.matmul(b).matmul(a).entries != b.matmul(a).matmul(b).entries:
                raise ValueError("braid relation fails at %d" % i)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                a, b = self.gens[i - 1], self.gens[j - 1]
                if a.matmul(b).entries != b.matmul(a).entries:
                    raise ValueError("t_%d, t_%d do not commute" % (i, j))

    @classmethod
    def trivial(cls, n):
        return cls(n, 1, [SparseMatrix.identity(1) for _ in range(n - 1)], "triv")

    @classmethod
    def sign(cls, n):
        neg = SparseMatrix(1, 1, {(0, 0): -1})
        return cls(n, 1, [neg for _ in range(n - 1)], "sign")

    @classmethod
    def natural(cls, n):
        gens = []
        for i in range(1, n):
            ent = {(k, k): 1 for k in range(n) if k not in (i - 1, i)}
            ent[(i - 1, i)] = 1
            ent[(i, i - 1)] = 1
            gens.append(SparseMatrix(n, n, ent))
        return cls(n, n, gens, "perm")

    @classmethod
    def regular(cls, n):
        basis = all_permutations(n)
        index = {p: k for k, p in enumerate(basis)}
        gens = []
        for i in range(1, n):
            ent = {}
            for k, p in enumerate(basis):
                ent[(index[_lmul_t(p, i)], k)] = 1
            gens.append(SparseMatrix(len(basis), len(basis), ent))
        return cls(n, len(basis), gens, "regular")

    def tensor(self, other):
        if other.n != self.n:
            raise ValueError("group size mismatch")
        gens = [_kron(a, b) for a, b in zip(self.gens, other.gens)]
        return SnModule(self.n, self.dim * other.dim, gens,
                        "%s(x)%s" % (self.name, other.name))

    def direct_sum(self, other):
        if other.n != self.n:
            raise ValueError("group size mismatch")
        gens = []
        for a, b in zip(self.gens, other.gens):
            ent = dict(a.entries)
            for (i, j), v in b.entries.items():
                ent[(i + a.rows, j + a.cols)] = v
            gens.append(SparseMatrix(a.rows + b.rows, a.cols + b.cols, ent))
        return SnModule(self.n, self.dim + other.dim, gens,
                        "%s(+)%s" % (self.name, other.name))


def _lmul_t(img, i):
    lst = list(img)
    for k, v in enumerate(lst):
        if v == i:
            lst[k] = i + 1
        elif v == i + 1:
            lst[k] = i
    return tuple(lst)


def _kron(a, b):
    ent = {}
    for (i1, j1), v in a.entries.items():
        for (i2, j2), w in b.entries.items():
            ent[(i1 * b.rows + i2, j1 * b.cols + j2)] = v * w
    return SparseMatrix(a.rows * b.rows, a.cols * b.cols, ent)


def random_module(n, rng, max_dim=8):
    """Seeded S_n-module built from permutation/sign/tensor constructions."""
    pool = [SnModule.trivial(n), SnModule.sign(n), SnModule.natural(n)]
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            m = pool[rng.randrange(len(pool))]
        elif kind == 1:
            m = pool[rng.randrange(len(pool))].direct_sum(pool[rng.randrange(len(pool))])
        elif kind == 2:
            m = pool[rng.randrange(len(pool))].tensor(pool[rng.randrange(len(pool))])
        else:
            m = pool[rng.randrange(len(pool))].tensor(
                pool[rng.randrange(len(pool))]).direct_sum(pool[rng.randrange(len(pool))])
        if m.dim <= max_dim:
            return m


# ---------------------------------------------------------------------------
# centralizers


def centralizer(seq, comp):
    """C(lambda): elements of A_|lambda| commuting with the image subalgebra.

    C(1^n) solves the commutant equations on all of A_n, once per level.  A
    coarser lambda only adds Young generators t_i, which normalise the image
    of 1^n, so C(lambda) is the part of C(1^n) that S_lambda fixes: the image
    of its averaging operator when every t_i permutes basis labels
    (``seq.label_conjugation``), else the t_i's commutant inside C(1^n).
    The test suite compares both with the full-algebra commutant.
    """
    cache = seq.centralizer_cache
    out = cache.get(comp.parts)
    if out is None:
        n = comp.weight
        top_comp = Composition((1,) * n)
        perms = [seq.label_conjugation(n, i) for i in young_positions(comp)]
        gens = seq.subalgebra_generators(comp)
        if not perms:
            out = commutant(seq, n, gens, Subspace.full(seq.dim(n)))
        elif None in perms:
            # the generators that 1^n lacks: the Young generators of comp
            top_gens = seq.subalgebra_generators(top_comp)
            young = [g for g in gens if g not in top_gens]
            out = commutant(seq, n, young, centralizer(seq, top_comp))
        else:
            out = _average(centralizer(seq, top_comp), perms)
        cache[comp.parts] = out
    return out


def commutant(seq, n, gens, space):
    """The elements of ``space`` (a Subspace of A_n) commuting with every g in ``gens``.

    The commutators are accumulated in the untruncated label space: a
    coefficient that falls outside the representable window is still a
    linear constraint on a, never an error.
    """
    if not gens:
        return space
    labels = seq.basis(n)
    basis = [row for row, _ in space.integral_rows()]
    rows = {}
    for gi, g in enumerate(gens):
        for j, vec in enumerate(basis):
            acc = {}
            for k, c in vec.items():
                for gl, gc in g.items():
                    add_scaled(acc, seq._mul_basis_raw(n, gl, labels[k]), gc * c)
                    add_scaled(acc, seq._mul_basis_raw(n, labels[k], gl), -gc * c)
            for l, x in acc.items():
                rows.setdefault((gi, l), {})[j] = x
    ker = kernel_basis(SparseMatrix.from_row_dicts(list(rows.values()), len(basis)))
    # kernel vectors are coordinates in space's integral rows; take them back
    # to A_n (integral kernel rows span the same combinations)
    combos = SparseMatrix.from_row_dicts([row for row, _ in ker.integral_rows()],
                                         len(basis)).matmul(
        SparseMatrix.from_row_dicts(basis, space.ambient_dim))
    return Subspace.from_vectors(combos.row_dicts(), space.ambient_dim)


def _orbits(dim, perms):
    """Orbits on range(dim) of the group the index permutations ``perms`` generate.

    Each orbit is a list headed by its least index, and the orbits come in
    order of that index: an orbit is discovered from the least index not yet
    visited, so it holds no smaller one.
    """
    seen = set()
    out = []
    for start in range(dim):
        if start not in seen:
            seen.add(start)
            orbit = [start]
            for k in orbit:
                for q in (perm[k] for perm in perms):
                    if q not in seen:
                        seen.add(q)
                        orbit.append(q)
            out.append(orbit)
    return out


def _average(space, perms):
    """Image of ``space`` under averaging over the group the index permutations
    ``perms`` generate; per vector, scaled by an ``lcm`` so ints stay ints.

    On the full space the image is spanned by the orbit indicators (the
    averages of the unit vectors), which are built directly, as in
    ``cubic_invariants_diagram``."""
    orbits = _orbits(space.ambient_dim, perms)
    if space.dim == space.ambient_dim:
        return Subspace.from_vectors(({k: 1 for k in orbit} for orbit in orbits),
                                     space.ambient_dim)
    orbit_of = {k: orbit for orbit in orbits for k in orbit}
    vectors = {}    # keyed by orbit sums, so a repeated average is built once
    for vec, _ in space.integral_rows():
        sums = {}   # orbit representative -> coefficient sum over the orbit
        for k, c in vec.items():
            r = orbit_of[k][0]
            s = sums.get(r, 0) + c
            if s:
                sums[r] = s
            else:
                sums.pop(r, None)
        key = frozenset(sums.items())
        if key not in vectors:
            scale = lcm(*(len(orbit_of[r]) for r in sums))
            vectors[key] = {k: c * (scale // len(orbit_of[r]))
                            for r, c in sums.items() for k in orbit_of[r]}
    return Subspace.from_vectors(vectors.values(), space.ambient_dim)


def _as_permutation(T):
    """``T`` as a column -> row index list when it is a square 0/1 matrix with
    exactly one 1 in each row and each column; otherwise None."""
    if T.rows != T.cols or len(T.entries) != T.cols:
        return None
    perm = [None] * T.cols
    for (i, j), v in T.entries.items():
        if v != 1 or perm[j] is not None:
            return None
        perm[j] = i
    return perm if len(set(perm)) == T.cols else None


# ---------------------------------------------------------------------------
# cubic diagrams and their complexes


class CubicDiagram:
    """Subspaces of one ambient space indexed by the vertices of a cube.

    Monotonicity (coarser vertex => smaller subspace) is verified edgewise
    at construction for weight <= 6 and spot-checked above.
    """

    def __init__(self, weight, ambient_dim, spaces):
        self.weight = weight
        self.ambient_dim = ambient_dim
        self.spaces = dict(spaces)
        for comp in compositions(weight):
            if comp.parts not in self.spaces:
                raise ValueError("missing vertex %r" % (comp,))
        self._check_containments()

    def space(self, comp):
        return self.spaces[comp.parts]

    def _check_containments(self):
        comps = compositions(self.weight)
        exhaustive = self.weight <= 6
        for lam in comps:
            sub = self.space(lam)
            for k, (sign, mu) in enumerate(subdivisions(lam)):
                if not exhaustive and k % 3:
                    continue
                if not self.space(mu).contains_subspace(sub):
                    raise CrossCheckError(
                        "containment fails: C%r not inside C%r" % (lam.parts, mu.parts))


def cubic_invariants_diagram(module):
    """Vertices are the joint fixed spaces of the Young generators.

    This mirrors ``centralizer``: average when every t_i permutes labels,
    else solve.  When every Young generator of a vertex is a permutation
    matrix, its fixed space is spanned by the indicator vectors of the orbits
    of the group they generate (the image of the averaging operator), taken
    straight from ``_orbits``; otherwise it is ``kernel_basis`` of the stacked
    t_i - 1.  Both give the same basis row for row: RREF is unique, and an
    orbit headed by its least index is already an RREF row with pivot value 1.
    A vertex without Young generators has only singleton orbits, so it is
    the full space.
    """
    n, dim = module.n, module.dim
    perms = [_as_permutation(T) for T in module.gens]
    diagonal = SparseMatrix.identity(dim).entries
    vertex = {}
    for comp in compositions(n):
        positions = young_positions(comp)
        if all(perms[i - 1] is not None for i in positions):
            orbits = _orbits(dim, [perms[i - 1] for i in positions])
            vertex[comp.parts] = Subspace.from_vectors(
                ({k: 1 for k in orbit} for orbit in orbits), dim)
        else:
            mats = [SparseMatrix(dim, dim,
                                 add_scaled(dict(module.gens[i - 1].entries), diagonal, -1))
                    for i in positions]
            vertex[comp.parts] = kernel_basis(SparseMatrix.vstack(mats))
    return CubicDiagram(n, dim, vertex)


def centralizer_diagram(seq, w):
    """The cubic diagram of centralizers at weight w."""
    spaces = {c.parts: centralizer(seq, c) for c in compositions(w)}
    return CubicDiagram(w, seq.dim(w), spaces)


def cubic_complex(diagram):
    """Cochain complex of a cubic diagram; degree k sums vertices with k ones."""
    w = diagram.weight
    layout = {k: [] for k in range(w)}
    for comp in compositions(w):
        layout[comp.length - 1].append(comp)
    dims = []
    offsets = {}
    for k in range(w):
        off = 0
        for comp in layout[k]:
            offsets[comp.parts] = off
            off += diagram.space(comp).dim
        dims.append(off)
    diffs = []
    for k in range(w - 1):
        ent = {}
        for comp in layout[k]:
            col0 = offsets[comp.parts]
            faces = [(sign, diagram.space(refined), offsets[refined.parts])
                     for sign, refined in subdivisions(comp)]
            for local, (vec, d) in enumerate(diagram.space(comp).integral_rows()):
                for sign, space, row0 in faces:
                    _add_block(ent, space, row0, col0 + local, vec, d, sign)
        diffs.append(SparseMatrix(dims[k + 1], dims[k], ent))
    return CochainComplex(0, dims, diffs)


def cubic_cohomology(diagram):
    return cubic_complex(diagram).cohomology_dims()


def top_quotient(module):
    """dim M / sum_i (1 + t_i) M, computed directly from the stacked images."""
    if module.n == 1:
        return module.dim
    diagonal = SparseMatrix.identity(module.dim).entries
    blocks = [SparseMatrix(module.dim, module.dim, add_scaled(dict(T.entries), diagonal))
              for T in module.gens]
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.hstack(b)
    return module.dim - rank(stacked)


# ---------------------------------------------------------------------------
# horizontal complexes


def horizontal_cohomology(seq, w):
    """Cohomology of the weight-w horizontal complex, degrees 1..w."""
    dims = cubic_cohomology(centralizer_diagram(seq, w))
    return {k + 1: v for k, v in dims.items()}


# ---------------------------------------------------------------------------
# the truncated full deformation complex


def deformation_complex_truncated(seq, max_weight):
    """The weight-<=W quotient of the full complex, as one CochainComplex.

    Degree k >= 1 sums C(lambda) over compositions of w <= W into k parts;
    degree 0 is the scalar layer (its differential cancels).  Weight-raising
    faces beyond W are dropped, which is legitimate because weights > W form
    a subcomplex.  The middle faces embed C(lambda) into its refinements; the
    outer faces a -> mu(1_m (x) a) and a -> mu(a (x) 1_m) apply the index
    maps of ``seq.unit_pairing``, built once per (m, w, side) in this call.
    """
    W = max_weight
    layout = {0: [None]}
    for k in range(1, W + 1):
        layout[k] = [c for w in range(1, W + 1) for c in compositions(w)
                     if c.length == k]
    spaces = {c.parts: centralizer(seq, c) for k in range(1, W + 1) for c in layout[k]}
    dims = []
    offsets = {}
    for k in range(W + 1):
        off = 0
        for comp in layout[k]:
            if comp is None:
                offsets[None] = 0
                off = 1
                continue
            offsets[comp.parts] = off
            off += spaces[comp.parts].dim
        dims.append(off)

    diffs = [SparseMatrix(dims[1], dims[0])]  # scalars: d(1) = mu(1(x)1) - mu(1(x)1) = 0
    pairings = {(m, w, side): seq.unit_pairing(m, w, side)
                for w in range(1, W) for m in range(1, W - w + 1)
                for side in ("left", "right")}
    for k in range(1, W):
        ent = {}
        right_sign = (-1) ** (k + 1)
        for comp in layout[k]:
            w = comp.weight
            parts = comp.parts
            col0 = offsets[parts]
            # middle faces: signed identity embeddings into refinements
            faces = [(sign, spaces[refined.parts], offsets[refined.parts])
                     for sign, refined in subdivisions(comp)]
            # outer faces raise the weight by m on the left or right
            raised = [(pairings[(m, w, "left")], spaces[(m,) + parts], offsets[(m,) + parts],
                       pairings[(m, w, "right")], spaces[parts + (m,)], offsets[parts + (m,)])
                      for m in range(1, W - w + 1)]
            for local, (vec, d) in enumerate(spaces[parts].integral_rows()):
                col = col0 + local
                for sign, space, row0 in faces:
                    _add_block(ent, space, row0, col, vec, d, sign)
                for lmap, lspace, lrow0, rmap, rspace, rrow0 in raised:
                    _add_block(ent, lspace, lrow0, col, _apply(lmap, vec), d, 1)
                    _add_block(ent, rspace, rrow0, col, _apply(rmap, vec), d, right_sign)
        diffs.append(SparseMatrix(dims[k + 1], dims[k], ent))
    return CochainComplex(0, dims, diffs)


def _apply(index_map, vec):
    """The image of the sparse vector ``vec`` under a map given per basis
    index (a list of sparse vectors, as from ``seq.unit_pairing``)."""
    out = {}
    for j, c in vec.items():
        add_scaled(out, index_map[j], c)
    return out


def _add_block(ent, target_space, row0, col, vec, d, sign):
    """Add ``sign`` times the coordinates of ``vec`` / d in ``target_space`` to
    column ``col`` of ``ent``, starting at row ``row0``; zero sums are dropped.

    ``vec`` is the image of an integral source row and d that row's pivot
    value (``Subspace.integral_rows``), so the column is the image of the
    source's RREF basis row, in the target's RREF basis."""
    coords = target_space.coords_of(vec)
    if d != 1:
        coords = divided(coords, d)
    add_scaled(ent, {(row0 + r, col): c for r, c in coords.items()}, sign)


class TruncatedCohomology:
    """Cohomology dims of the truncated complex plus validity annotations."""

    def __init__(self, max_weight, dims):
        self.max_weight = max_weight
        self.dims = dims  # degree -> dim

    def is_final(self, degree):
        # the dropped faces only couple weight W to W+1, so degrees below W
        # see the full complex
        return degree <= self.max_weight - 1

    def as_report(self):
        return {
            "H": {str(d): v for d, v in sorted(self.dims.items())},
            "final_degrees": [d for d in sorted(self.dims) if self.is_final(d)],
            "boundary_degree": self.max_weight,
        }


def deformation_cohomology_truncated(seq, max_weight):
    cx = deformation_complex_truncated(seq, max_weight)
    return TruncatedCohomology(max_weight, cx.cohomology_dims())


# ---------------------------------------------------------------------------
# the reduced complex


class ReducedComplexData:
    """Quotients T_w, coset representatives and the induced differential.

    ``diff_status[w]`` records how the differential out of weight w was
    handled: "matrix" (computed on representatives), "dual-zero" (proved
    zero by ``seq.delta_vanishes_dually``; for Q[S_*], by pairing against
    every sign-twisted class function one weight up), "source-zero"
    (T_w = 0), or "not-computed" (beyond the caps; the top cohomology is then
    only an upper bound and flagged non-final).
    """

    def __init__(self, seq, max_weight):
        self.seq = seq
        self.seq_id = seq.seq_id
        self.max_weight = max_weight
        self.t_dims = {}
        self.quotients = {}      # w -> QuotientSpace (matrix route only)
        self.diffs = {}          # w -> SparseMatrix for delta_w: T_w -> T_{w+1}
        self.diff_status = {}
        self.h_dims = {}
        self.final = {}

    def representatives(self, w):
        q = self.quotients.get(w)
        return q.representatives() if q is not None else None

    def class_of(self, w, vec):
        """Dense coordinate list of [vec] in the representative basis of T_w."""
        q = self.quotients.get(w)
        if q is None:
            raise ResourceLimitError("no representative basis at weight %d" % w)
        dense = [0] * q.dim
        for i, c in q.coords_of(vec).items():
            dense[i] = c
        return dense

    def cup(self, m, n, u, v):
        """Class of mu(u (x) v) in T_{m+n}; u, v are elements of A_m and A_n."""
        w = m + n
        if w > self.max_weight:
            raise ResourceLimitError("cup lands beyond weight %d" % self.max_weight)
        prod = self.seq.mu(m, n, u, v)
        return self.class_of(w, self.seq.element_to_vec(w, prod))

    def as_report(self):
        ws = range(1, self.max_weight + 1)
        return {
            "sequence": self.seq_id,
            "weights": list(ws),
            "T": {str(w): self.t_dims[w] for w in ws},
            "H": {str(w): self.h_dims[w] for w in ws},
            "diff_status": {str(w): self.diff_status[w] for w in ws},
            "final": {str(w): self.final[w] for w in ws},
        }


def _two_part_compositions(w):
    return [Composition((1,) * (j - 1) + (2,) + (1,) * (w - j - 1))
            for j in range(1, w)]


def reduced_complex(seq, max_weight):
    """Build T_1..T_P with the induced differential; see ReducedComplexData."""
    data = ReducedComplexData(seq, max_weight)
    # one extra weight, when affordable, makes the top differential computable
    build_weights = list(range(1, max_weight + 1))
    if max_weight + 1 <= seq.matrix_cap:
        build_weights.append(max_weight + 1)
    for w in build_weights:
        if w > seq.matrix_cap:
            # a count without matrices, or a refusal (the default)
            data.t_dims[w] = seq.reduced_dim_above_cap(w)
        else:
            top = centralizer(seq, Composition((1,) * w))
            if w == 1:
                sub = Subspace.zero(seq.dim(1))
            else:
                sub = subspace_sum(*(centralizer(seq, c) for c in _two_part_compositions(w)))
            quot = QuotientSpace(top, sub)
            data.quotients[w] = quot
            data.t_dims[w] = quot.dim

    for w in range(1, max_weight + 1):
        if data.t_dims[w] == 0:
            data.diffs[w] = None
            data.diff_status[w] = "source-zero"
            continue
        if w in data.quotients and (w + 1) in data.quotients:
            data.diffs[w] = _reduced_differential_matrix(seq, data, w)
            data.diff_status[w] = "matrix"
        elif seq.delta_vanishes_dually(w):
            data.diffs[w] = None
            data.diff_status[w] = "dual-zero"
        else:
            data.diffs[w] = None
            data.diff_status[w] = "not-computed"

    # each differential's rank is both the out-rank of w and the in-rank of w + 1
    ranks = {w: rank(data.diffs[w])
             for w in range(1, max_weight + 1) if data.diff_status[w] == "matrix"}
    for w in range(1, max_weight + 1):
        data.h_dims[w] = data.t_dims[w] - ranks.get(w, 0) - ranks.get(w - 1, 0)
        data.final[w] = data.diff_status[w] != "not-computed"
    return data


def _reduced_delta(left, right, w, vec):
    """delta(a) = mu(1 (x) a) + (-1)^(w+1) mu(a (x) 1) for ``vec`` in A_w, from
    the weight-w index maps ``left`` and ``right`` of ``seq.unit_pairing(1, w, side)``."""
    return add_scaled(_apply(left, vec), _apply(right, vec), (-1) ** (w + 1))


def _reduced_differential_matrix(seq, data, w):
    src = data.quotients[w]
    tgt = data.quotients[w + 1]
    left = seq.unit_pairing(1, w, "left")
    right = seq.unit_pairing(1, w, "right")
    # the induced map is only defined on cosets if the subspace maps into the
    # subspace one weight up; assert that, once per sequence and weight
    checked = seq.coset_checked_weights
    if w not in checked:
        for uvec, _ in src.U.integral_rows():
            if not tgt.U.contains(_reduced_delta(left, right, w, uvec)):
                raise CrossCheckError(
                    "reduced differential not well-defined on cosets at weight %d" % w)
        checked.add(w)
    ent = {}
    for j, repvec in enumerate(src.representatives()):
        for i, c in tgt.coords_of(_reduced_delta(left, right, w, repvec)).items():
            ent[(i, j)] = c
    return SparseMatrix(tgt.dim, src.dim, ent)


def first_cohomology_direct(seq):
    """H^1 = {a central in A_1 with mu(a,1) + mu(1,a) central in A_2}."""
    z1 = centralizer(seq, Composition((1,)))
    z2 = centralizer(seq, Composition((2,)))
    cols = {}
    basis_els = []
    for j, vec in enumerate(z1.basis()):
        el = seq.vec_to_element(1, vec)
        basis_els.append(el)
        s = add_scaled(seq.mu(1, 1, el, seq.one(1)), seq.mu(1, 1, seq.one(1), el))
        residue = z2.reduce(seq.element_to_vec(2, s))
        for i, c in residue.items():
            cols[(i, j)] = c
    M = SparseMatrix(seq.dim(2), z1.dim, cols)
    ker = kernel_basis(M)
    out = []
    for coeffs in ker.basis():
        el = {}
        for j, c in coeffs.items():
            add_scaled(el, basis_els[j], c)
        out.append(el)
    return ker.dim, out


# ---------------------------------------------------------------------------
# simplicial-cube cross-check


def relative_cube_dims(n):
    """Count non-degenerate relative simplices of the n-cube against multinomials.

    Degree-m simplices correspond to strictly increasing chains of length m
    from the bottom to the top of the Boolean lattice {0,1}^n; the expected
    count is the sum of n!/prod(parts!) over compositions of n into m parts.
    Returns (counts, expected, agree).
    """
    if n > 6:
        raise ResourceLimitError("relative cube enumeration capped at n=6")
    counts = {m: 0 for m in range(1, n + 1)}
    top = (1,) * n
    def walk(current, steps):
        if current == top:
            counts[steps] += 1
            return
        if steps >= n:
            return
        free = [i for i, b in enumerate(current) if b == 0]
        # choose any nonempty subset of the remaining coordinates to flip
        for mask in range(1, 1 << len(free)):
            nxt = list(current)
            for b, i in enumerate(free):
                if mask >> b & 1:
                    nxt[i] = 1
            walk(tuple(nxt), steps + 1)
    walk((0,) * n, 0)

    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    expected = {m: 0 for m in range(1, n + 1)}
    for comp in compositions(n):
        m = comp.length
        val = fact[n]
        for p in comp.parts:
            val //= fact[p]
        expected[m] += val
    return counts, expected, counts == expected

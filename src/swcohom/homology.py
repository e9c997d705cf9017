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

A centralizer and a vertex of the cube of an S_n-module are both fixed
spaces, and ``fixed_part`` builds both: it averages over orbits when the
group permutes basis indices, else it solves with ``annihilated``, the one
place where a kernel is solved.
"""

from functools import partial, reduce
from math import factorial, lcm, prod

from . import CrossCheckError, ResourceLimitError
from .combinat import Composition, compositions, subdivisions
from .linalg import (
    CochainComplex,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    add_scaled,
    combination,
    kernel_basis,
    rank,
    subspace_sum,
)
from .symgrp import all_permutations, compose, transposition, young_positions


# ---------------------------------------------------------------------------
# S_n-modules given by generator matrices


class SnModule:
    """An S_n-module presented by the matrices of t_1..t_{n-1}.

    The involution, braid and distant-commutation relations are checked at
    construction, so a bad presentation fails fast.  ``perms`` lists each
    generator as a column -> row index list (None where it is no permutation
    matrix); when all are index lists the relations are checked by composing
    them, else by matrix products.
    """

    def __init__(self, n, dim, gens, name="M"):
        self.n = n
        self.dim = dim
        self.gens = list(gens)
        self.name = name
        if len(self.gens) != n - 1:
            raise ValueError("need %d generator matrices" % (n - 1))
        self.perms = [_as_permutation(T) for T in self.gens]
        if None in self.perms:
            gens, one = self.gens, SparseMatrix.identity(dim).entries
            def mul(*factors):
                return reduce(SparseMatrix.matmul, factors).entries
        else:
            gens, one = self.perms, list(range(dim))
            def mul(*factors):
                return reduce(lambda a, b: [a[k] for k in b], factors)
        for i, T in enumerate(self.gens, start=1):
            if T.rows != dim or T.cols != dim:
                raise ValueError("generator %d has wrong shape" % i)
            if mul(gens[i - 1], gens[i - 1]) != one:
                raise ValueError("t_%d is not an involution" % i)
        for i in range(1, n - 1):
            a, b = gens[i - 1], gens[i]
            if mul(a, b, a) != mul(b, a, b):
                raise ValueError("braid relation fails at %d" % i)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                a, b = gens[i - 1], gens[j - 1]
                if mul(a, b) != mul(b, a):
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
        gens = [SparseMatrix.permutation([k - 1 for k in transposition(n, i)])
                for i in range(1, n)]
        return cls(n, n, gens, "perm")

    @classmethod
    def regular(cls, n):
        basis = all_permutations(n)
        index = {p: k for k, p in enumerate(basis)}
        gens = [SparseMatrix.permutation([index[compose(transposition(n, i), p)] for p in basis])
                for i in range(1, n)]
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

    C(1^n) is the part of A_n that every generator's commutator annihilates,
    solved once per level.  A coarser lambda only adds Young generators t_i,
    which normalise the image of 1^n, so C(lambda) is the ``fixed_part`` of
    C(1^n) under them: averaged when every t_i permutes basis labels
    (``seq.label_conjugation``), else solved for the t_i's commutators.
    The test suite compares both with the solve on all of A_n.
    """
    cache = seq.centralizer_cache
    out = cache.get(comp)
    if out is None:
        n = sum(comp)
        top = Composition((1,) * n)
        positions = young_positions(comp)
        if not positions:
            out = annihilated(Subspace.full(seq.dim(n)), [
                partial(seq.commutators, n, g) for g in seq.subalgebra_generators(comp)])
        else:
            def young():
                # the generators that 1^n lacks: the Young generators of comp
                top_gens = seq.subalgebra_generators(top)
                return [partial(seq.commutators, n, g)
                        for g in seq.subalgebra_generators(comp) if g not in top_gens]
            out = fixed_part(centralizer(seq, top),
                             [seq.label_conjugation(n, i) for i in positions], young)
        cache[comp] = out
    return out


def fixed_part(space, perms, maps):
    """The part of ``space`` (a Subspace) that a group fixes: the image of the
    average over ``perms`` when each is an index permutation, else the vectors
    that every map of ``maps()`` kills.  ``maps`` is called on that branch only."""
    if None in perms:
        return annihilated(space, maps())
    return _average(space, perms)


def annihilated(space, maps):
    """The vectors of ``space`` (a Subspace) that every map in ``maps`` kills:
    the one place a kernel is solved.

    A map is a callable ``indices -> {index: image of that unit vector}``
    (any mapping from at least those indices), asked once for the indices
    the rows of ``space`` touch; ``partial(seq.commutators, n, g)`` is one.
    An image is a sparse dict on any keys: one equation per map and key.
    Commutators keep labels outside the representable window, so such a
    coefficient is still a linear constraint, never an error.
    """
    if not maps:
        return space
    basis = [row for row, _ in space.integral_rows()]
    touched = {k for vec in basis for k in vec}
    rows = {}
    for mi, f in enumerate(maps):
        # the images of one map live only while its rows are built
        images = f(touched)
        for j, vec in enumerate(basis):
            if len(vec) == 1:
                # a primitive integer row with one entry is a unit vector
                acc = images[next(iter(vec))]
            else:
                acc = {}
                for k, c in vec.items():
                    add_scaled(acc, images[k], c)
            for l, x in acc.items():
                rows.setdefault((mi, l), {})[j] = x
    ker = kernel_basis(SparseMatrix.from_row_dicts(list(rows.values()), len(basis)))
    if space.dim == space.ambient_dim:
        # the rows of a full space are the unit vectors: coordinates are vectors
        return ker
    # kernel vectors are coordinates in space's integral rows; take them back
    # row by row (integral kernel rows span the same combinations)
    out = Subspace(space.ambient_dim)
    for coeffs, _ in ker.integral_rows():
        out.insert(combination(basis, coeffs))
    return out


def _orbits(dim, perms):
    """Orbits on range(dim) of the group the index permutations ``perms``
    generate: the arrays (pos, heads, sizes) of ``Subspace.from_positions``,
    and per orbit whether it is signed, 2-coloured with every edge
    x -- perm[x] bichromatic (a fixed point is an odd loop, so it is not).

    An orbit is discovered from the least index not yet visited, so it holds
    no smaller one, and the orbits come in order of that index, their head.
    Each index is coloured opposite to the one it is first reached from.
    """
    pos, colour, heads, sizes, signed = [None] * dim, [0] * dim, [], [], []
    for start in range(dim):
        if pos[start] is None:      # None: not yet visited
            pos[start] = j = len(heads)
            orbit, bichromatic = [start], True
            for k in orbit:
                other = 1 - colour[k]
                for perm in perms:
                    q = perm[k]
                    if pos[q] is None:
                        pos[q], colour[q] = j, other
                        orbit.append(q)
                    elif colour[q] != other:
                        bichromatic = False
            heads.append(start)
            sizes.append(len(orbit))
            signed.append(bichromatic)
    return pos, heads, sizes, signed


def _average(space, perms):
    """Image of ``space`` under averaging over the group the index permutations
    ``perms`` generate; per vector, scaled by an ``lcm`` so ints stay ints.

    On the full space the image is spanned by the orbit indicators (the
    averages of the unit vectors).  Each is already an RREF row (headed by
    its least index, with value 1), so the arrays of ``_orbits`` are adopted
    by ``Subspace.from_positions``, not eliminated."""
    pos, heads, sizes, _ = _orbits(space.ambient_dim, perms)
    orbit_sums = Subspace.from_positions(pos, heads, sizes)
    if space.dim == space.ambient_dim:
        return orbit_sums
    members = list(orbit_sums.rows.values())
    vectors = {}    # keyed by orbit sums, so a repeated average is built once
    for vec, _ in space.integral_rows():
        sums = {}   # orbit position -> coefficient sum over the orbit
        for k, c in vec.items():
            r = pos[k]
            s = sums.get(r, 0) + c
            if s:
                sums[r] = s
            else:
                sums.pop(r, None)
        key = frozenset(sums.items())
        if key not in vectors:
            scale = lcm(*(sizes[r] for r in sums))
            vectors[key] = {k: c * (scale // sizes[r]) for r, c in sums.items() for k in members[r]}
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


def cubic_invariants_diagram(module):
    """The cubic diagram {composition: Subspace} of ``module``: the vertex of a
    composition of n is the ``fixed_part`` of Q^dim under its Young generators.

    When each of them is a permutation matrix, the vertex is spanned by the
    indicators of the orbits of the group they generate, adopted without
    elimination; otherwise it is solved for the maps t_i - 1.  Both give the
    same basis row for row, because RREF is unique.  A vertex without Young
    generators is the full space.  That each vertex lies inside its
    refinements (coarser vertex => smaller subspace) is proven once, by
    ``cubic_complex``.
    """
    full = Subspace.full(module.dim)
    vertex = {}
    for comp in compositions(module.n):
        positions = young_positions(comp)
        vertex[comp] = fixed_part(full, [module.perms[i - 1] for i in positions],
                                  lambda: [_minus_one(module.gens[i - 1]) for i in positions])
    return vertex


def _minus_one(T):
    """The map t - 1 of the square matrix ``T``, for ``annihilated``."""
    cols = T.col_dicts()
    return lambda indices: {k: add_scaled(dict(cols[k]), {k: 1}, -1) for k in indices}


def centralizer_diagram(seq, w):
    """The cubic diagram {lambda: C(lambda)} of centralizers at weight w."""
    return {c: centralizer(seq, c) for c in compositions(w)}


def cubic_complex(diagram):
    """Cochain complex of a cubic diagram {composition: Subspace}, all of one
    weight; degree k sums the vertices with k + 1 parts.  A face that leaves
    its target raises CrossCheckError, and a missing vertex KeyError."""
    weight = sum(next(iter(diagram)))
    layout = [[] for _ in range(weight)]
    for comp in compositions(weight):
        layout[len(comp) - 1].append(comp)
    return _face_complex(layout, diagram.__getitem__, _refinement_faces)


def _refinement_faces(comp):
    """The faces out of the vertex ``comp`` that split one part: signed
    identity embeddings into its refinements."""
    return [(sign, mu, None) for sign, mu in subdivisions(comp)]


def _face_complex(layout, space, faces):
    """The complex, from degree 0, whose degree k sums ``space(key)`` over the
    keys of ``layout[k]`` in order.  ``faces(key)`` lists the faces out of
    ``key`` as (sign, target key, index map or None for the identity); an
    index map is per basis index, as from ``seq.unit_pairing``.

    Every face is proven to land in its target, in one block by
    ``image_coords``; an image outside it raises CrossCheckError naming the
    source and target keys.  Each source basis row gives one column: a face
    writes its block in, and only a target met twice from one key adds in."""
    offsets, dims = {}, []
    for keys in layout:
        dims.append(0)
        for key in keys:
            offsets[key] = dims[-1]
            dims[-1] += space(key).dim
    columns = [[{} for _ in range(dim)] for dim in dims[:-1]]
    for keys, cols in zip(layout, columns):
        for key in keys:
            source = space(key)
            own, written = cols[offsets[key]:offsets[key] + source.dim], set()
            for sign, target, index_map in faces(key):
                try:
                    block = space(target).image_coords(source, index_map, offsets[target], sign)
                except ValueError:
                    raise CrossCheckError("face %r -> %r leaves its target"
                                          % (key, target)) from None
                merge = add_scaled if target in written else dict.update
                for col, coords in zip(own, block):
                    merge(col, coords)
                written.add(target)
    return CochainComplex(dims, columns)


def cubic_cohomology(diagram):
    return cubic_complex(diagram).cohomology_dims()


def top_quotient(module):
    """dim M / sum_i (1 + t_i) M, computed directly, not from the cube.

    A permutation module needs no rank.  A functional kills every e_x +
    e_(t_i x) exactly when it flips sign along each edge x -- t_i x, so on an
    orbit it is +-c by a 2-colouring, and c can be nonzero exactly when the
    orbit is signed (``_orbits``).  The dimension, that of the dual, is the
    number of signed orbits.  Any other module is ranked: dim M minus the
    rank of the 1 + t_i side by side, taken as the rank of its transpose,
    whose rows are their columns.
    """
    dim, perms = module.dim, module.perms
    if None in perms:
        return dim - rank(SparseMatrix.from_row_dicts(
            [add_scaled(col, {k: 1}) for T in module.gens for k, col in enumerate(T.col_dicts())],
            dim))
    return sum(_orbits(dim, perms)[3])


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
    layout = [[None]]
    spaces = {None: Subspace.full(1)}   # d(1) = mu(1(x)1) - mu(1(x)1) = 0: no faces
    for k in range(1, W + 1):
        comps = [c for w in range(1, W + 1) for c in compositions(w) if len(c) == k]
        layout.append(comps)
        spaces.update((c, centralizer(seq, c)) for c in comps)
    pairings = {(m, w, side): seq.unit_pairing(m, w, side)
                for w in range(1, W) for m in range(1, W - w + 1)
                for side in ("left", "right")}

    def faces(comp):
        if comp is None:
            return []
        w = sum(comp)
        right_sign = (-1) ** (len(comp) + 1)
        out = _refinement_faces(comp)
        # the outer faces raise the weight by m on the left or right
        for m in range(1, W - w + 1):
            out.append((1, (m,) + comp, pairings[(m, w, "left")]))
            out.append((right_sign, comp + (m,), pairings[(m, w, "right")]))
        return out

    return _face_complex(layout, spaces.__getitem__, faces)


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
    handled: "matrix" (the differential of the face complex on T_1..T_top,
    in the representative bases; ``diffs[w]``), "dual-zero" (proved
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
        return q.basis() if q is not None else None

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
    """Build T_1..T_P with the induced differential; see ReducedComplexData.

    The quotients T_1..T_top, top = min(P + 1, ``seq.matrix_cap``), form one
    face complex (degree w - 1 holds T_w): the faces out of T_w are
    a -> mu(1 (x) a) and a -> (-1)^(w+1) mu(a (x) 1), the index maps of
    ``seq.unit_pairing(1, w, side)``, so d.d = 0 and the Euler
    characteristic are checked as for every complex here.
    """
    data = ReducedComplexData(seq, max_weight)
    # one extra weight, when affordable, makes the top differential computable
    top = min(max_weight + 1, seq.matrix_cap)
    for w in range(1, top + 1):
        sub = (Subspace.zero(seq.dim(1)) if w == 1 else
               subspace_sum(*(centralizer(seq, c) for c in _two_part_compositions(w))))
        data.quotients[w] = QuotientSpace(centralizer(seq, Composition((1,) * w)), sub)
        data.t_dims[w] = data.quotients[w].dim
    for w in range(top + 1, max_weight + 1):
        # a count without matrices, or a refusal (the default)
        data.t_dims[w] = seq.reduced_dim_above_cap(w)

    faces = {w: [(1, w + 1, seq.unit_pairing(1, w, "left")),
                 ((-1) ** (w + 1), w + 1, seq.unit_pairing(1, w, "right"))]
             for w in range(1, top)}
    for w, out in faces.items():
        # the induced map is only defined on cosets if the subspace maps into
        # the subspace one weight up
        for uvec, _ in data.quotients[w].U.integral_rows():
            delta = {}
            for sign, _, index_map in out:
                add_scaled(delta, combination(index_map, uvec), sign)
            if not data.quotients[w + 1].U.contains(delta):
                raise CrossCheckError(
                    "reduced differential not well-defined on cosets at weight %d" % w)
    cx = _face_complex([[w] for w in range(1, top + 1)], data.quotients.__getitem__,
                       faces.__getitem__)
    h_dims, diffs = cx.cohomology_dims(), cx.differentials   # degree w - 1 holds T_w

    for w in range(1, max_weight + 1):
        data.diffs[w] = None
        if data.t_dims[w] == 0:
            data.diff_status[w] = "source-zero"
        elif w < top:
            data.diffs[w] = diffs[w - 1]
            data.diff_status[w] = "matrix"
        elif seq.delta_vanishes_dually(w):
            data.diff_status[w] = "dual-zero"
        else:
            data.diff_status[w] = "not-computed"
        data.h_dims[w] = h_dims[w - 1] if w <= top else data.t_dims[w]
        data.final[w] = data.diff_status[w] != "not-computed"
    return data


def first_cohomology_direct(seq):
    """H^1 = {a in C(1) with mu(a, 1) + mu(1, a) in C(2)}: its dimension and
    a basis of it, as elements of A_1."""
    z2 = centralizer(seq, Composition((2,)))
    left, right = (seq.unit_pairing(1, 1, side) for side in ("left", "right"))
    h1 = annihilated(centralizer(seq, Composition((1,))), [lambda indices: {
        k: z2.reduce(add_scaled(dict(left[k]), right[k])) for k in indices}])
    return h1.dim, [seq.vec_to_element(1, vec) for vec in h1.basis()]


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
    counts = dict.fromkeys(range(1, n + 1), 0)
    top = (1 << n) - 1
    def walk(current, steps):
        if current == top:
            counts[steps] += 1
            return
        # flip any nonempty subset of the remaining coordinates (bits)
        free = flip = top & ~current
        while flip:
            walk(current | flip, steps + 1)
            flip = (flip - 1) & free
    walk(0, 0)

    expected = dict.fromkeys(range(1, n + 1), 0)
    for comp in compositions(n):
        expected[len(comp)] += factorial(n) // prod(map(factorial, comp))
    return counts, expected, counts == expected

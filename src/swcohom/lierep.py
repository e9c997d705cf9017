"""Exact gl(V) tensor calculus: wheel invariants and exterior invariants.

The degree-m generator of the exterior invariants of gl(V) is the
antisymmetrised cyclic trace tensor

    x_m = alt2( sum_a E_{a1 a2} (x) E_{a2 a3} (x) ... (x) E_{am a1} )

read off the closed chain of matrix units (one big V*-arc closing m nested
V-arcs); the component formula is validated rather than trusted: m = 1
gives the identity, and the slot action of x_m on V^(x)m is compared
exactly against the distinguished group-algebra element e_m divided by
(m-1)!.  Antisymmetrisation uses the averaged projector (division by m!,
legal in characteristic zero), applying one permutation simultaneously to
the V and V* axes with a single sign.

Tensors are sparse {index tuple: int} dicts and operators on V^(x)m are
``SparseMatrix``es, the package's one representation; x_m is kept as an
integer tensor over the known denominator m!, so every check is exact
integer arithmetic.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb, factorial

from . import CrossCheckError, ResourceLimitError
# kernel_basis is never called here (``annihilated`` solves), but
# perfbench/harness_tests.py checks that the tracer wraps lierep.kernel_basis
from .linalg import (SparseMatrix, StructureConstantSpec, Subspace, add_scaled, divided,
                     kernel_basis, rank)
from .homology import (SnModule, annihilated, cubic_cohomology, cubic_invariants_diagram,
                       top_quotient)
from .symgrp import all_permutations, e_element, sign

MAX_TENSOR_ENTRIES = 10 ** 7
MAX_WEDGE_DIM = 5000     # largest exterior power whose ad-invariants are solved


class LieAlgebraSpec(StructureConstantSpec):
    """Lie algebra from structure constants; antisymmetry and Jacobi checked."""

    default_name = "g"

    def _validate(self):
        d = self.dim
        for i, j in product(range(d), repeat=2):
            if self.table[i][j] != tuple(-x for x in self.table[j][i]):
                raise ValueError("bracket is not antisymmetric")
        br = self.products
        for i, j, k in product(range(d), repeat=3):
            out = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in br[a][b].items():
                    add_scaled(out, br[t][c], x)
            if out:
                raise ValueError("Jacobi identity fails at (%d,%d,%d)" % (i, j, k))

    def ad_matrix(self, i):
        """Matrix of ad(e_i) in the basis."""
        ent = {}
        for j in range(self.dim):
            for k, c in enumerate(self.table[i][j]):
                if c:
                    ent[(k, j)] = c
        return SparseMatrix(self.dim, self.dim, ent)

    def center(self):
        """z(g): the vectors that every ad(e_j) kills."""
        return annihilated(Subspace.full(self.dim), [
            lambda _, cols=self.ad_matrix(j).col_dicts(): cols for j in range(self.dim)])

    @classmethod
    def gl(cls, d):
        """gl(d) on matrix units E_{ab}, index a*d + b."""
        dim = d * d
        table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    for e in range(d):
                        i, j = a * d + b, c * d + e
                        # [E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb
                        if b == c:
                            table[i][j][a * d + e] += 1
                        if e == a:
                            table[i][j][c * d + b] -= 1
        return cls(dim, table, name="gl(%d)" % d)

    @classmethod
    def sl2(cls):
        """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
        table = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        table[0][1][2] = 1
        table[1][0][2] = -1
        table[2][0][0] = 2
        table[0][2][0] = -2
        table[2][1][1] = -2
        table[1][2][1] = 2
        return cls(3, table, name="sl(2)")

    @classmethod
    def abelian(cls, d):
        return cls(d, [[[0] * d for _ in range(d)] for _ in range(d)],
                   name="abelian(%d)" % d)


# ---------------------------------------------------------------------------
# wheels and their action on tensor powers of V


def check_tensor_size(m, d):
    """Refuse (ResourceLimitError) a gl(V)^(x)m tensor with d^(2m) entries above the guard."""
    if d ** (2 * m) > MAX_TENSOR_ENTRIES:
        raise ResourceLimitError("tensor of %d entries exceeds the guard" % d ** (2 * m))


def alt2_wheel_raw(m, d):
    """(N, m!) with x_m = N / m!; N is an exact integer tensor."""
    signed = [(p, sign(p)) for p in all_permutations(m)]
    N = {}
    for K, c in _wheel_key_counts(m, d).items():
        add_scaled(N, {tuple(x for i in p for x in K[i - 1]): s for p, s in signed}, c)
    return N, factorial(m)


def _wheel_key_counts(m, d):
    """{sorted pairs K: c != 0} with alt2(wheel) = sum_K c alt(K); x_m = 0 iff it is empty.

    Each permutation acts on the m (V, V*) pairs of a chain at once.  A chain
    with a repeated pair alternates to zero (swapping the equal pairs fixes it
    and flips the sign); one with distinct pairs is a reordering q of its sorted
    pairs K and alternates to sign(q) alt(K), supported on K's reorderings alone."""
    check_tensor_size(m, d)
    counts = {}
    for a in product(range(d), repeat=m):    # the chains E_{a1 a2} ... E_{am a1}
        pairs = list(zip(a, a[1:] + a[:1]))
        if len(set(pairs)) == m:
            order = sorted(range(1, m + 1), key=lambda k: pairs[k - 1])
            add_scaled(counts, {tuple(pairs[k - 1] for k in order): sign(order)})
    return counts


def _flat_index(idx, base):
    out = 0
    for x in idx:
        out = out * base + x
    return out


def act_on_power(t, m, d):
    """The operator on V^(x)m applying each gl factor of ``t`` to its own slot.

    Accepts the (v_1, w_1, ...)-keyed tensor and returns the d^m x d^m
    matrix with rows indexed by the v multi-index, columns by the w one."""
    if set(map(len, t)) - {2 * m} or not set(chain.from_iterable(t)) <= set(range(d)):
        raise ValueError("shape mismatch")
    rows = cols = [0] * len(t)     # the flat v and w indices, built slot by slot
    for s in range(0, 2 * m, 2):
        rows = [r * d + key[s] for r, key in zip(rows, t)]
        cols = [c * d + key[s + 1] for c, key in zip(cols, t)]
    return SparseMatrix(d ** m, d ** m, dict(zip(zip(rows, cols), t.values())))


def perm_action(m, u, d):
    """Linear extension to an element ``u`` of Q[S_m] of the slot permutation
    on V^(x)m: s sends e_{j_1}(x)...(x)e_{j_m} to the tensor with j_k in slot s(k)."""
    check_tensor_size(m, d)
    ent = {}
    for p, c in u.items():
        # row of e_j: sum_k j_k d^(m - p[k]), expanded slot by slot in the order of j
        rows = [0]
        for k in range(len(p)):
            w = d ** (len(p) - p[k])
            rows = [r + x * w for r in rows for x in range(d)]
        add_scaled(ent, dict.fromkeys(zip(rows, range(len(rows))), c))
    return SparseMatrix(d ** m, d ** m, ent)


def verify_wheel_action(m, d):
    """Exact check of act(x_m) = e_m-action / (m-1)!.

    Returns (passed, ratio) where ratio is the measured scalar relating the
    two operators (None when both vanish); a mismatch reports the measured
    ratio instead of silently renormalising.
    """
    N, den = alt2_wheel_raw(m, d)                    # x_m = N / m!
    left = act_on_power(N, m, d).entries             # act(x_m) * m!
    e_act = perm_action(m, e_element(m), d).entries
    # act(x_m) = left/m!; target e_act/(m-1)!; equality iff left == m * e_act
    if left == add_scaled({}, e_act, m):
        return True, (Fraction(1, factorial(m - 1)) if left else None)
    # measure the actual proportionality constant at the row-major first nonzero
    if e_act:
        ij = min(e_act)
        lij, eij = left.get(ij, 0), e_act[ij]
        if add_scaled({}, left, eij) == add_scaled({}, e_act, lij):
            return False, Fraction(lij, den) / eij
    return False, None


def wheel_vanishing_table(max_m, max_d):
    """(m, d) -> bool: whether x_m = 0, over the requested grid."""
    return {(m, d): not _wheel_key_counts(m, d)
            for d in range(1, max_d + 1) for m in range(1, max_m + 1)}


# ---------------------------------------------------------------------------
# exterior invariants


def _check_wedge_size(n, maxdeg):
    """Refuse (ResourceLimitError), before any kernel work, exterior powers of
    an n-dim space in degrees 0..maxdeg wider than ``MAX_WEDGE_DIM``."""
    widest = max(comb(n, m) for m in range(maxdeg + 1))
    if widest > MAX_WEDGE_DIM:
        raise ResourceLimitError("exterior power of dim %d exceeds the guard" % widest)


def _wedge_invariants_dim(act, n, m):
    """dim of the m-th wedge power of span(e_0..e_{n-1}) killed by every
    derivation in ``act``: ``act[op][i]`` lists the images (j, c) of e_i, and
    an image j >= n lies outside the window but is kept exactly.  An op diagonal
    on the basis scales a sorted wedge by its eigenvalue sum, so the columns are
    the wedges where all such sums are 0, with one row per (other op, target)."""
    diag = {op for op, images in enumerate(act)
            if all(j == i for i, im in enumerate(images) for j, _ in im)}
    weight = [tuple(sum(c for _, c in act[op][i]) for op in diag) for i in range(n)]
    cols = [tup for tup in combinations(range(n), m)
            if not any(map(sum, zip(*(weight[i] for i in tup))))]
    rows = {}
    for op, images in enumerate(act):
        if op in diag:
            continue
        for col, tup in enumerate(cols):
            for slot, i in enumerate(tup):
                rest = tup[:slot] + tup[slot + 1:]
                for j, c in images[i]:
                    if j in rest:
                        continue
                    # j sits at position `slot` of the word; sort it into place
                    pos = bisect_left(rest, j)
                    add_scaled(rows.setdefault((op, rest[:pos] + (j,) + rest[pos:]), {}),
                               {col: -c if (slot + pos) & 1 else c})
    return len(cols) - rank(SparseMatrix.from_row_dicts(list(rows.values()), len(cols)))


def exterior_invariants_dims(g, maxdeg):
    """dim of the ad-invariants of each exterior power, degrees 0..maxdeg;
    refused before any kernel work above ``MAX_WEDGE_DIM`` basis vectors."""
    _check_wedge_size(g.dim, maxdeg)
    act = [[[(j, c) for j, c in enumerate(g.table[xi][i]) if c] for i in range(g.dim)]
           for xi in range(g.dim)]
    return [1] + [_wedge_invariants_dim(act, g.dim, m) for m in range(1, maxdeg + 1)]


# ---------------------------------------------------------------------------
# current algebras g (x) k[x]


def current_invariants_dims(g, x_degree_bound, maxdeg, check_extra_power=False):
    """Invariant dims of the exterior powers of g (x) span{1..x^D}.

    Invariance is imposed under ad(xi (x) x^s) for s = 0..m (plus s = m+1
    when ``check_extra_power``); the images live in the larger window
    D + s, which is handled exactly.  Returns (dims, expected, agree) where
    expected counts the exterior powers of z(g) (x) span{1..x^D}.  Refused
    before any kernel work above ``MAX_WEDGE_DIM`` basis vectors.
    """
    D = x_degree_bound
    n = g.dim * (D + 1)     # xi (x) x^s has index s * dim + xi
    _check_wedge_size(n, maxdeg)
    zdim = g.center().dim
    dims, expected = [1], [1]
    for m in range(1, maxdeg + 1):
        s_max = m + 1 if check_extra_power else m
        # [xi (x) x^s, e_i (x) x^u] = sum_k c_k e_k (x) x^(s+u)
        act = [[[((s + u) * g.dim + k, c) for k, c in enumerate(g.table[xi][i]) if c]
                for u in range(D + 1) for i in range(g.dim)]
               for xi in range(g.dim) for s in range(s_max + 1)]
        dims.append(_wedge_invariants_dim(act, n, m))
        expected.append(comb(zdim * (D + 1), m))
    return dims, expected, dims == expected


# ---------------------------------------------------------------------------
# the cubic route to the invariants of tensor powers


def cohomology_of_rep_category_graded(g, n):
    """Top cubic cohomology of the S_n-module of adjoint invariants in g^(x)n.

    Computed entirely through the cubic machinery, independently of
    :func:`exterior_invariants_dims`; the two routes must agree degreewise.
    The top value is additionally cross-checked against the direct quotient
    M / sum (1 + t_i) M.
    """
    dim = g.dim ** n
    if dim > 100_000:
        raise ResourceLimitError("g^(x)%d too large" % n)
    maps = []
    for xi in range(g.dim):
        cols_of_A = g.ad_matrix(xi).col_dicts()
        images = {}     # flat index -> its image under ad(e_xi) on every slot
        for idx in product(range(g.dim), repeat=n):
            image = images[_flat_index(idx, g.dim)] = {}
            for k in range(n):
                add_scaled(image, {_flat_index(idx[:k] + (r,) + idx[k + 1:], g.dim): v
                                   for r, v in cols_of_A[idx[k]].items()})
        maps.append(lambda _, images=images: images)
    invariants = annihilated(Subspace.full(dim), maps)

    if n == 1:
        return invariants.dim
    gens = []
    for k in range(1, n):
        swap = [0] * dim    # flat index -> flat index with slots k and k + 1 swapped
        for idx in product(range(g.dim), repeat=n):
            j = list(idx)
            j[k - 1], j[k] = j[k], j[k - 1]
            swap[_flat_index(idx, g.dim)] = _flat_index(j, g.dim)
        mat_ent = {}
        for col, (row, d) in enumerate(invariants.integral_rows()):
            coords = invariants.coords_of({swap[i]: c for i, c in row.items()})
            mat_ent.update(((r, col), c) for r, c in divided(coords, d).items())
        gens.append(SparseMatrix(invariants.dim, invariants.dim, mat_ent))
    module = SnModule(n, invariants.dim, gens, name="(g^%d)^g" % n)
    top = cubic_cohomology(cubic_invariants_diagram(module))[n - 1]
    independent = top_quotient(module)
    if top != independent:
        raise CrossCheckError("cubic top %d != direct quotient %d" % (top, independent))
    return top

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

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from . import CrossCheckError, ResourceLimitError
from .linalg import SparseMatrix, StructureConstantSpec, add_scaled, kernel_basis
from .homology import SnModule, cubic_cohomology, cubic_invariants_diagram, top_quotient
from .symgrp import all_permutations, e_element

MAX_TENSOR_ENTRIES = 10 ** 7
MAX_WEDGE_DIM = 5000     # largest exterior power whose ad-invariants are solved


class LieAlgebraSpec(StructureConstantSpec):
    """Lie algebra from structure constants; antisymmetry and Jacobi checked."""

    default_name = "g"

    def _validate(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                if self.table[i][j] != tuple(-x for x in self.table[j][i]):
                    raise ValueError("bracket is not antisymmetric")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    x = self.mul_coords(self.table[i][j], self._basis_vec(k))
                    y = self.mul_coords(self.table[j][k], self._basis_vec(i))
                    z = self.mul_coords(self.table[k][i], self._basis_vec(j))
                    for t in range(d):
                        if x[t] + y[t] + z[t]:
                            raise ValueError("Jacobi identity fails at (%d,%d,%d)"
                                             % (i, j, k))

    def ad_matrix(self, i):
        """Matrix of ad(e_i) in the basis."""
        ent = {}
        for j in range(self.dim):
            for k, c in enumerate(self.table[i][j]):
                if c:
                    ent[(k, j)] = c
        return SparseMatrix(self.dim, self.dim, ent)

    def center(self):
        """z(g): the joint kernel of x -> [x, e_j]."""
        rows = []
        for j in range(self.dim):
            for k in range(self.dim):
                row = {}
                for i in range(self.dim):
                    c = self.table[i][j][k]
                    if c:
                        row[i] = c
                rows.append(row)
        return kernel_basis(SparseMatrix.from_row_dicts(rows, self.dim))

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


def wheel(m, d):
    """Cyclic trace tensor in gl(V)^(x)m.

    Keys alternate (v_1, w_1, ..., v_m, w_m); the entry pattern is
    w_k = v_{k+1} cyclically, i.e. sum_a E_{a1 a2} (x) ... (x) E_{am a1}.
    Each chain a gives its own key, so every entry is 1.
    """
    check_tensor_size(m, d)
    return {tuple(x for k in range(m) for x in (a[k], a[(k + 1) % m])): 1
            for a in product(range(d), repeat=m)}


def alt2_wheel_raw(m, d):
    """(N, m!) with x_m = N / m!; N is an exact integer tensor."""
    # The alternation applies each permutation to the m (V, V*) pairs at once.
    # A chain with a repeated pair alternates to zero: swapping the two equal
    # pairs fixes it and flips the sign.  A chain with distinct pairs is a
    # reordering q of its sorted pairs K and alternates to sign(q) alt(K).  So
    # sum the signed chains per sorted key, then expand only the keys whose
    # count survives.
    counts = {}
    for key in wheel(m, d):
        pairs = [key[2 * k:2 * k + 2] for k in range(m)]
        if len(set(pairs)) == m:
            add_scaled(counts, {tuple(sorted(pairs)): _sort_sign(pairs)})
    N = {}
    for K, c in counts.items():
        add_scaled(N, {tuple(x for i in p.images for x in K[i - 1]): p.sign()
                       for p in all_permutations(m)}, c)
    return N, factorial(m)


def _flat_index(idx, base):
    out = 0
    for x in idx:
        out = out * base + x
    return out


def act_on_power(t, m, d):
    """The operator on V^(x)m applying each gl factor of ``t`` to its own slot.

    Accepts the (v_1, w_1, ...)-keyed tensor and returns the d^m x d^m
    matrix with rows indexed by the v multi-index, columns by the w one.
    """
    if any(len(key) != 2 * m or max(key) >= d for key in t):
        raise ValueError("shape mismatch")
    return SparseMatrix(d ** m, d ** m, {
        (_flat_index(key[0::2], d), _flat_index(key[1::2], d)): c for key, c in t.items()})


def perm_matrix(perm, d):
    """Slot permutation on V^(x)m: basis e_{j_1}(x)...(x)e_{j_m} -> slot s(k) gets j_k."""
    m = perm.n
    check_tensor_size(m, d)
    ent = {}
    for j in product(range(d), repeat=m):
        i = [0] * m
        for k in range(m):
            i[perm.images[k] - 1] = j[k]
        ent[(_flat_index(i, d), _flat_index(j, d))] = 1
    return SparseMatrix(d ** m, d ** m, ent)


def perm_action(u, d):
    """Linear extension of slot permutation to a group algebra element."""
    ent = {}
    for p, c in u.coeffs.items():
        add_scaled(ent, perm_matrix(p, d).entries, c)
    return SparseMatrix(d ** u.level, d ** u.level, ent)


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


def verify_wheel_action(m, d):
    """Exact check of act(x_m) = e_m-action / (m-1)!.

    Returns (passed, ratio) where ratio is the measured scalar relating the
    two operators (None when both vanish); a mismatch reports the measured
    ratio instead of silently renormalising.
    """
    N, den = alt2_wheel_raw(m, d)                    # x_m = N / m!
    left = act_on_power(N, m, d).entries             # act(x_m) * m!
    e_act = perm_action(e_element(m), d).entries
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
    return {(m, d): not alt2_wheel_raw(m, d)[0]
            for d in range(1, max_d + 1) for m in range(1, max_m + 1)}


# ---------------------------------------------------------------------------
# exterior invariants


def _wedge_basis(dim, m):
    return list(combinations(range(dim), m))


def _ad_wedge_matrix(g, xi, m):
    """ad(e_xi) on the m-th exterior power of g, in the sorted-tuple basis."""
    basis = _wedge_basis(g.dim, m)
    index = {b: i for i, b in enumerate(basis)}
    ent = {}
    for col, tup in enumerate(basis):
        for slot, i in enumerate(tup):
            for j, c in enumerate(g.table[xi][i]):
                if not c:
                    continue
                if j in tup and j != i:
                    continue
                rest = tup[:slot] + tup[slot + 1:]
                merged = tuple(sorted(rest + (j,)))
                # j starts at position `slot` in the wedge word; sort it in
                sign = (-1) ** slot * _insertion_sign(rest, j)
                add_scaled(ent, {(index[merged], col): c}, sign)
    n = len(basis)
    return SparseMatrix(n, n, ent)


def _insertion_sign(sorted_rest, j):
    # sign of sorting j into place within the increasing tuple
    pos = sum(1 for x in sorted_rest if x < j)
    return (-1) ** pos


def exterior_invariants_dims(g, maxdeg):
    """dim of the ad-invariants of each exterior power, degrees 0..maxdeg;
    refused before any kernel work above ``MAX_WEDGE_DIM`` basis vectors."""
    widest = max(comb(g.dim, m) for m in range(maxdeg + 1))
    if widest > MAX_WEDGE_DIM:
        raise ResourceLimitError("exterior power of dim %d exceeds the guard" % widest)
    out = [1]
    for m in range(1, maxdeg + 1):
        basis = _wedge_basis(g.dim, m)
        if not basis:
            out.append(0)
            continue
        mats = [_ad_wedge_matrix(g, xi, m) for xi in range(g.dim)]
        out.append(kernel_basis(SparseMatrix.vstack(mats)).dim)
    return out


# ---------------------------------------------------------------------------
# current algebras g (x) k[x]


def _current_bracket(g, a, b):
    """Bracket on g (x) k[x]: [(i,s), (j,u)] supported in x-degree s+u."""
    (i, s), (j, u) = a, b
    return [((k, s + u), c) for k, c in enumerate(g.table[i][j]) if c]


def current_invariants_dims(g, x_degree_bound, maxdeg, check_extra_power=False):
    """Invariant dims of the exterior powers of g (x) span{1..x^D}.

    Invariance is imposed under ad(xi (x) x^s) for s = 0..m (plus s = m+1
    when ``check_extra_power``); the images live in the larger window
    D + s, which is handled exactly.  Returns (dims, expected, agree) where
    expected counts the exterior powers of z(g) (x) span{1..x^D}.
    """
    D = x_degree_bound
    zdim = g.center().dim
    dims = [1]
    expected = [1]
    for m in range(1, maxdeg + 1):
        dom_labels = [(i, s) for s in range(D + 1) for i in range(g.dim)]
        dom_index = {l: i for i, l in enumerate(dom_labels)}
        dom_basis = list(combinations(range(len(dom_labels)), m))
        s_max = m + 1 if check_extra_power else m
        tgt_labels = [(i, s) for s in range(D + s_max + 1) for i in range(g.dim)]
        tgt_index = {l: i for i, l in enumerate(tgt_labels)}

        rows = {}
        for xi in range(g.dim):
            for s in range(s_max + 1):
                op = (xi, s)
                for col, tup in enumerate(dom_basis):
                    labels = [dom_labels[t] for t in tup]
                    for slot in range(m):
                        for lbl, c in _current_bracket(g, op, labels[slot]):
                            new = labels[:slot] + [lbl] + labels[slot + 1:]
                            idxs = [tgt_index[l] for l in new]
                            if len(set(idxs)) < m:
                                continue
                            sign = _sort_sign(idxs)
                            key_tuple = tuple(sorted(idxs))
                            row = rows.setdefault((xi, s, key_tuple), {})
                            add_scaled(row, {col: c}, sign)
        mat = SparseMatrix.from_row_dicts(list(rows.values()), len(dom_basis))
        dims.append(kernel_basis(mat).dim)
        expected.append(comb(zdim * (D + 1), m))
    return dims, expected, dims == expected


def _sort_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


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
    mats = []
    for xi in range(g.dim):
        A = g.ad_matrix(xi)
        cols_of_A = A.col_dicts()
        ent = {}
        for idx in product(range(g.dim), repeat=n):
            col = _flat_index(idx, g.dim)
            for k in range(n):
                add_scaled(ent, {(_flat_index(idx[:k] + (r,) + idx[k + 1:], g.dim), col): v
                                 for r, v in cols_of_A[idx[k]].items()})
        mats.append(SparseMatrix(dim, dim, ent))
    invariants = kernel_basis(SparseMatrix.vstack(mats))

    if n == 1:
        return invariants.dim
    gens = []
    for k in range(1, n):
        swap_ent = {}
        for idx in product(range(g.dim), repeat=n):
            j = list(idx)
            j[k - 1], j[k] = j[k], j[k - 1]
            swap_ent[(_flat_index(j, g.dim), _flat_index(idx, g.dim))] = 1
        T = SparseMatrix(dim, dim, swap_ent)
        mat_ent = {}
        for col, vec in enumerate(invariants.basis()):
            img = T.apply(vec)
            for r, c in invariants.coords_of(img).items():
                mat_ent[(r, col)] = c
        gens.append(SparseMatrix(invariants.dim, invariants.dim, mat_ent))
    module = SnModule(n, invariants.dim, gens, name="(g^%d)^g" % n)
    top = cubic_cohomology(cubic_invariants_diagram(module))[n - 1]
    independent = top_quotient(module)
    if top != independent:
        raise CrossCheckError("cubic top %d != direct quotient %d" % (top, independent))
    return top

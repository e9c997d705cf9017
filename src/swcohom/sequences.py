"""Multiplicative sequences of algebras and their three bundled instances.

A multiplicative sequence assigns to every level n a finite-dimensional
unital algebra A_n together with pairings mu_{m,n}: A_m (x) A_n -> A_{m+n}
that are unital algebra maps and associative across levels.  Bundled here:

* ``SymmetricGroupSequence``  - A_n = Q[S_n], mu = block placement;
* ``SkewGroupSequence``       - A_n = A^(x)n * S_n for a commutative A;
* ``HeckeSequence``           - degree-truncated degenerate affine Hecke
  algebras with generators t_i, y_j and the relation y_i t_i - t_i y_{i+1} = 1.

An element of level n is a sparse dict {basis label: coefficient} with no
stored zeros; its level is the explicit argument of every operation on it
(``multiply(n, ...)``, ``mu(m, n, ...)``).  Labels are plain tuples: a
permutation is its one-line tuple (``symgrp``), a skew label is (multi-index,
permutation) and a Hecke label (exponents of y, permutation).  The
coefficient algebra of the skew sequence is a ``linalg.StructureConstantSpec``.
Basis orders are fixed (permutations lexicographic; skew by (multi-index,
permutation); Hecke graded-lexicographic), so every matrix downstream is
reproducible bit for bit.
"""

from itertools import product

from . import CrossCheckError, ResourceLimitError, TruncationOverflowError
from .linalg import StructureConstantSpec, add_scaled
from .symgrp import (
    SWEEP_CAP,
    all_permutations,
    block_sum,
    compose,
    conjugate_by_t,
    identity,
    inverse,
    signed_class_basis,
    signed_class_dim,
    transposition,
    young_positions,
)


class MultiplicativeSequence:
    """Shared bilinear plumbing; subclasses provide basis-level products.

    Besides the products, a sequence declares facts, never routes, that
    ``homology`` may use: ``matrix_cap`` (the largest weight whose reduced
    quotient T_w is built from matrices), ``conjugate_label`` (where t_i b t_i
    sends a basis label), ``commutators`` (the [g, b] of one element g with
    basis elements b), ``reduced_dim_above_cap`` and
    ``delta_vanishes_dually``.  The defaults here claim nothing special, so
    above its level cap a sequence refuses.
    """

    seq_id = "abstract"

    def __init__(self, level_cap):
        self.level_cap = level_cap
        self._basis_cache = {}
        self._index_cache = {}
        self._conjugation_cache = {}    # (n, i) -> index permutation or None
        self.centralizer_cache = {}     # filled by homology: composition -> centralizer

    @property
    def matrix_cap(self):
        return self.level_cap

    def conjugate_label(self, label, i):
        """The label of t_i b t_i for the basis element b labelled ``label``,
        or None when conjugation by t_i does not send labels to labels."""
        return None

    def label_conjugation(self, n, i):
        """Conjugation by t_i as a permutation of A_n's basis indices, or None."""
        if (n, i) not in self._conjugation_cache:
            images = [self.conjugate_label(l, i) for l in self.basis(n)]
            self._conjugation_cache[(n, i)] = None if None in images else tuple(
                self.index_of(n)[l] for l in images)
        return self._conjugation_cache[(n, i)]

    def reduced_dim_above_cap(self, w):
        """dim T_w for w above ``matrix_cap``; no general formula, so refuse."""
        raise ResourceLimitError(
            "%s: level %d exceeds cap %d" % (self.seq_id, w, self.matrix_cap))

    def delta_vanishes_dually(self, w):
        """True when delta_w: T_w -> T_{w+1} is proved zero without matrices."""
        return False

    # -- subclass surface -------------------------------------------------
    def _build_basis(self, n):
        raise NotImplementedError

    def _mul_basis_raw(self, n, la, lb):
        """Product of two basis labels as a raw {label: int or Fraction} dict.

        Nothing here divides: integral structure constants give ``int``s.
        Labels in the result may fall outside the representable basis; the
        caller decides whether surviving ones are an error.
        """
        raise NotImplementedError

    def _mu_basis_label(self, m, n, la, lb):
        """mu of two basis labels; for the bundled sequences a single label."""
        raise NotImplementedError

    def commutators(self, n, g, indices):
        """[g, b_k] = g b_k - b_k g for the element ``g`` of A_n and every basis
        index k in ``indices``, as {k: raw {label: coefficient}}.

        As in ``_mul_basis_raw``, labels may fall outside the representable
        window.  This default sums two raw basis products per term of g; a
        sequence whose generators act on few labels may compute them directly.
        """
        labels = self.basis(n)
        out = {}
        for k in indices:
            acc = {}
            for gl, gc in g.items():
                add_scaled(acc, self._mul_basis_raw(n, gl, labels[k]), gc)
                add_scaled(acc, self._mul_basis_raw(n, labels[k], gl), -gc)
            out[k] = acc
        return out

    def one(self, n):
        raise NotImplementedError

    def _label_ok(self, n, label):
        return True

    # -- generic operations ------------------------------------------------
    def check_level(self, n):
        if n < 0:
            raise ValueError("negative level")
        if n > self.level_cap:
            raise ResourceLimitError(
                "%s: level %d exceeds cap %d" % (self.seq_id, n, self.level_cap))

    def basis(self, n):
        self.check_level(n)
        if n not in self._basis_cache:
            self._basis_cache[n] = tuple(self._build_basis(n))
        return self._basis_cache[n]

    def dim(self, n):
        return len(self.basis(n))

    def index_of(self, n):
        if n not in self._index_cache:
            self._index_cache[n] = {l: i for i, l in enumerate(self.basis(n))}
        return self._index_cache[n]

    def multiply(self, n, u, v):
        """Bilinear product in A_n; raises if a surviving term is unrepresentable."""
        acc = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                add_scaled(acc, self._mul_basis_raw(n, la, lb), ca * cb)
        for l in acc:
            if not self._label_ok(n, l):
                raise TruncationOverflowError(
                    "%s: product leaves the representable window at %r"
                    % (self.seq_id, l))
        return acc

    def mu(self, m, n, u, v):
        """The pairing A_m (x) A_n -> A_{m+n} applied to a pure tensor."""
        self.check_level(m + n)
        acc = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                add_scaled(acc, {self._mu_basis_label(m, n, la, lb): ca}, cb)
        return acc

    def unit_pairing(self, m, w, side):
        """The maps a -> mu(1_m (x) a) (``side`` "left") or a -> mu(a (x) 1_m)
        ("right") from A_w to A_{m+w}, on basis indices.

        Returns one sparse vector {index in A_{m+w}: coefficient} per basis
        index of A_w, summed over every term of ``one(m)``.  Applying it to a
        vector is the same as ``element_to_vec(mu(...))``, without building
        elements.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right', not %r" % (side,))
        idx = self.index_of(m + w)
        unit = self.one(m).items()
        out = []
        for lb in self.basis(w):
            col = {}
            for lu, c in unit:
                label = (self._mu_basis_label(m, w, lu, lb) if side == "left"
                         else self._mu_basis_label(w, m, lb, lu))
                add_scaled(col, {idx[label]: c})
            out.append(col)
        return out

    def subalgebra_generators(self, comp):
        raise NotImplementedError

    # -- coordinates -------------------------------------------------------
    def element_to_vec(self, n, u):
        idx = self.index_of(n)
        return {idx[l]: c for l, c in u.items()}

    def vec_to_element(self, n, vec):
        basis = self.basis(n)
        return {basis[i]: c for i, c in vec.items() if c}


# ---------------------------------------------------------------------------
# Q[S_*]


class SymmetricGroupSequence(MultiplicativeSequence):
    """Group algebras of the symmetric groups with block-placement pairings."""

    seq_id = "symmetric"
    # above this, dim T_w is the sign-twisted class count
    matrix_cap = 6

    def __init__(self, level_cap=8):
        super().__init__(level_cap)

    def _build_basis(self, n):
        return all_permutations(n)

    def one(self, n):
        return {identity(n): 1}

    def _mul_basis_raw(self, n, la, lb):
        return {compose(la, lb): 1}

    def _mu_basis_label(self, m, n, la, lb):
        return block_sum(la, lb)

    def subalgebra_generators(self, comp):
        n = sum(comp)
        self.check_level(n)
        return [{transposition(n, i): 1} for i in young_positions(comp)]

    def conjugate_label(self, label, i):
        return conjugate_by_t(label, i)

    def reduced_dim_above_cap(self, w):
        """dim T_w for Q[S_w] is the number of sign-twisted class functions."""
        if w > SWEEP_CAP:
            raise ResourceLimitError("class sweep of S_%d exceeds the guard (n <= %d)"
                                     % (w, SWEEP_CAP))
        return signed_class_dim(w)

    def delta_vanishes_dually(self, w):
        """Prove delta_w = 0 by pairing with every sign-twisted f on S_{w+1}.

        f(delta(a)) = f(shift a) + (-1)^(w+1) f(a extended by a fixed point); by
        sign-twisted conjugation-covariance the two terms cancel, and this
        checks that identity pointwise on all of S_w.
        """
        if w + 1 > SWEEP_CAP:
            return False
        for f in signed_class_basis(w + 1):
            for p in all_permutations(w):
                shifted = (1,) + tuple(v + 1 for v in p)
                extended = p + (w + 1,)
                if f.get(shifted, 0) + (-1) ** (w + 1) * f.get(extended, 0):
                    raise CrossCheckError(
                        "reduced differential does not vanish dually at weight %d" % w)
        return True


# ---------------------------------------------------------------------------
# commutative coefficient algebras and skew group algebras


class CommutativeAlgebraSpec(StructureConstantSpec):
    """Commutative associative unital algebra given by structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j; commutativity,
    associativity and the unit law are verified at construction.
    """

    vectors = ("unit",)

    def __init__(self, dim, table, unit, name=None):
        self.unit = tuple(unit)
        super().__init__(dim, table, name)

    def _validate(self):
        d = self.dim
        if len(self.unit) != d:
            raise ValueError("unit must have dim coordinates")
        for i in range(d):
            for j in range(i + 1, d):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("structure constants are not commutative")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = self.mul_coords(self.table[i][j], self._basis_vec(k))
                    right = self.mul_coords(self._basis_vec(i), self.table[j][k])
                    if left != right:
                        raise ValueError("structure constants are not associative")
        for i in range(d):
            if self.mul_coords(self.unit, self._basis_vec(i)) != self._basis_vec(i):
                raise ValueError("unit law fails")

    def unit_basis_index(self):
        """Index k when the unit is the basis vector e_k, else None."""
        ones = [k for k, c in enumerate(self.unit) if c]
        if len(ones) == 1 and self.unit[ones[0]] == 1:
            return ones[0]
        return None

    @classmethod
    def quadratic(cls, c=2):
        """Q[x]/(x^2 - c); the default c = 2 gives a quadratic field."""
        table = [[(1, 0), (0, 1)], [(0, 1), (c, 0)]]
        return cls(2, table, (1, 0), name="Q[x]/(x^2-%s)" % c)


class SkewGroupSequence(MultiplicativeSequence):
    """A^(x)n twisted by the permutation action: (a,s)(b,t) = (a.s(b), st)."""

    seq_id = "skew"

    def __init__(self, algebra=None, level_cap=4):
        super().__init__(level_cap)
        self.algebra = algebra if algebra is not None else CommutativeAlgebraSpec.quadratic()

    def _build_basis(self, n):
        perms = all_permutations(n)
        labels = []
        for a in product(range(self.algebra.dim), repeat=n):
            for p in perms:
                labels.append((a, p))
        return labels

    def one(self, n):
        return _slot_tensor([self.algebra.unit] * n, identity(n))

    def _permute_tuple(self, p, a):
        inv = inverse(p)
        return tuple(a[inv[l] - 1] for l in range(len(a)))

    def _mul_basis_raw(self, n, la, lb):
        (a, p), (b, q) = la, lb
        bp = self._permute_tuple(p, b)
        # slot l holds the product a_l * bp_l, read off the structure constants
        table = self.algebra.table
        return _slot_tensor([table[a[l]][bp[l]] for l in range(n)], compose(p, q))

    def _mu_basis_label(self, m, n, la, lb):
        (a, p), (b, q) = la, lb
        return (a + b, block_sum(p, q))

    def commutators(self, n, g, indices):
        """[g, b] per basis index, computed directly for a slot insertion.

        A slot insertion g = {(a, id): 1}, with a the unit index in every slot
        but s, multiplies one slot: g (b, q) multiplies slot s of b, and
        (b, q) g slot q(s), both through the table row of e_(a_s).  Any other
        g (several terms, as when the unit is no basis vector, a coefficient
        other than 1, or a non-identity permutation) takes the default route.
        """
        insertion = self._insertion_slot(n, g)
        if insertion is None:
            return super().commutators(n, g, indices)
        s, row = insertion

        def times_row(b, q, l):
            """(b, q) with slot l multiplied by the inserted basis vector."""
            return {(b[:l] + (m,) + b[l + 1:], q): x for m, x in enumerate(row[b[l]]) if x}

        labels = self.basis(n)
        out = {}
        for k in indices:
            b, q = labels[k]
            out[k] = add_scaled(times_row(b, q, s), times_row(b, q, q[s] - 1), -1)
        return out

    def _insertion_slot(self, n, g):
        """(s, table row) when ``g`` is the insertion of a basis vector into
        slot s, else None."""
        unit_ix = self.algebra.unit_basis_index()
        if unit_ix is None or len(g) != 1:
            return None
        ((a, p), c), = g.items()
        slots = [l for l, i in enumerate(a) if i != unit_ix]
        if c != 1 or p != identity(n) or len(slots) != 1:
            return None
        return slots[0], self.algebra.table[a[slots[0]]]

    def subalgebra_generators(self, comp):
        n = sum(comp)
        self.check_level(n)
        unit_ix = self.algebra.unit_basis_index()
        gens = [self._group_element(n, transposition(n, i)) for i in young_positions(comp)]
        for slot in range(n):
            for k in range(self.algebra.dim):
                if k != unit_ix:
                    gens.append(self._slot_insertion(n, slot, k))
        return gens

    def conjugate_label(self, label, i):
        """(a, p) -> (t_i a, t_i p t_i), whatever the unit of A; t_i a swaps
        the slots i and i+1 of the multi-index a."""
        a, p = label
        return (a[:i - 1] + (a[i], a[i - 1]) + a[i + 1:], conjugate_by_t(p, i))

    def _group_element(self, n, perm):
        return {(a, compose(p, perm)): c for (a, p), c in self.one(n).items()}

    def _slot_insertion(self, n, slot, k):
        vectors = [self.algebra.unit] * n
        vectors[slot] = [int(i == k) for i in range(self.algebra.dim)]
        return _slot_tensor(vectors, identity(n))


def _slot_tensor(vectors, perm):
    """The skew element (v_1 (x) ... (x) v_n, perm), the v_l coordinate
    vectors in A, expanded into basis labels in lexicographic order of the
    multi-index (every key is a distinct prefix, so nothing accumulates or
    cancels)."""
    partial = {(): 1}
    for v in vectors:
        partial = {prefix + (k,): c * x for prefix, c in partial.items()
                   for k, x in enumerate(v) if x}
    return {(a, perm): c for a, c in partial.items()}


# ---------------------------------------------------------------------------
# degree-truncated degenerate affine Hecke algebras


class HeckeSequence(MultiplicativeSequence):
    """Degenerate affine Hecke algebras on the basis y^a s, a_i <= D per slot.

    Products are rewritten to normal form exactly (intermediate terms are
    unbounded); a surviving term with some exponent beyond D raises
    ``TruncationOverflowError``.  The commutation calculus
    d_i(s) = y_i s - s y_{s^-1(i)} is exposed via :meth:`partial`.
    """

    seq_id = "hecke"

    def __init__(self, trunc_degree=3, level_cap=3):
        super().__init__(level_cap)
        self.trunc_degree = trunc_degree
        self._partial_cache = {}
        self._push_cache = {}

    def _build_basis(self, n):
        D = self.trunc_degree
        perms = all_permutations(n)
        exps = sorted(product(range(D + 1), repeat=n), key=lambda a: (sum(a), a))
        return [(a, p) for a in exps for p in perms]

    def _label_ok(self, n, label):
        a, _ = label
        return all(x <= self.trunc_degree for x in a)

    def one(self, n):
        return {((0,) * n, identity(n)): 1}

    # -- the d_i calculus --------------------------------------------------
    def partial(self, n, i, perm):
        """d_i(s) = y_i s - s y_{s^-1(i)} as an element of Q[S_n].

        Computed by the twisted Leibniz rule on a reduced word; always a
        group-algebra element of length strictly below l(s).
        """
        if not (1 <= i <= n):
            raise ValueError("index %d out of range" % i)
        key = (n, i, perm)
        hit = self._partial_cache.get(key)
        if hit is not None:
            return hit
        if perm == identity(n):
            out = {}
        else:
            j = self._left_descent(perm)
            tj = transposition(n, j)
            rest = compose(tj, perm)
            # d_i(t_j rest) = d_i(t_j) rest + t_j d_{t_j(i)}(rest)
            out = {}
            base = self._partial_of_t(i, j)
            if base:
                out[rest] = base
            ti = i + 1 if i == j else (i - 1 if i == j + 1 else i)
            add_scaled(out, {compose(tj, q): c for q, c in self.partial(n, ti, rest).items()})
        self._partial_cache[key] = out
        return out

    @staticmethod
    def _partial_of_t(i, j):
        if i == j:
            return 1
        if i == j + 1:
            return -1
        return 0

    @staticmethod
    def _left_descent(perm):
        inv = inverse(perm)
        for j in range(1, len(perm)):
            if inv[j - 1] > inv[j]:
                return j
        raise AssertionError("non-identity permutation has a left descent")

    def _push(self, n, perm, b):
        """Normal form of s y^b as {(exps, permutation): int}.

        Uses s y_j = y_{s(j)} s - d_{s(j)}(s) one variable at a time; every
        rewriting coefficient is +-1, so nothing divides.  Exponents in the
        output may exceed the truncation window.
        """
        key = (n, perm, b)
        hit = self._push_cache.get(key)
        if hit is not None:
            return hit
        if not any(b):
            out = {(b, perm): 1}
        else:
            j = next(k for k, x in enumerate(b) if x) + 1
            b2 = tuple(x - 1 if k == j - 1 else x for k, x in enumerate(b))
            sj = perm[j - 1]
            # raising the exponent of y_sj is injective on labels
            out = {(tuple(x + 1 if k == sj - 1 else x for k, x in enumerate(c)), rho): v
                   for (c, rho), v in self._push(n, perm, b2).items()}
            for tau, d in self.partial(n, sj, perm).items():
                add_scaled(out, self._push(n, tau, b2), -d)
        self._push_cache[key] = out
        return out

    def _mul_basis_raw(self, n, la, lb):
        (a, p), (b, q) = la, lb
        # (c, rho) -> (a + c, rho q) is injective, so no two terms meet
        return {(tuple(x + y for x, y in zip(a, c)), compose(rho, q)): v
                for (c, rho), v in self._push(n, p, b).items()}

    def _mu_basis_label(self, m, n, la, lb):
        (a, p), (b, q) = la, lb
        return (a + b, block_sum(p, q))

    def subalgebra_generators(self, comp):
        n = sum(comp)
        self.check_level(n)
        zero = (0,) * n
        gens = [{(zero, transposition(n, i)): 1} for i in young_positions(comp)]
        for i in range(n):
            e = tuple(1 if k == i else 0 for k in range(n))
            gens.append({(e, identity(n)): 1})
        return gens


def bundled_sequence(seq_id, algebra=None, trunc_degree=3):
    """Construct one of the three bundled sequences by identifier."""
    if seq_id == "symmetric":
        return SymmetricGroupSequence()
    if seq_id == "skew":
        return SkewGroupSequence(algebra=algebra)
    if seq_id == "hecke":
        return HeckeSequence(trunc_degree=trunc_degree)
    raise ValueError("unknown sequence %r" % seq_id)

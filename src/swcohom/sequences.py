"""Multiplicative sequences of algebras and their three bundled instances.

A multiplicative sequence assigns to every level n a finite-dimensional
unital algebra A_n together with pairings mu_{m,n}: A_m (x) A_n -> A_{m+n}
that are unital algebra maps and associative across levels.  Bundled here:

* ``SymmetricGroupSequence``  - A_n = Q[S_n], mu = block placement;
* ``SkewGroupSequence``       - A_n = A^(x)n * S_n for a commutative A;
* ``HeckeSequence``           - degree-truncated degenerate affine Hecke
  algebras with generators t_i, y_j and the relation y_i t_i - t_i y_{i+1} = 1;
  t_j passes a monomial by a divided difference, and d_i is read off the product.

An element of level n is a sparse dict {basis label: coefficient} with no
stored zeros; its level is the explicit argument of every operation on it
(``multiply(n, ...)``, ``mu(m, n, ...)``).  Labels are plain tuples: a
permutation is its one-line tuple (``symgrp``), a skew label is (multi-index,
permutation) and a Hecke label (exponents of y, permutation).  Skew and Hecke
are ``SlotPermutationSequence``s: the base owns basis, unit, pairing and Young
generators, and each declares its slot data, slot unit, slot generators and
``_mul_basis_raw``.  Skew's coefficient algebra is a
``linalg.StructureConstantSpec``.  Basis orders are fixed (permutations
lexicographic; skew by (multi-index, permutation); Hecke graded-lexicographic),
so every matrix downstream is reproducible bit for bit.
"""

from itertools import product

from . import CrossCheckError, ResourceLimitError, TruncationOverflowError
from .linalg import StructureConstantSpec, add_scaled, combination
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
        ("right") from A_w to A_{m+w}, on basis indices: per basis element b
        of A_w, ``mu`` of ``one(m)`` and b as a sparse vector {index in
        A_{m+w}: coefficient}."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right', not %r" % (side,))
        one = self.one(m)
        return [self.element_to_vec(m + w, self.mu(m, w, one, {b: 1}) if side == "left"
                                    else self.mu(w, m, {b: 1}, one)) for b in self.basis(w)]

    def subalgebra_generators(self, comp):
        raise NotImplementedError

    # -- coordinates -------------------------------------------------------
    def element_to_vec(self, n, u):
        idx = self.index_of(n)
        return {idx[l]: c for l, c in u.items()}

    def vec_to_element(self, n, vec):
        basis = self.basis(n)
        return {basis[i]: c for i, c in vec.items() if c}


class SlotPermutationSequence(MultiplicativeSequence):
    """Labels (slot data, permutation); basis, unit, pairing and the Young t_i
    are defined here once.  A subclass declares ``_slot_data(n)`` in basis
    order, ``slot_unit`` (the coordinates of 1 in one slot),
    ``_slot_generators(n)`` and ``_mul_basis_raw``."""

    def _build_basis(self, n):
        return [(a, p) for a in self._slot_data(n) for p in all_permutations(n)]

    def one(self, n):
        return _slot_tensor([self.slot_unit] * n, identity(n))

    def _mu_basis_label(self, m, n, la, lb):
        (a, p), (b, q) = la, lb
        return (a + b, block_sum(p, q))

    def subalgebra_generators(self, comp):
        """Each Young t_i as one(n) t_i, then the slot generators."""
        n = sum(comp)
        self.check_level(n)
        return [{(a, compose(p, transposition(n, i))): c for (a, p), c in self.one(n).items()}
                for i in young_positions(comp)] + self._slot_generators(n)


def _slot_tensor(vectors, perm):
    """The element (v_1 (x) ... (x) v_n, perm), each v_l the coordinates of
    slot l, expanded into basis labels in lexicographic order of the slot
    data (every key is a distinct prefix, so nothing accumulates or
    cancels)."""
    partial = {(): 1}
    for v in vectors:
        partial = {prefix + (k,): c * x for prefix, c in partial.items()
                   for k, x in enumerate(v) if x}
    return {(a, perm): c for a, c in partial.items()}


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
        d, products = self.dim, self.products
        if len(self.unit) != d:
            raise ValueError("unit must have dim coordinates")
        for i in range(d):
            for j in range(i + 1, d):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("structure constants are not commutative")
        # commutative, so (e_i e_j) e_k = sum_t c_ij^t e_k e_t and u e_i = sum_t u_t e_i e_t
        for i, j, k in product(range(d), repeat=3):
            if combination(products[k], products[i][j]) != combination(products[i],
                                                                       products[j][k]):
                raise ValueError("structure constants are not associative")
        unit = {t: c for t, c in enumerate(self.unit) if c}
        for i in range(d):
            if combination(products[i], unit) != {i: 1}:
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


class SkewGroupSequence(SlotPermutationSequence):
    """A^(x)n twisted by the permutation action: (a,s)(b,t) = (a.s(b), st)."""

    seq_id = "skew"

    def __init__(self, algebra=None, level_cap=4):
        super().__init__(level_cap)
        self.algebra = algebra if algebra is not None else CommutativeAlgebraSpec.quadratic()

    def _slot_data(self, n):
        return product(range(self.algebra.dim), repeat=n)

    @property
    def slot_unit(self):
        return self.algebra.unit

    def _slot_generators(self, n):
        unit_ix = self.algebra.unit_basis_index()
        return [self._slot_insertion(n, slot, k) for slot in range(n)
                for k in range(self.algebra.dim) if k != unit_ix]

    def _permute_tuple(self, p, a):
        inv = inverse(p)
        return tuple(a[inv[l] - 1] for l in range(len(a)))

    def _mul_basis_raw(self, n, la, lb):
        (a, p), (b, q) = la, lb
        bp = self._permute_tuple(p, b)
        # slot l holds the product a_l * bp_l, read off the structure constants
        table = self.algebra.table
        return _slot_tensor([table[a[l]][bp[l]] for l in range(n)], compose(p, q))

    def commutators(self, n, g, indices):
        """[g, b] per basis index, computed directly for a slot insertion.

        A slot insertion g = {(a, id): 1}, with a the unit index in every slot
        but s and e = a_s, multiplies one slot: g (b, q) multiplies slot s of b
        by e_e on the left (the row table[e][x]), and (b, q) g slot q(s) on the
        right (the column table[x][e]).  Any other g (several terms, as when the
        unit is no basis vector, a coefficient other than 1, or a non-identity
        permutation) takes the default route.
        """
        insertion = self._insertion_slot(n, g)
        if insertion is None:
            return super().commutators(n, g, indices)
        s, e = insertion
        table = self.algebra.table
        row, column = table[e], [table[x][e] for x in range(self.algebra.dim)]

        def times(b, q, l, entries):
            """(b, q) with slot l replaced by the coordinates entries[b_l]."""
            return {(b[:l] + (m,) + b[l + 1:], q): x for m, x in enumerate(entries[b[l]]) if x}

        labels = self.basis(n)
        out = {}
        for k in indices:
            b, q = labels[k]
            out[k] = add_scaled(times(b, q, s, row), times(b, q, q[s] - 1, column), -1)
        return out

    def _insertion_slot(self, n, g):
        """(s, e) when ``g`` is the insertion of the basis vector e_e into
        slot s, else None."""
        unit_ix = self.algebra.unit_basis_index()
        if unit_ix is None or len(g) != 1:
            return None
        ((a, p), c), = g.items()
        slots = [l for l, i in enumerate(a) if i != unit_ix]
        if c != 1 or p != identity(n) or len(slots) != 1:
            return None
        return slots[0], a[slots[0]]

    def conjugate_label(self, label, i):
        """(a, p) -> (t_i a, t_i p t_i), whatever the unit of A; t_i a swaps
        the slots i and i+1 of the multi-index a."""
        a, p = label
        return (a[:i - 1] + (a[i], a[i - 1]) + a[i + 1:], conjugate_by_t(p, i))

    def _slot_insertion(self, n, slot, k):
        vectors = [self.algebra.unit] * n
        vectors[slot] = [int(i == k) for i in range(self.algebra.dim)]
        return _slot_tensor(vectors, identity(n))


# ---------------------------------------------------------------------------
# degree-truncated degenerate affine Hecke algebras


class HeckeSequence(SlotPermutationSequence):
    """Degenerate affine Hecke algebras on the basis y^a s, a_i <= D per slot.

    Products are rewritten to normal form exactly (intermediate terms are
    unbounded); a surviving term with some exponent beyond D raises
    ``TruncationOverflowError``.  One rule rewrites: the Bernstein-Lusztig
    relation t_j f = (t_j.f) t_j + (f - t_j.f) / (y_j - y_{j+1}) for a
    polynomial f in the y.  The commutation calculus
    d_i(s) = y_i s - s y_{s^-1(i)} is read off the product by :meth:`partial`.
    """

    seq_id = "hecke"

    def __init__(self, trunc_degree=3, level_cap=3):
        super().__init__(level_cap)
        self.trunc_degree = trunc_degree
        self._push_cache = {}

    def _slot_data(self, n):
        return sorted(product(range(self.trunc_degree + 1), repeat=n),
                      key=lambda a: (sum(a), a))

    @property
    def slot_unit(self):
        return (1,) + (0,) * self.trunc_degree     # y^0

    def _slot_generators(self, n):
        # the y_i as labels: at D = 0 a slot tensor of e_1 would be zero
        return [{(tuple(int(k == i) for k in range(n)), identity(n)): 1} for i in range(n)]

    def _label_ok(self, n, label):
        a, _ = label
        return all(x <= self.trunc_degree for x in a)

    def partial(self, n, i, perm):
        """d_i(s) = y_i s - s y_{s^-1(i)} as an element of Q[S_n].

        Read off the product: with k = s^-1(i), the normal form of s y_k is
        y_i s - d_i(s), so d_i(s) is minus its y-free part.  Always a
        group-algebra element of length strictly below l(s).
        """
        if not (1 <= i <= n):
            raise ValueError("index %d out of range" % i)
        k = inverse(perm)[i - 1]
        e_k = tuple(int(l == k) for l in range(1, n + 1))
        return {rho: -v for (c, rho), v in self._push(n, perm, e_k).items() if not any(c)}

    def _push(self, n, perm, b):
        """Normal form of s y^b as {(exps, permutation): int}.

        Recursion over a reduced word of s: for a left descent t_j of s, t_j
        passes each term v y^c rho of (t_j s) y^b as y^(t_j c) t_j plus the
        divided difference (y^c - y^(t_j c)) / (y_j - y_{j+1}), which for
        x = c_j > y = c_{j+1} is the sum of y_j^(y+k) y_{j+1}^(x-1-k) over
        k < x - y (minus that, x and y swapped, when x < y): nothing divides.
        Exponents in the output may exceed the truncation window.
        """
        key = (n, perm, b)
        hit = self._push_cache.get(key)
        if hit is not None:
            return hit
        if perm == identity(n):
            out = {(b, perm): 1}
        else:
            inv = inverse(perm)
            j = next(j for j in range(1, n) if inv[j] < inv[j - 1])   # j + 1 left of j
            tj = transposition(n, j)
            out = {}
            for (c, rho), v in self._push(n, compose(tj, perm), b).items():
                head, (x, y), tail = c[:j - 1], c[j - 1:j + 1], c[j + 1:]
                lo, hi = sorted((x, y))
                terms = {(head + (y, x) + tail, compose(tj, rho)): v}
                terms.update(((head + (lo + k, hi - 1 - k) + tail, rho), v if x > y else -v)
                             for k in range(hi - lo))
                add_scaled(out, terms)
        self._push_cache[key] = out
        return out

    def _mul_basis_raw(self, n, la, lb):
        (a, p), (b, q) = la, lb
        # (c, rho) -> (a + c, rho q) is injective, so no two terms meet
        return {(tuple(x + y for x, y in zip(a, c)), compose(rho, q)): v
                for (c, rho), v in self._push(n, p, b).items()}


def bundled_sequence(seq_id, algebra=None, trunc_degree=3):
    """Construct one of the three bundled sequences by identifier."""
    if seq_id == "symmetric":
        return SymmetricGroupSequence()
    if seq_id == "skew":
        return SkewGroupSequence(algebra=algebra)
    if seq_id == "hecke":
        return HeckeSequence(trunc_degree=trunc_degree)
    raise ValueError("unknown sequence %r" % seq_id)

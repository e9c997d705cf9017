"""Exact sparse linear algebra over Q, fraction-free inside.

A coefficient is an ``int``, or a ``Fraction`` only where a caller gets a
rational number back.  ``Echelon`` stores each row as a primitive integer
dict whose positive pivot value d stands for the RREF row ``row / d``, and
``rank`` eliminates on integer rows: at a pivot other than +-1 a row is
updated as ``d*row - a*pivot_row`` and its content divided out, so no
``Fraction`` arises inside either.  One is built only at the boundary, and
only where d does not divide: in the RREF rows of ``Echelon.basis``, in the
exact residue of ``Echelon.reduce``, and where ``image_coords`` divides
the coordinates of an integral row's image back to an RREF basis.  Rational
inputs to ``insert`` and ``rank`` are cleared to integers on entry through
their ``denominator``; a residue or a zero test takes them as they come.

Vectors are dicts {index: coefficient} with no stored zeros, and
``add_scaled`` adds a scaled sparse vector into another.  Four hot loops
accumulate inline instead: the row updates of ``Echelon.insert`` and
``_pivot_rows``, which also keep a column index, the ``d.d`` check of
``CochainComplex``, which keeps zeros until its one test, and the orbit
sums of ``homology._average``.  Matrices store a sparse {(row, col):
coefficient} map, and coordinates in a subspace basis are sparse too.
Nothing is randomised: ``rank`` is one sparse elimination over Q with no
back-substitution: a row with one entry left is pivoted first, with no
arithmetic, and otherwise the pivots are Markowitz-style.  Echelon bases (kernels, images, subspace
arithmetic) are kept in full (fraction-free) RREF by ``Echelon``.
Rows that are already in that form, the 0/1 indicators of disjoint supports
each headed by its least index (orbit sums, unit vectors), are adopted
without elimination as flat index arrays (``Subspace.from_positions``): per
index the position of its support, and per support its head and size.  Such
a space keeps no dict rows, and an accepted insert turns it into an ordinary
echelon.  A single vector (``contains``, ``coords_of``) and the small image of
a face's index map are looked up entry by entry in the arrays, and a block of
``image_coords`` between two such spaces under the identity is proven by one
comparison of label arrays; every other block goes row by row.

A subspace is its echelon form: ``Subspace`` is an ``Echelon`` that knows
its ambient dimension and answers membership (``contains``, ``coords_of``),
and a ``QuotientSpace`` V/U is the ``Subspace`` of its coset
representatives, which also keeps U.  Every constructor of a subspace (the
``from_*`` classmethods, ``kernel_basis``, ``subspace_sum``,
``subspace_intersect``, ``QuotientSpace``) fills the object it returns
itself, and none holds a second ``Echelon``.

The same sparse dicts carry algebra elements: an element of A_n is a plain
{basis label: coefficient} dict with no stored zeros, its level n passed
alongside it.  ``StructureConstantSpec`` holds the structure constants of
small algebras given by a multiplication table.
"""

import json
from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm
from operator import attrgetter

from . import CrossCheckError

_denominator = attrgetter("denominator")
_numerator = attrgetter("numerator")


def _common_denominator(values):
    """The least common multiple of the denominators of ``values`` (1 for ints)."""
    return lcm(*set(map(_denominator, values)))


def add_scaled(acc, vec, coef=1):
    """Add ``coef`` times the sparse vector ``vec`` into ``acc``; returns ``acc``.

    Keys whose sum cancels are dropped, so ``acc`` never stores a zero.
    """
    for k, v in vec.items():
        s = acc.get(k, 0) + coef * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def combination(vectors, coeffs):
    """sum_j coeffs[j] vectors[j]: ``coeffs`` under a map given per basis index."""
    out = {}
    for j, c in coeffs.items():
        add_scaled(out, vectors[j], c)
    return out


def divided(vec, d):
    """The sparse vector ``vec`` / d for a positive int d: an ``int`` wherever d
    divides, a ``Fraction`` elsewhere.  ``vec`` itself when d is 1."""
    if d == 1:
        return vec
    return {c: Fraction(x, d) if x % d else x // d for c, x in vec.items()}


class SparseMatrix:
    """Immutable sparse matrix over Q.  Entries: {(row, col): int or Fraction}."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError("entry (%d,%d) outside %dx%d" % (i, j, rows, cols))
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def _adopt(cls, rows, cols, entries):
        """Wrap ``entries`` as they are: already in bounds, zero-free and unshared."""
        M = cls.__new__(cls)
        M.rows, M.cols, M.entries = rows, cols, entries
        return M

    @classmethod
    def from_row_dicts(cls, row_dicts, cols):
        return cls(len(row_dicts), cols,
                   {(i, j): v for i, row in enumerate(row_dicts) for j, v in row.items()})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def permutation(cls, perm):
        """The 0/1 matrix sending basis index j to perm[j]; ``perm``, a
        permutation of range(len(perm)), is not checked."""
        return cls._adopt(len(perm), len(perm), {(i, j): 1 for j, i in enumerate(perm)})

    def row_dicts(self):
        out = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def col_dicts(self):
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        rows_of_other = other.row_dicts()
        out = [dict() for _ in range(self.rows)]
        for (i, k), v in self.entries.items():
            add_scaled(out[i], rows_of_other[k], v)
        return SparseMatrix._adopt(self.rows, other.cols, {
            (i, j): v for i, row in enumerate(out) for j, v in row.items()})

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


class Echelon:
    """Incrementally maintained echelon form over Q, stored fraction-free.

    Each row, stored per pivot column, is a primitive integer dict (its
    entries have gcd 1) whose pivot value, its entry at the pivot column, is
    positive; every pivot column is cleared from every other stored row.  So
    a row divided by its pivot value is the row of the reduced row echelon
    form (RREF), and ``basis`` builds exactly that, with a ``Fraction`` only
    where the pivot value does not divide.  A column index keeps
    back-substitution proportional to actual fill.  A space adopted from
    indicators holds index arrays in place of both, builds its 0/1 rows on
    each read of ``rows``, and keeps them from its first accepted ``insert``
    on.  The sorted pivot list is built on first use and dropped by every
    accepted ``insert``.
    """

    __slots__ = ("_rows", "_uses", "_pos", "_sizes", "_pivots")

    def __init__(self):
        self._rows = {}         # pivot col -> primitive integer row dict
        self._uses = {}         # col -> set of pivot cols whose rows touch it
        self._pos = None        # adopted only: index -> its support's position, or -1
        self._sizes = None      # adopted only: support sizes in pivot order
        self._pivots = None     # sorted pivot cols, cached (adopted: the heads)

    @property
    def dim(self):
        return len(self._rows if self._pos is None else self._pivots)

    @property
    def rows(self):
        """{pivot col: primitive integer row dict} (shared; do not mutate),
        built afresh on each read for a space adopted from indicators."""
        pos = self._pos
        if pos is None:
            return self._rows
        out = [{} for _ in self._pivots]
        for k, p in enumerate(pos):
            if p >= 0:
                out[p][k] = 1
        return dict(zip(self._pivots, out))

    @property
    def pivots(self):
        """Pivot columns in increasing order (shared; do not mutate)."""
        if self._pivots is None:
            self._pivots = sorted(self._rows)
        return self._pivots

    def basis(self):
        """The RREF rows in pivot order, as new dicts."""
        return [dict(row) if d == 1 else divided(row, d) for row, d in self.integral_rows()]

    def integral_rows(self):
        """The basis as (row, d) pairs in pivot order, ``basis()[k] == row / d``:
        ``row`` is a primitive integer dict (shared; do not mutate) and ``d``
        its positive pivot value."""
        rows = self.rows
        return [(rows[p], rows[p][p]) for p in self.pivots]

    def _residue(self, vec):
        """(w, s): a new vector w and a positive int s such that w / s is the
        residue of ``vec`` after clearing every pivot coordinate; w is
        integral when ``vec`` is."""
        return self._clear({c: x for c, x in vec.items() if x})

    def _clear(self, w):
        """Clear every pivot coordinate of the zero-free vector ``w`` in place;
        returns (w, s) with w / s the residue of the ``w`` given.

        One pass suffices: a stored row is zero in every other pivot column,
        so clearing pivot p never changes w at another pivot, and w[p] is
        still s times its value on entry when p is reached.  At a pivot value
        e, w[p] = a is cleared by w := (e/g) w - (a/g) row with g = gcd(a, e)
        (g = 1 for a non-integral a); at e = 1 that is the plain update
        w -= a row.
        """
        rows = self._rows if self._pos is None else self.rows
        s = 1
        for c in list(w):
            if c in rows:
                row = rows[c]
                a = w[c]
                e = row[c]
                if e != 1:
                    g = gcd(a.numerator, e) if a.denominator == 1 else 1
                    if g != 1:
                        e //= g
                        a //= g
                    if e != 1:
                        for k in w:
                            w[k] *= e
                        s *= e
                add_scaled(w, row, -a)
        return w, s

    def reduce(self, vec):
        """The exact residue of ``vec`` after clearing every pivot coordinate."""
        w, s = self._residue(vec)
        return divided(w, s)

    def insert(self, vec):
        """Reduce and, if nonzero, add as a new pivot row.  Returns the pivot or None.

        The denominators of ``vec`` are cleared on entry, and the row is
        stored primitive with a positive pivot value d.
        """
        k = _common_denominator(vec.values())
        row, _ = self._clear({c: (x * k).numerator for c, x in vec.items() if x})
        if not row:
            return None
        piv = min(row)
        d = row[piv]
        if d != 1:
            g = gcd(*row.values())
            if d < 0:
                g = -g
            if g != 1:
                row = {c: x // g for c, x in row.items()}
            d = row[piv]
        if self._pos is not None:
            self._rows = self.rows
            self._uses = {k: {h} for h, r in self._rows.items() for k in r}
            self._pos = self._sizes = None
        rows, uses = self._rows, self._uses
        # clear the new pivot column from existing rows: orow := d orow - a row,
        # both scaled down by g = gcd(a, d), then orow's content divided out
        for other in list(uses.get(piv, ())):
            orow = rows[other]
            a = orow.pop(piv)
            uses[piv].discard(other)
            if d != 1:
                g = gcd(a, d)
                a //= g
                if d != g:
                    m = d // g
                    for c in orow:
                        orow[c] *= m
            for c, x in row.items():
                if c == piv:
                    continue
                s = orow.get(c, 0) - a * x
                if s:
                    if c not in orow:
                        uses.setdefault(c, set()).add(other)
                    orow[c] = s
                elif c in orow:
                    del orow[c]
                    uses[c].discard(other)
            if orow[other] != 1:
                g = gcd(*orow.values())
                if g != 1:
                    for c in orow:
                        orow[c] //= g
        rows[piv] = row
        self._pivots = None
        for c in row:
            uses.setdefault(c, set()).add(piv)
        return piv


class Subspace(Echelon):
    """Subspace of Q^ambient_dim: the echelon form of its basis, plus membership."""

    __slots__ = ("ambient_dim",)

    def __init__(self, ambient_dim):
        super().__init__()
        self.ambient_dim = ambient_dim

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        out = cls(ambient_dim)
        for v in vectors:
            for c in v:
                if not (0 <= c < ambient_dim):
                    raise ValueError("coordinate %d outside ambient %d" % (c, ambient_dim))
            out.insert(v)
        return out

    @classmethod
    def from_positions(cls, pos, heads, sizes):
        """The span in Q^len(pos) of the 0/1 indicators of disjoint supports,
        adopted unchecked: such an indicator is already an RREF row with pivot
        value 1 at its head.  ``pos[k]`` is the position of k's support or -1,
        and ``heads`` (increasing) and ``sizes`` list the supports' least
        indices and sizes."""
        out = cls(len(pos))
        out._pos, out._pivots, out._sizes = pos, heads, sizes
        return out

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim):
        indices = list(range(ambient_dim))
        return cls.from_positions(indices, indices, [1] * ambient_dim)

    def contains(self, vec):
        if self._pos is not None:
            return self._looked_up(compress(vec.items(), vec.values()), vec.get) is not None
        return not self._residue(vec)[0]

    def coords_of(self, vec):
        """Sparse coordinates {position: int or Fraction} of ``vec`` in ``basis()``.

        Only nonzero coefficients are stored; raises ValueError if ``vec`` is
        not a member.  In RREF the coefficient along the row with pivot p is
        simply vec[p], so an ``int`` entry stays an ``int``.
        """
        if self._pos is not None:
            coords = self._looked_up(compress(vec.items(), vec.values()), vec.get)
            if coords is None:
                raise ValueError("vector not in subspace")
            return coords
        if self._residue(vec)[0]:
            raise ValueError("vector not in subspace")
        pivots, rows = self.pivots, self._rows
        return {bisect_left(pivots, c): v for c, v in vec.items() if v and c in rows}

    def _looked_up(self, entries, label_at):
        """{support position: label} if the (index, label) pairs ``entries``
        (distinct indices; ``label_at`` gives the label at any index) carry one
        label on each support of this adopted space that they meet, and cover
        it; else None.  One pass: the head of each index's support must carry
        its label, and the sizes of the supports met at their heads must add up
        to the number of indices.  It serves a single sparse vector and the
        small image of a face's index map, not a block under the identity."""
        pos, heads, sizes = self._pos, self._pivots, self._sizes
        n, found, missing = len(pos), {}, 0
        for c, x in entries:
            p = pos[c] if 0 <= c < n else -1
            if p < 0 or label_at(heads[p]) != x:
                return None
            missing -= 1
            if heads[p] == c:
                missing += sizes[p]
                found[p] = x
        return None if missing else found

    def image_coords(self, source, index_map, offset, sign):
        """``coords_of`` the image under ``index_map`` (per basis index, or None
        for the identity) of each basis row of the Subspace ``source``, in pivot
        order, with positions moved up by ``offset`` and values times ``sign``;
        ValueError if one is not a member.  Between spaces adopted from
        indicators ``_proven_block`` proves the whole block at once; every
        other block goes row by row through ``coords_of``."""
        found = self._proven_block(source, index_map)
        if found is not None:
            coords = [{} for _ in source.pivots]
            for p, j in found:
                coords[j][offset + p] = sign
            return coords
        out = []
        for vec, d in source.integral_rows():
            coords = self.coords_of(vec if index_map is None else combination(index_map, vec))
            out.append({offset + r: sign * c for r, c in divided(coords, d).items()})
        return out

    def _proven_block(self, source, index_map):
        """(p, j) for each support p of this space that the image of row j of
        ``source`` under ``index_map`` covers with coefficient 1; ValueError if
        an image leaves this space.  None unless both spaces are adopted from
        indicators and the map is the identity on one ambient, or sends indices
        injectively to indices with coefficient 1.  Labelled by the source
        support it comes from, each image index must carry the label of its
        support's head, and each support an image meets must be covered.  Under
        the identity one comparison of arrays tests every index at once (one
        off every support carries -1); a face's index map has a small image,
        which ``_looked_up`` tests index by index."""
        pos, owner = self._pos, source._pos
        if pos is None or owner is None:
            return None
        if index_map is None:
            if len(owner) != len(pos):
                return None
            head_label = list(map(owner.__getitem__, self._pivots))
            head_label.append(-1)   # the label of every index off the supports
            if list(map(head_label.__getitem__, pos)) != owner:
                raise ValueError("vector not in subspace")
            return compress(enumerate(head_label), map((-1).__lt__, head_label))
        terms = [index_map[k] for k, _ in compress(enumerate(owner), map((-1).__lt__, owner))]
        images = dict(zip(chain.from_iterable(terms), filter((-1).__lt__, owner)))
        if set(map(len, terms)) != {1} or len(images) != len(terms) \
                or set(chain.from_iterable(map(dict.values, terms))) != {1}:
            return None     # several terms, a coefficient other than 1, or not injective
        found = self._looked_up(images.items(), images.get)
        if found is None:
            raise ValueError("vector not in subspace")
        return found.items()

    def contains_subspace(self, other):
        return all(self.contains(row) for row, _ in other.integral_rows())

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __repr__(self):
        return "%s(dim %d of Q^%d)" % (type(self).__name__, self.dim, self.ambient_dim)


# ---------------------------------------------------------------------------
# ranks


def rank(M):
    """Rank over Q: the number of pivot rows ``_pivot_rows`` finds in M."""
    return len(_pivot_rows(M.row_dicts()))


def _pivot_rows(rows):
    """Indices of a maximal independent subset of the row dicts ``rows``
    (consumed): the pivot rows of a right-looking, fraction-free sparse
    elimination.

    A row with one entry left is pivoted first, from a stack, with no
    arithmetic: its column only drops out of the rows that hold it.  Else
    each step pivots on the shortest live row (a heap of (length, row) with
    lazy deletion) and, inside it, on the column held by the fewest rows (a
    column -> rows index; the counts include rows that have since dropped the
    column, which only makes the choice a heuristic), eliminated from exactly
    the rows that index lists.  A row left with one entry joins the stack,
    and the loop stops once every nonzero row is pivoted or emptied.
    Choosing sparse pivots keeps the fill of these 0/+-1 boundary matrices
    small.  Fraction entries are cleared to integers on entry, and every row
    stays integral: at a pivot x other than +-1 a row with entry y there
    becomes (x/g) row - (y/g) pivot row, g = gcd(x, y), with its content
    divided out.
    """
    den = _common_denominator(chain.from_iterable(map(dict.values, rows)))
    if den != 1:
        rows = [{c: (x * den).numerator for c, x in row.items()} for row in rows]
    cols = {}  # col -> rows that held it when last touched
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, []).append(i)
    stack = [i for i, row in enumerate(rows) if len(row) == 1]
    heap = [(len(row), i) for i, row in enumerate(rows) if len(row) > 1]
    heapify(heap)
    live = len(stack) + len(heap)   # nonzero rows not yet pivoted
    pivots = []
    while live:
        if stack:
            i = stack.pop()
            if not rows[i]:
                continue  # emptied by an earlier one-entry pivot
        else:
            length, i = heappop(heap)
            if rows[i] is None or len(rows[i]) != length:
                continue  # a pivot row already, or a stale length
        prow, rows[i] = rows[i], None
        pivots.append(i)
        live -= 1
        j = min(prow, key=lambda c: len(cols[c])) if len(prow) > 1 else next(iter(prow))
        x = prow.pop(j)
        unit = x in (1, -1)
        # no live row holds j afterwards, and fill only copies live columns
        for k in cols.pop(j):
            row = rows[k]
            y = row.pop(j, None) if row else None
            if y is None:
                continue
            if prow:    # else a structural pivot: dropping j was all
                if unit:
                    coef = y * x
                else:
                    # integral values; .numerator also serves a Fraction-typed one
                    g = gcd(x.numerator, y.numerator)
                    m, coef = x // g, y // g
                    if m < 0:
                        m, coef = -m, -coef
                    if m != 1:
                        for c in row:
                            row[c] *= m
                for c, z in prow.items():
                    s = row.get(c, 0) - coef * z
                    if s:
                        if c not in row:
                            cols[c].append(k)
                        row[c] = s
                    elif c in row:
                        del row[c]
                if row and not unit:
                    g = gcd(*map(_numerator, row.values()))
                    if g != 1:
                        for c in row:
                            row[c] //= g
            if len(row) > 1:
                heappush(heap, (len(row), k))
            elif row:
                stack.append(k)
            else:
                live -= 1
    return pivots


# ---------------------------------------------------------------------------
# kernels, images, subspace arithmetic


def kernel_basis(M):
    """Right kernel {x : Mx = 0} as a Subspace of Q^cols."""
    ech = Echelon()
    for row in M.row_dicts():
        ech.insert(row)
    rows = ech.rows
    users = {}      # free col j -> {pivot p: row_p[j]}
    for p, row in rows.items():
        for j, x in row.items():
            if j != p:
                users.setdefault(j, {})[p] = x
    out = Subspace(M.cols)
    for j in range(M.cols):
        if j in rows:
            continue
        # x_j = 1 and x_p = -row_p[j] / d_p, all scaled by the lcm of the d_p
        col = users.get(j, {})
        scale = lcm(*(rows[p][p] for p in col))
        vec = {j: scale}
        for p, x in col.items():
            vec[p] = -x * (scale // rows[p][p])
        out.insert(vec)
    return out


def subspace_sum(*spaces):
    """The sum of one or more subspaces of one ambient space.

    Each basis row is inserted once into the result.  RREF is unique, so
    the result equals the pairwise fold ``subspace_sum(subspace_sum(U, V), W)``
    without re-inserting the growing partial sum.
    """
    if not spaces:
        raise ValueError("subspace_sum needs at least one subspace")
    ambient = spaces[0].ambient_dim
    if any(S.ambient_dim != ambient for S in spaces):
        raise ValueError("ambient mismatch")
    out = Subspace(ambient)
    for S in spaces:
        for row, _ in S.integral_rows():
            out.insert(row)
    return out


def subspace_intersect(U, W):
    """Zassenhaus: echelonise [u|u] and [w|0]; zero-left rows carry the intersection."""
    if U.ambient_dim != W.ambient_dim:
        raise ValueError("ambient mismatch")
    n = U.ambient_dim
    ech = Echelon()
    for row, _ in U.integral_rows():
        doubled = dict(row)
        for c, v in row.items():
            doubled[c + n] = v
        ech.insert(doubled)
    for row, _ in W.integral_rows():
        ech.insert(row)
    inter = Subspace(n)
    for piv in ech.pivots:
        if piv >= n:
            row = ech.rows[piv]
            inter.insert({c - n: v for c, v in row.items()})
    return inter


class QuotientSpace(Subspace):
    """Quotient V/U, held as the Subspace of its coset representatives: the
    RREF of the residues of V modulo U, which are V's own rows at the pivots
    that U lacks.

    As U lies in V, every pivot of U is a pivot of V, and a vector x of V is
    sum_p (x[p] / d_p) row_p over V's pivots p, d_p the pivot values.  So the
    residues, the vectors of V that vanish at U's pivots, are exactly the span
    of V's rows at the other pivots.  Those rows are already in RREF, so
    ``insert`` eliminates nothing on them.  ``coords_of`` expresses a
    vector's class in their basis.
    """

    __slots__ = ("U",)

    def __init__(self, V, U):
        if not V.contains_subspace(U):
            raise ValueError("U is not contained in V")
        super().__init__(V.ambient_dim)
        self.U = U
        held = set(U.pivots)
        for p, (row, _) in zip(V.pivots, V.integral_rows()):
            if p not in held:
                self.insert(row)

    def coords_of(self, vec):
        """Sparse coordinates {position: int or Fraction} of [vec] in ``basis()``.

        ``vec`` must lie in V; zero coefficients are not stored.
        """
        return super().coords_of(self.U.reduce(vec))


# ---------------------------------------------------------------------------
# cochain complexes


class CochainComplex:
    """Finite complex of coordinate spaces from degree 0, d.d = 0 enforced:
    ``columns[k]`` lists the dims[k] zero-free column vectors of d_k: C^k ->
    C^(k+1), and ``differentials`` builds each d_k as SparseMatrix on read."""

    def __init__(self, dims, columns):
        self.dims, self.columns = dims, columns = list(dims), list(columns)
        if len(columns) != max(len(dims) - 1, 0):
            raise ValueError("need one differential per adjacent degree pair")
        for k, cols in enumerate(columns):
            rows = set(range(dims[k + 1]))
            if len(cols) != dims[k] or not rows.issuperset(chain.from_iterable(cols)):
                raise ValueError("differential %d is no %dx%d matrix" % (k, len(rows), dims[k]))
        # every column of d_k must be killed by d_(k+1): sum_i v col_i(d_(k+1)) = 0
        for k, (before, after) in enumerate(zip(columns, columns[1:])):
            for col in before:
                acc = {}
                get = acc.get
                for i, v in col.items():
                    for j, x in after[i].items():
                        acc[j] = get(j, 0) + v * x
                if any(acc.values()):
                    raise ValueError("d.d != 0 between degrees %d and %d" % (k, k + 2))

    @property
    def differentials(self):
        return [SparseMatrix._adopt(rows, len(cols), {(i, j): v for j, col in enumerate(cols)
                                                      for i, v in col.items()})
                for rows, cols in zip(self.dims[1:], self.columns)]

    def cohomology_dims(self):
        """H^k dims from the ranks of the differentials, eliminated along the
        chain: d_(k+1) only on the indices of C^(k+1) off the rank(d_k)
        independent pivot rows of d_k, whose unit vectors and im d_k span
        C^(k+1); as d.d = 0 (checked at construction) it has the same rank."""
        ranks, pivots = [0], ()     # ranks[k] = rank d_(k-1), the rank into degree k
        for k, cols in enumerate(self.columns):
            rows = [{} for _ in range(self.dims[k + 1])]
            for j, col in enumerate(cols):
                if j not in pivots:
                    for i, v in col.items():
                        rows[i][j] = v
            pivots = set(_pivot_rows(rows))
            ranks.append(len(pivots))
        ranks.append(0)
        out = {k: dim - ranks[k] - ranks[k + 1] for k, dim in enumerate(self.dims)}
        self._check_euler(out)
        return out

    def _check_euler(self, hdims):
        """sum (-1)^k H^k must be sum (-1)^k dim C^k.  On the ranks of ``cohomology_dims``
        the left side telescopes to the right whatever they are: it proves nothing."""
        lhs = sum((-1) ** k * d for k, d in enumerate(self.dims))
        rhs = sum((-1) ** k * d for k, d in hdims.items())
        if lhs != rhs:
            raise CrossCheckError("Euler characteristic mismatch: %d vs %d" % (lhs, rhs))


# ---------------------------------------------------------------------------
# structure constants


class StructureConstantSpec:
    """Finite-dimensional algebra over Q given by its structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j, and ``products[i][j]``
    the same product as a sparse vector {k: c}, the one form a product is
    taken in.  A subclass checks its own laws on ``products`` in
    ``_validate``, which runs at construction, and lists in
    ``vectors`` the extra coordinate vectors it carries (such as a unit), so
    that they travel through JSON with the table.
    """

    vectors = ()
    default_name = "A"

    def __init__(self, dim, table, name=None):
        self.dim = dim
        self.name = self.default_name if name is None else name
        self.table = tuple(tuple(tuple(row) for row in block) for block in table)
        if len(self.table) != dim or any(len(b) != dim for b in self.table) \
                or any(len(r) != dim for b in self.table for r in b):
            raise ValueError("structure table must be dim^3")
        self.products = [[{k: c for k, c in enumerate(row) if c} for row in block]
                         for block in self.table]
        self._validate()

    @classmethod
    def from_json(cls, doc):
        """Build from a dict, or from the path of a JSON file holding one."""
        if isinstance(doc, str):
            with open(doc, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        table = [[[_parsed(x) for x in row] for row in block] for block in doc["table"]]
        extra = {f: [_parsed(x) for x in doc[f]] for f in cls.vectors}
        return cls(doc["dim"], table, name=doc.get("name"), **extra)


def _parsed(text):
    """A rational string or number as an ``int`` when integral, else a ``Fraction``."""
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q

"""Exact sparse linear algebra over Q, fraction-free inside.

A coefficient is an ``int``, or a ``Fraction`` only where a caller gets a
rational number back.  ``Echelon`` stores each row as a primitive integer
dict whose positive pivot value d stands for the RREF row ``row / d``, and
``rank`` eliminates on integer rows: at a pivot other than +-1 a row is
updated as ``d*row - a*pivot_row`` and its content divided out, so no
``Fraction`` arises inside either.  One is built only at the boundary, and
only where d does not divide: in the RREF rows of ``Subspace.basis``, in the
exact residue of ``Subspace.reduce``, and where ``divided`` takes the
coordinates of an integral row's image back to an RREF basis (the
differential assembly of ``homology``).  Rational inputs to ``insert`` and
``rank`` are cleared to integers on entry through their ``denominator``; a
residue or a zero test takes them as they come.
``StructureConstantSpec.from_json`` parses integral constants to ``int``.

Vectors are dicts {index: coefficient} with no stored zeros, and
``add_scaled`` is the one place that adds a scaled sparse vector into
another.  Matrices store a sparse {(row, col): coefficient} map.
Coordinates in a subspace basis are sparse too: ``coords_of`` returns
{position: coefficient} holding only the nonzero coefficients.  Nothing is
randomised: ``rank`` is one sparse elimination over Q with Markowitz-style
pivots and no back-substitution, and echelon bases (kernels, images,
subspace arithmetic) are kept in full (fraction-free) RREF by ``Echelon``.

The same sparse dicts carry algebra elements: an element of A_n is a plain
{basis label: coefficient} dict with no stored zeros, its level n passed
alongside it.  ``StructureConstantSpec`` holds the structure constants of
small algebras given by a multiplication table.
"""

import json
from fractions import Fraction
from heapq import heapify, heappop, heappush
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
        ent = {}
        for i, row in enumerate(row_dicts):
            for j, v in row.items():
                ent[(i, j)] = v
        return cls(len(row_dicts), cols, ent)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

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

    def transpose(self):
        return SparseMatrix._adopt(self.cols, self.rows,
                                   {(j, i): v for (i, j), v in self.entries.items()})

    def apply(self, vec):
        """Matrix times column vector (vector given as {col: value})."""
        out = {}
        cols = self.col_dicts()
        for j, x in vec.items():
            add_scaled(out, cols[j], x)
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

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.cols)] = v
        return SparseMatrix._adopt(self.rows, self.cols + other.cols, ent)

    @classmethod
    def vstack(cls, mats):
        """The matrices of ``mats`` (equal column counts) stacked top to bottom."""
        cols = mats[0].cols
        ent = {}
        off = 0
        for m in mats:
            if m.cols != cols:
                raise ValueError("column mismatch in vstack")
            for (i, j), v in m.entries.items():
                ent[(i + off, j)] = v
            off += m.rows
        return cls._adopt(off, cols, ent)

    def __repr__(self):
        return "SparseMatrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


class Echelon:
    """Incrementally maintained echelon form over Q, stored fraction-free.

    Each row, stored per pivot column, is a primitive integer dict (its
    entries have gcd 1) whose pivot value, its entry at the pivot column, is
    positive; every pivot column is cleared from every other stored row.  So
    a row divided by its pivot value is the row of the reduced row echelon
    form (RREF), and ``row_list`` builds exactly that, with a ``Fraction``
    only where the pivot value does not divide.  A column index keeps
    back-substitution proportional to actual fill.  The sorted pivot list
    and the pivot -> position map are built on first use and dropped by every
    accepted ``insert``.
    """

    def __init__(self):
        self.rows = {}          # pivot col -> primitive integer row dict
        self._uses = {}         # col -> set of pivot cols whose rows touch it
        self._pivots = None     # sorted pivot cols, cached
        self._positions = None  # pivot col -> index in the sorted pivots, cached

    def __len__(self):
        return len(self.rows)

    @property
    def pivots(self):
        """Pivot columns in increasing order (shared; do not mutate)."""
        if self._pivots is None:
            self._pivots = sorted(self.rows)
        return self._pivots

    @property
    def positions(self):
        """{pivot col: position of its row in ``pivots``} (shared; do not mutate)."""
        if self._positions is None:
            self._positions = {p: k for k, p in enumerate(self.pivots)}
        return self._positions

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
        rows = self.rows
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
        rows, uses = self.rows, self._uses
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
        self._pivots = self._positions = None
        for c in row:
            uses.setdefault(c, set()).add(piv)
        return piv

    def row_list(self):
        """The RREF rows in pivot order, as new dicts."""
        out = []
        for p in self.pivots:
            row = self.rows[p]
            out.append(dict(row) if row[p] == 1 else divided(row, row[p]))
        return out


class Subspace:
    """Subspace of Q^ambient held as an echelonised basis."""

    __slots__ = ("ambient_dim", "_ech")

    def __init__(self, ambient_dim, echelon=None):
        self.ambient_dim = ambient_dim
        self._ech = echelon if echelon is not None else Echelon()

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        ech = Echelon()
        for v in vectors:
            for c in v:
                if not (0 <= c < ambient_dim):
                    raise ValueError("coordinate %d outside ambient %d" % (c, ambient_dim))
            ech.insert(v)
        return cls(ambient_dim, ech)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim):
        return cls.from_vectors(({i: 1} for i in range(ambient_dim)), ambient_dim)

    @property
    def dim(self):
        return len(self._ech)

    @property
    def pivots(self):
        return self._ech.pivots

    def basis(self):
        """Echelon basis rows (RREF), ordered by pivot."""
        return self._ech.row_list()

    def integral_rows(self):
        """The basis as (row, d) pairs in pivot order, ``basis()[k] == row / d``:
        ``row`` is a primitive integer dict (shared; do not mutate) and ``d``
        its positive pivot value."""
        rows = self._ech.rows
        return [(rows[p], rows[p][p]) for p in self._ech.pivots]

    def reduce(self, vec):
        return self._ech.reduce(vec)

    def contains(self, vec):
        return not self._ech._residue(vec)[0]

    def coords_of(self, vec):
        """Sparse coordinates {position: int or Fraction} of ``vec`` in ``basis()``.

        Only nonzero coefficients are stored; raises ValueError if ``vec`` is
        not a member.  In RREF the coefficient along the row with pivot p is
        simply vec[p], so an ``int`` entry stays an ``int``.
        """
        if self._ech._residue(vec)[0]:
            raise ValueError("vector not in subspace")
        positions = self._ech.positions
        return {positions[c]: v for c, v in vec.items() if v and c in positions}

    def contains_subspace(self, other):
        return all(self.contains(row) for row, _ in other.integral_rows())

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)


# ---------------------------------------------------------------------------
# ranks


def rank(M):
    """Rank over Q by right-looking, fraction-free sparse elimination.

    Each step pivots on the shortest live row (a heap of (length, row) with
    lazy deletion) and, inside it, on the column held by the fewest rows (a
    column -> rows index; the counts include rows that have since dropped the
    column, which only makes the choice a heuristic).  The pivot column is
    then eliminated from exactly the rows that index lists.  Choosing sparse
    pivots keeps the fill of these 0/+-1 boundary matrices small.  Fraction
    entries are cleared to integers on entry, and every row stays integral:
    at a pivot x other than +-1 a row with entry y there becomes
    (x/g) row - (y/g) pivot row, g = gcd(x, y), with its content divided out.
    """
    den = _common_denominator(M.entries.values())
    rows = M.row_dicts()
    if den != 1:
        rows = [{c: (x * den).numerator for c, x in row.items()} for row in rows]
    cols = {}  # col -> rows that held it when last touched
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, []).append(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapify(heap)
    count = 0
    while heap:
        length, i = heappop(heap)
        prow = rows[i]
        if prow is None or len(prow) != length:
            continue  # a pivot row already, or a stale length
        rows[i] = None
        j = min(prow, key=lambda c: len(cols[c]))
        x = prow.pop(j)
        unit = x in (1, -1)
        count += 1
        # no live row holds j afterwards, and fill only copies live columns
        for k in cols.pop(j):
            row = rows[k]
            if row is None:
                continue
            y = row.pop(j, None)
            if y is None:
                continue
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
            if row:
                if not unit:
                    g = gcd(*map(_numerator, row.values()))
                    if g != 1:
                        for c in row:
                            row[c] //= g
                heappush(heap, (len(row), k))
    return count


# ---------------------------------------------------------------------------
# kernels, images, subspace arithmetic


def kernel_basis(M):
    """Right kernel {x : Mx = 0} as a Subspace of Q^cols."""
    ech = Echelon()
    for row in M.row_dicts():
        ech.insert(row)
    out = Echelon()
    rows = ech.rows
    for j in range(M.cols):
        if j in rows:
            continue
        # x_j = 1 and x_p = -row_p[j] / d_p, all scaled by the lcm of the d_p
        users = ech._uses.get(j, ())
        scale = lcm(*(rows[p][p] for p in users))
        vec = {j: scale}
        for p in users:
            vec[p] = -rows[p][j] * (scale // rows[p][p])
        out.insert(vec)
    return Subspace(M.cols, out)


def image_basis(M):
    """Column space of M as a Subspace of Q^rows."""
    return Subspace.from_vectors(M.col_dicts(), M.rows)


def subspace_sum(*spaces):
    """The sum of one or more subspaces of one ambient space.

    Each basis row is inserted once into one ``Echelon``.  RREF is unique, so
    the result equals the pairwise fold ``subspace_sum(subspace_sum(U, V), W)``
    without re-inserting the growing partial sum.
    """
    if not spaces:
        raise ValueError("subspace_sum needs at least one subspace")
    ambient = spaces[0].ambient_dim
    if any(S.ambient_dim != ambient for S in spaces):
        raise ValueError("ambient mismatch")
    ech = Echelon()
    for S in spaces:
        for row, _ in S.integral_rows():
            ech.insert(row)
    return Subspace(ambient, ech)


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
    inter = Echelon()
    for piv in ech.pivots:
        if piv >= n:
            row = ech.rows[piv]
            inter.insert({c - n: v for c, v in row.items()})
    return Subspace(n, inter)


class QuotientSpace:
    """Quotient V/U with echelon-selected coset representatives.

    Representatives are residues of V's basis after reduction modulo U,
    re-echelonised; ``coords_of`` expresses a vector's class in that basis.
    """

    def __init__(self, V, U):
        if not V.contains_subspace(U):
            raise ValueError("U is not contained in V")
        self.V = V
        self.U = U
        ech = Echelon()
        for row, _ in V.integral_rows():
            res, _ = U._ech._residue(row)
            if res:
                ech.insert(res)
        self._rep_space = Subspace(V.ambient_dim, ech)

    @property
    def dim(self):
        return self._rep_space.dim

    def representatives(self):
        return self._rep_space.basis()

    def coords_of(self, vec):
        """Sparse coordinates {position: int or Fraction} of [vec] in ``representatives()``.

        ``vec`` must lie in V; zero coefficients are not stored.
        """
        res = self.U.reduce(vec)
        return self._rep_space.coords_of(res)


# ---------------------------------------------------------------------------
# cochain complexes


class CochainComplex:
    """Finite complex of coordinate spaces; d(k): C^k -> C^(k+1), d.d = 0 enforced."""

    def __init__(self, degree_start, dims, differentials):
        if len(differentials) != max(len(dims) - 1, 0):
            raise ValueError("need one differential per adjacent degree pair")
        self.degree_start = degree_start
        self.dims = list(dims)
        self.differentials = list(differentials)
        for k, d in enumerate(self.differentials):
            if d.cols != self.dims[k] or d.rows != self.dims[k + 1]:
                raise ValueError("differential %d has shape %dx%d, expected %dx%d"
                                 % (k, d.rows, d.cols, self.dims[k + 1], self.dims[k]))
        for k in range(len(self.differentials) - 1):
            if not self.differentials[k + 1].matmul(self.differentials[k]).is_zero():
                raise ValueError("d.d != 0 between degrees %d and %d"
                                 % (degree_start + k, degree_start + k + 2))

    def cohomology_dims(self):
        """H^k dims; only the ranks of the differentials are needed."""
        ranks = [rank(d) for d in self.differentials]
        out = {}
        for k, dim in enumerate(self.dims):
            r_out = ranks[k] if k < len(ranks) else 0
            r_in = ranks[k - 1] if k >= 1 else 0
            out[self.degree_start + k] = dim - r_out - r_in
        self._check_euler(out)
        return out

    def cohomology(self):
        """(H^k dims, H^k representatives): kernels modulo images, degree by degree."""
        out = {}
        reps = {}
        for k, dim in enumerate(self.dims):
            deg = self.degree_start + k
            if k < len(self.differentials):
                ker = kernel_basis(self.differentials[k])
            else:
                ker = Subspace.full(dim)
            if k >= 1:
                img = image_basis(self.differentials[k - 1])
            else:
                img = Subspace.zero(dim)
            quot = QuotientSpace(ker, img)
            out[deg] = quot.dim
            reps[deg] = quot.representatives()
        self._check_euler(out)
        return out, reps

    def _check_euler(self, hdims):
        lhs = sum((-1) ** k * d for k, d in enumerate(self.dims))
        rhs = sum((-1) ** (deg - self.degree_start) * d for deg, d in hdims.items())
        if lhs != rhs:
            raise CrossCheckError("Euler characteristic mismatch: %d vs %d" % (lhs, rhs))


# ---------------------------------------------------------------------------
# structure constants


class StructureConstantSpec:
    """Finite-dimensional algebra over Q given by its structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j.  A subclass checks
    its own laws in ``_validate``, which runs at construction, and lists in
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
        self._validate()

    def _basis_vec(self, i):
        return tuple(int(j == i) for j in range(self.dim))

    def mul_coords(self, u, v):
        """Coordinates of the product of two coordinate vectors."""
        out = [0] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                coef = a * b
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += coef * c
        return tuple(out)

    @classmethod
    def from_json(cls, doc):
        """Build from a dict, or from the path of a JSON file holding one."""
        if isinstance(doc, str):
            with open(doc, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        table = [[[_parsed(x) for x in row] for row in block] for block in doc["table"]]
        extra = {f: [_parsed(x) for x in doc[f]] for f in cls.vectors}
        return cls(doc["dim"], table, name=doc.get("name"), **extra)

    def to_json(self):
        doc = {
            "dim": self.dim,
            "name": self.name,
            "table": [[[str(x) for x in row] for row in block] for block in self.table],
        }
        doc.update((f, [str(x) for x in getattr(self, f)]) for f in self.vectors)
        return doc


def _parsed(text):
    """A rational string or number as an ``int`` when integral, else a ``Fraction``."""
    q = Fraction(text)
    return q.numerator if q.denominator == 1 else q

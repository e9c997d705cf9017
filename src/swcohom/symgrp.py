"""Permutations, sign-twisted class functions and the elements e_m.

Conventions, fixed once and asserted by tests:

* one-line notation on {1..n}; ``compose(p, q)`` is the map i -> p(q(i));
* ``t(i)`` is the adjacent transposition (i, i+1);
* ``conjugate(p, s)`` is s p s^-1, which relabels points by s;
* the m-cycle t(1)t(2)...t(m-1) is (1, 2, ..., m).

Sign-twisted class functions (f(s p s^-1) = sign(s) f(p)) live on
conjugacy classes whose centraliser contains no odd permutation; the basis
is produced by a breadth-first sweep of each class that tracks signs and
aborts on inconsistency, so a wrong conjugation convention cannot silently
flip values.  Elements of Q[S_n] (such as ``e_element``) are
``linalg.AlgebraElement`` objects keyed by ``Permutation``, i.e. elements of
``sequences.SymmetricGroupSequence`` at level n.
"""

from functools import lru_cache
from itertools import permutations as _it_permutations

from . import CrossCheckError, ResourceLimitError
from .linalg import AlgebraElement

ENUMERATION_CAP = 8      # largest n for which S_n is materialised element by element
SWEEP_CAP = 9            # largest n whose conjugacy classes are swept sign by sign
COUNTING_CAP = 14        # class-based dimension counts avoid enumeration up to here


class Permutation:
    """Permutation of {1..n} in one-line notation; immutable, hashed by value.

    The public constructor validates its images.  Code here that derives a
    permutation from valid ones (``compose``, ``inverse``, ``conjugate_by_t``,
    ``block_sum``) uses ``_trusted``, which skips that check.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, images))
        _set_images(self, images)
        _set_hash(self, hash((images,)))

    @classmethod
    def _trusted(cls, images):
        """A permutation whose ``images`` are known to be a permutation of 1..n."""
        p = _new(cls)
        _set_images(p, images)
        _set_hash(p, hash((images,)))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Permutation(images=%r)" % (self.images,)

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n, i):
        """The adjacent transposition t_i = (i, i+1) inside S_n."""
        if not (1 <= i <= n - 1):
            raise ValueError("t_%d undefined in S_%d" % (i, n))
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        return cls(tuple(img))

    def is_identity(self):
        return all(v == i + 1 for i, v in enumerate(self.images))

    def inverse(self):
        img = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            img[v - 1] = i
        return Permutation._trusted(tuple(img))

    def sign(self):
        seen = [False] * self.n
        sgn = 1
        for i in range(self.n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn

    def cycle_type(self):
        """Cycle lengths in decreasing order (a partition of n)."""
        seen = [False] * self.n
        lengths = []
        for i in range(self.n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def inversions(self):
        img = self.images
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n)
                   if img[i] > img[j])


_new = object.__new__
# slot setters that bypass the immutable ``__setattr__``
_set_images = Permutation.images.__set__
_set_hash = Permutation._hash.__set__


def compose(p, q):
    """(p.q)(i) = p(q(i))."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    pim = p.images
    return Permutation._trusted(tuple([pim[j - 1] for j in q.images]))


def conjugate(p, s):
    """s p s^-1."""
    if p.n != s.n:
        raise ValueError("size mismatch")
    img = [0] * p.n
    for i in range(1, p.n + 1):
        img[s.images[i - 1] - 1] = s.images[p.images[i - 1] - 1]
    return Permutation(tuple(img))


def conjugate_tuple_by_t(img, i):
    """t_i p t_i on a one-line tuple: swap positions i, i+1, then values i, i+1."""
    lst = list(img)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    a = lst.index(i)
    b = lst.index(i + 1)
    lst[a], lst[b] = i + 1, i
    return tuple(lst)


def conjugate_by_t(p, i):
    return Permutation._trusted(conjugate_tuple_by_t(p.images, i))


def block_sum(p, q):
    """p on the points 1..m and q moved onto m+1..m+n: the image of p (x) q
    under block placement S_m x S_n -> S_{m+n}."""
    m = len(p.images)
    return Permutation._trusted(p.images + tuple([v + m for v in q.images]))


@lru_cache(maxsize=None)
def all_permutations(n, cap=ENUMERATION_CAP):
    """All of S_n in lexicographic one-line order."""
    if n > cap:
        raise ResourceLimitError("refusing to enumerate S_%d (cap %d)" % (n, cap))
    return tuple(Permutation(p) for p in _it_permutations(range(1, n + 1)))


def young_positions(comp):
    """Indices i with i and i+1 in the same interval part of the composition."""
    out = []
    pos = 0
    for p in comp.parts:
        out.extend(range(pos + 1, pos + p))
        pos += p
    return out


# ---------------------------------------------------------------------------
# sign-twisted class functions


def partitions(n, max_part=None):
    """Partitions of n as decreasing tuples (cycle types of S_n)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for p in range(min(n, max_part), 0, -1):
        for rest in partitions(n - p, p):
            out.append((p,) + rest)
    return out


def class_representative(n, ctype):
    """Canonical representative with cycles on consecutive blocks of points."""
    img = list(range(1, n + 1))
    pos = 1
    for length in ctype:
        for k in range(length):
            img[pos - 1 + k] = pos + (k + 1) % length
        pos += length
    return Permutation(tuple(img))


def signed_orbit_tuples(n, rep):
    """BFS over the conjugacy class of ``rep`` by the t_i, tracking signs.

    Returns {one-line tuple: +-1} with value sign(s) on s rep s^-1, or None
    when no consistent assignment exists (the class centraliser contains an
    odd permutation).
    """
    values = {rep: 1}
    frontier = [rep]
    while frontier:
        nxt = []
        for p in frontier:
            v = values[p]
            for i in range(1, n):
                q = conjugate_tuple_by_t(p, i)
                w = values.get(q)
                if w is None:
                    values[q] = -v
                    nxt.append(q)
                elif w != -v:
                    return None
        frontier = nxt
    return values


def signed_orbit(rep):
    """Permutation-keyed variant of :func:`signed_orbit_tuples`."""
    values = signed_orbit_tuples(rep.n, rep.images)
    if values is None:
        return None
    return {Permutation(t): v for t, v in values.items()}


def has_distinct_odd_type(ctype):
    return all(p % 2 == 1 for p in ctype) and len(set(ctype)) == len(ctype)


def signed_class_dim(n):
    """dim of the space of sign-twisted class functions on S_n.

    Up to ``SWEEP_CAP`` this is established by the signed orbit sweep of each
    class itself; beyond it (n <= COUNTING_CAP) the cycle-type criterion - all
    parts odd and pairwise distinct - is used without touching the group.
    """
    if n == 0:
        return 1
    if n <= SWEEP_CAP:
        return sum(1 for ct in partitions(n)
                   if signed_orbit_tuples(n, class_representative(n, ct).images) is not None)
    if n <= COUNTING_CAP:
        return sum(1 for ct in partitions(n) if has_distinct_odd_type(ct))
    raise ResourceLimitError("signed_class_dim capped at n=%d" % COUNTING_CAP)


def signed_class_basis(n):
    """One sign-twisted indicator {one-line tuple: +-1} per distinct-odd class.

    Classes failing the distinct-odd-parts criterion admit none; the sweep
    itself still validates consistency on the classes it returns.
    """
    out = []
    for ct in partitions(n):
        if not has_distinct_odd_type(ct):
            continue
        orbit = signed_orbit_tuples(n, class_representative(n, ct).images)
        if orbit is None:
            raise CrossCheckError("distinct-odd class %r failed the sign sweep" % (ct,))
        out.append(orbit)
    return out


def long_cycle(m):
    """t_1 t_2 ... t_{m-1} = (1, 2, ..., m)."""
    p = Permutation.identity(m)
    for i in range(1, m):
        p = compose(p, Permutation.transposition(m, i))
    return p


def e_element(m):
    """The distinguished element supported on the m-cycle class.

    Coefficients follow the sign-twist rule from the class representative
    t_1...t_{m-1}; for even m the sweep finds an inconsistency and the
    element is zero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return AlgebraElement(m, signed_orbit(long_cycle(m)))

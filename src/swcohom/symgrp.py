"""Permutations, sign-twisted class functions and the elements e_m.

Conventions, fixed once and asserted by tests:

* one-line notation on {1..n}; ``compose(p, q)`` is the map i -> p(q(i));
* ``t(i)`` is the adjacent transposition (i, i+1);
* ``conjugate_by_t(p, i)`` is t_i p t_i, which relabels the points i and
  i+1 (conjugation s p s^-1 by s = t_i);
* the m-cycle t(1)t(2)...t(m-1) is (1, 2, ..., m).

Sign-twisted class functions (f(s p s^-1) = sign(s) f(p)) live on
conjugacy classes whose centraliser contains no odd permutation; the basis
is produced by a breadth-first sweep of each class that tracks signs and
aborts on inconsistency, so a wrong conjugation convention cannot silently
flip values.

A permutation is its one-line tuple of images, and every function here
takes and returns such tuples.  An element of Q[S_n] (such as
``e_element``) is a sparse dict {one-line tuple: coefficient} with no stored
zeros, i.e. an element of ``sequences.SymmetricGroupSequence`` at level n.
"""

from functools import lru_cache
from itertools import permutations as _it_permutations

from . import CrossCheckError, ResourceLimitError

ENUMERATION_CAP = 8      # largest n for which S_n is materialised element by element
SWEEP_CAP = 9            # largest n whose conjugacy classes are swept sign by sign


def identity(n):
    return tuple(range(1, n + 1))


def transposition(n, i):
    """The adjacent transposition t_i = (i, i+1) inside S_n."""
    if not (1 <= i <= n - 1):
        raise ValueError("t_%d undefined in S_%d" % (i, n))
    img = list(range(1, n + 1))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def compose(p, q):
    """(p.q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError("size mismatch")
    return tuple([p[j - 1] for j in q])


def inverse(p):
    img = [0] * len(p)
    for i, v in enumerate(p, start=1):
        img[v - 1] = i
    return tuple(img)


def sign(p):
    seen = [False] * len(p)
    sgn = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def conjugate_by_t(p, i):
    """t_i p t_i: swap positions i, i+1, then values i, i+1."""
    lst = list(p)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    a = lst.index(i)
    b = lst.index(i + 1)
    lst[a], lst[b] = i + 1, i
    return tuple(lst)


def block_sum(p, q):
    """p on the points 1..m and q moved onto m+1..m+n: the image of p (x) q
    under block placement S_m x S_n -> S_{m+n}."""
    m = len(p)
    return p + tuple([v + m for v in q])


@lru_cache(maxsize=None)
def all_permutations(n):
    """All of S_n in lexicographic one-line order."""
    if n > ENUMERATION_CAP:
        raise ResourceLimitError("refusing to enumerate S_%d (cap %d)" % (n, ENUMERATION_CAP))
    return tuple(_it_permutations(range(1, n + 1)))


def young_positions(comp):
    """Indices i with i and i+1 in the same interval part of the composition."""
    out = []
    pos = 0
    for p in comp:
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
    return tuple(img)


def signed_orbit_tuples(rep):
    """BFS over the conjugacy class of ``rep`` by the t_i, tracking signs.

    Returns {one-line tuple: +-1} with value sign(s) on s rep s^-1, or None
    when no consistent assignment exists (the class centraliser contains an
    odd permutation).
    """
    n = len(rep)
    values = {rep: 1}
    frontier = [rep]
    while frontier:
        nxt = []
        for p in frontier:
            v = values[p]
            for i in range(1, n):
                q = conjugate_by_t(p, i)
                w = values.get(q)
                if w is None:
                    values[q] = -v
                    nxt.append(q)
                elif w != -v:
                    return None
        frontier = nxt
    return values


def has_distinct_odd_type(ctype):
    return all(p % 2 == 1 for p in ctype) and len(set(ctype)) == len(ctype)


def signed_class_dim(n):
    """dim of the space of sign-twisted class functions on S_n.

    Up to ``SWEEP_CAP`` this is established by the signed orbit sweep of each
    class itself; beyond it, refuse.
    """
    if n == 0:
        return 1
    if n <= SWEEP_CAP:
        return sum(1 for ct in partitions(n)
                   if signed_orbit_tuples(class_representative(n, ct)) is not None)
    raise ResourceLimitError("signed_class_dim capped at n=%d" % SWEEP_CAP)


def signed_class_basis(n):
    """One sign-twisted indicator {one-line tuple: +-1} per distinct-odd class.

    Classes failing the distinct-odd-parts criterion admit none; the sweep
    itself still validates consistency on the classes it returns.
    """
    out = []
    for ct in partitions(n):
        if not has_distinct_odd_type(ct):
            continue
        orbit = signed_orbit_tuples(class_representative(n, ct))
        if orbit is None:
            raise CrossCheckError("distinct-odd class %r failed the sign sweep" % (ct,))
        out.append(orbit)
    return out


def e_element(m):
    """The distinguished element supported on the m-cycle class.

    Coefficients follow the sign-twist rule from the class representative
    (1 2 ... m) = t_1...t_{m-1}; for even m the sweep finds an inconsistency
    and the element is zero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return signed_orbit_tuples(class_representative(m, (m,))) or {}

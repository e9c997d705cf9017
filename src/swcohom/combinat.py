"""Compositions, cube vertices, differential signs and partition counts.

A composition of weight w (an ordered tuple of positive parts summing to w)
is identified with a vertex of the (w-1)-cube through its cut vector: bit j
is 1 exactly when j and j+1 lie in different parts.  A cube vertex is that
cut vector itself, a plain tuple of 0/1 bits.  All orderings are fixed so
that downstream matrix layouts are reproducible run to run.

``Composition`` stays a small value class rather than a bare tuple: code
outside the package reads ``comp.parts`` (``perfbench/traced.py`` keys its
centralizer counts by it), and ``homology`` reads ``weight`` and ``length``.
"""

from functools import lru_cache
from itertools import product


class Composition:
    """Ordered tuple of positive integers; doubles as a cube vertex.

    Immutable and compared and hashed by ``parts``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        if len(parts) == 0:
            raise ValueError("composition must have at least one part")
        if any((not isinstance(p, int)) or p < 1 for p in parts):
            raise ValueError("parts must be positive integers: %r" % (parts,))
        _set_parts(self, parts)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "Composition%r" % (self.parts,)


# slot setter that bypasses the immutable ``__setattr__``
_set_parts = Composition.parts.__set__


def to_binary(comp):
    """Cut vector of a composition: bit j is 1 iff j, j+1 are in different parts."""
    bits = []
    pos = 0
    for p in comp.parts:
        bits.extend([0] * (p - 1))
        pos += p
        if pos < comp.weight:
            bits.append(1)
    return tuple(bits)


def from_binary(bits, weight=None):
    """Inverse of :func:`to_binary`; ``bits`` has weight ``len(bits) + 1``."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1: %r" % (bits,))
    if weight is not None and weight != len(bits) + 1:
        raise ValueError("weight %d does not match bit vector of weight %d"
                         % (weight, len(bits) + 1))
    parts = []
    run = 1
    for b in bits:
        if b:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(tuple(parts))


@lru_cache(maxsize=None)
def compositions(w):
    """All 2^(w-1) compositions of w, ordered lexicographically by cut vector.

    The first entry is always (w), the last (1,...,1).
    """
    if w < 1:
        raise ValueError("weight must be >= 1 (the empty weight is the unit layer)")
    return [from_binary(bits) for bits in product((0, 1), repeat=w - 1)]


def union(lam, mu):
    """Coarsest composition refined by both arguments (bitwise AND of cuts)."""
    if lam.weight != mu.weight:
        raise ValueError("weights differ: %d vs %d" % (lam.weight, mu.weight))
    return from_binary(tuple(a & b for a, b in zip(to_binary(lam), to_binary(mu))))


def subdivision_sign(lam, j, split):
    """Split part j (1-based) of ``lam`` as a+b; returns (sign, refined composition).

    The sign convention is (-1)^j; the induced cube differential squares to
    zero, which the test suite checks rather than assumes.
    """
    a, b = split
    if not (1 <= j <= lam.length):
        raise ValueError("part index %d out of range" % j)
    if a < 1 or b < 1 or a + b != lam.parts[j - 1]:
        raise ValueError("invalid split %r of part %d" % (split, lam.parts[j - 1]))
    parts = lam.parts[: j - 1] + (a, b) + lam.parts[j:]
    return (-1) ** j, Composition(parts)


def subdivisions(lam):
    """All (sign, refinement) pairs obtained by splitting one part of ``lam``."""
    out = []
    for j, p in enumerate(lam.parts, start=1):
        for a in range(1, p):
            out.append(subdivision_sign(lam, j, (a, p - a)))
    return out


def distinct_odd_partition_series(N):
    """Coefficients s_0..s_N of prod_{m odd}(1 + t^m).

    s_n counts partitions of n into distinct odd parts.  Computed both by
    the polynomial product and by direct enumeration; the two must agree.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    by_product = _series_by_product(N)
    by_count = [_count_distinct_odd(n) for n in range(N + 1)]
    if by_product != by_count:
        raise AssertionError("partition series routes disagree: %r vs %r"
                             % (by_product, by_count))
    return by_product


def _series_by_product(N):
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    m = 1
    while m <= N:
        for n in range(N, m - 1, -1):
            coeffs[n] += coeffs[n - m]
        m += 2
    return coeffs


def _count_distinct_odd(n):
    # enumerate partitions of n into strictly decreasing odd parts
    def count(rem, max_part):
        if rem == 0:
            return 1
        total = 0
        p = min(max_part, rem)
        if p % 2 == 0:
            p -= 1
        while p >= 1:
            total += count(rem - p, p - 2)
            p -= 2
        return total

    return count(n, n)

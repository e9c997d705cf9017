"""Compositions, cube vertices, differential signs and partition counts.

A composition of weight w (an ordered tuple of positive parts summing to w)
is identified with a vertex of the (w-1)-cube through its cut vector: bit j
is 1 exactly when j and j+1 lie in different parts.  A cube vertex is that
cut vector itself, a plain tuple of 0/1 bits.  All orderings are fixed so
that downstream matrix layouts are reproducible run to run.

A composition is its parts tuple: ``Composition`` subclasses ``tuple`` only
to check its parts on construction, so it compares, hashes and prints as
that tuple and keys every diagram as is.  Its one extra member, ``parts``,
is read from outside the package (``perfbench/traced.py`` keys its
centralizer counts by it).
"""

from functools import lru_cache
from itertools import product

from . import CrossCheckError


class Composition(tuple):
    """Ordered tuple of positive integers; doubles as a cube vertex."""

    __slots__ = ()

    def __new__(cls, parts):
        if len(parts) == 0:
            raise ValueError("composition must have at least one part")
        if any((not isinstance(p, int)) or p < 1 for p in parts):
            raise ValueError("parts must be positive integers: %r" % (parts,))
        return super().__new__(cls, parts)

    @property
    def parts(self):
        return tuple(self)


def to_binary(comp):
    """Cut vector of a composition: bit j is 1 iff j, j+1 are in different parts."""
    bits = []
    for p in comp:
        bits.extend([0] * (p - 1) + [1])
    return tuple(bits[:-1])


def from_binary(bits):
    """Inverse of :func:`to_binary`; ``bits`` has weight ``len(bits) + 1``."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1: %r" % (bits,))
    parts = []
    run = 1
    for b in bits:
        if b:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return Composition(parts)


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
    if sum(lam) != sum(mu):
        raise ValueError("weights differ: %d vs %d" % (sum(lam), sum(mu)))
    return from_binary(tuple(a & b for a, b in zip(to_binary(lam), to_binary(mu))))


def subdivision_sign(lam, j, split):
    """Split part j (1-based) of ``lam`` as a+b; returns (sign, refined composition).

    The sign convention is (-1)^j; the induced cube differential squares to
    zero, which the test suite checks rather than assumes.
    """
    a, b = split
    if not (1 <= j <= len(lam)):
        raise ValueError("part index %d out of range" % j)
    if a < 1 or b < 1 or a + b != lam[j - 1]:
        raise ValueError("invalid split %r of part %d" % (split, lam[j - 1]))
    return (-1) ** j, Composition(lam[: j - 1] + (a, b) + lam[j:])


def subdivisions(lam):
    """All (sign, refinement) pairs obtained by splitting one part of ``lam``."""
    out = []
    for j, p in enumerate(lam, start=1):
        for a in range(1, p):
            out.append(subdivision_sign(lam, j, (a, p - a)))
    return out


def distinct_odd_partition_series(N):
    """Coefficients s_0..s_N of prod_{m odd}(1 + t^m).

    s_n counts partitions of n into distinct odd parts.  Computed both by
    the polynomial product and by Euler's 1 + t^m = (1 - t^2m) / (1 - t^m);
    CrossCheckError if the two disagree.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    by_product, by_euler = _series_by_product(N), _series_by_euler(N)
    if by_product != by_euler:
        raise CrossCheckError("partition series routes disagree: %r vs %r"
                              % (by_product, by_euler))
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


def _series_by_euler(N):
    # 1 / prod_{m odd}(1 - t^m), times prod_{m odd}(1 - t^2m)
    coeffs = [1] + [0] * N
    for m in range(1, N + 1, 2):
        for n in range(m, N + 1):
            coeffs[n] += coeffs[n - m]
    for m in range(2, N + 1, 4):
        for n in range(N, m - 1, -1):
            coeffs[n] -= coeffs[n - m]
    return coeffs

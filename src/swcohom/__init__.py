"""Exact computation of deformation cohomology for Schur-Weyl categories.

The package computes, over the rational numbers, the deformation complexes
of tensor categories generated by one object (given concretely as a
multiplicative sequence of algebras), their cohomology in low weights, and
the matching exterior invariants of general linear Lie algebras.  All
arithmetic is exact.  The one randomised shortcut is the default rank: it is
computed modulo two random ~62-bit primes and accepted when the two agree;
only a disagreement escalates to exact fraction-free elimination (the tests
audit the protocol against the exact path).  ``--backend exact`` skips it.
"""

__version__ = "0.1.0"


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds the configured size guards."""


class CrossCheckError(RuntimeError):
    """Two independent routes to the same quantity disagreed."""


class TruncationOverflowError(RuntimeError):
    """A surviving normal-form term fell outside the representable degree window."""

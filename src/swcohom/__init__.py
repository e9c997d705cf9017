"""Exact computation of deformation cohomology for Schur-Weyl categories.

The package computes, over the rational numbers, the deformation complexes
of tensor categories generated by one object (given concretely as a
multiplicative sequence of algebras), their cohomology in low weights, and
the matching exterior invariants of general linear Lie algebras.  All
arithmetic is exact and nothing is randomised: every rank comes from one
sparse elimination over Q, so every number a report marks ``final`` is
proven, not only probable.
"""

__version__ = "0.1.0"


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds the configured size guards."""


class CrossCheckError(RuntimeError):
    """Two independent routes to the same quantity disagreed."""


class TruncationOverflowError(RuntimeError):
    """A surviving normal-form term fell outside the representable degree window."""

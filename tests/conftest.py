"""Shared fixtures and helpers.

The package reads structure-constant specs from JSON (``from_json``, the
CLI's ``--algebra`` and ``--lie``) but never writes one, so the writer lives
here with the tests that need spec files.  The package adopts orbit spaces
through the unchecked ``Subspace.from_positions``; the tests build such
spaces from their supports with ``from_indicators``, which checks them.
``quotient_by_residues`` keeps the route a quotient's representatives were
once computed by, as the reference for ``QuotientSpace``.
"""

import json

import pytest

from swcohom.linalg import Subspace


def from_indicators(supports, ambient_dim):
    """The span of the 0/1 indicator vectors of ``supports`` in Q^ambient_dim:
    pairwise disjoint index lists, each headed by its least index, adopted by
    ``Subspace.from_positions``.  Raises ValueError on an overlap, a head that
    is not the least index of its support, or an index outside the space.
    """
    pos, supports = [-1] * ambient_dim, sorted(supports)
    for j, support in enumerate(supports):
        for k in support:
            if not 0 <= support[0] <= k < ambient_dim or pos[k] != -1:
                raise ValueError("support %r: index %d repeated, below the head or "
                                 "outside ambient %d" % (support, k, ambient_dim))
            pos[k] = j
    return Subspace.from_positions(pos, [s[0] for s in supports], list(map(len, supports)))


def quotient_by_residues(V, U):
    """The representatives of V/U by elimination: the RREF of the residues of
    V's rows modulo U."""
    out = Subspace(V.ambient_dim)
    for row, _ in V.integral_rows():
        out.insert(U.reduce(row))
    return out


def spec_document(spec):
    """The JSON document ``from_json`` reads back as ``spec``: dim, name, table
    and the spec's extra ``vectors`` (such as a unit), each number a string."""
    doc = {"dim": spec.dim, "name": spec.name,
           "table": [[[str(x) for x in row] for row in block] for block in spec.table]}
    doc.update((f, [str(x) for x in getattr(spec, f)]) for f in spec.vectors)
    return doc


@pytest.fixture
def write_spec(tmp_path):
    """``write_spec(spec, name)`` writes ``spec`` to ``tmp_path / name`` and
    returns that path as a string."""
    def write(spec, name):
        path = tmp_path / name
        path.write_text(json.dumps(spec_document(spec)))
        return str(path)
    return write

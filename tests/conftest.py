"""Shared fixtures.

The package reads structure-constant specs from JSON (``from_json``, the
CLI's ``--algebra`` and ``--lie``) but never writes one, so the writer lives
here with the tests that need spec files.
"""

import json

import pytest


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

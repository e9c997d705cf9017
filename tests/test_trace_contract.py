"""What ``perfbench/traced.py`` relies on in the package, checked from here.

The tracer wraps, by name, the entry spans of its stages (``GROUPS``) and
the private methods it traces (``PRIVATE_ENTRIES``), and it counts
centralizer builds by ``comp.parts`` of the argument ``centralizer`` gets.
A simplification that renames an entry, or passes a bare tuple where a
``Composition`` went, would silently empty a stage or break a traced run, so
both are checked here.  ``traced.py`` is read through ``ast``, not imported.
"""

import ast
import importlib
import io
import pkgutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import swcohom
import swcohom.cli as cli
import swcohom.homology as homology
from swcohom.sequences import HeckeSequence, SkewGroupSequence, SymmetricGroupSequence

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"

# entries the benchmark still names but the package deleted; the benchmark's
# own upkeep retires them, so they may go from this set but no entry may join
RETIRED = {"linalg.rank_mod", "linalg.rank_exact"}

MODULES = {info.name: importlib.import_module("swcohom." + info.name)
           for info in pkgutil.iter_modules(swcohom.__path__)}


def _traced_constant(name):
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            value = node.value
            if isinstance(value, ast.Call):   # frozenset({...})
                value, = value.args
            return ast.literal_eval(value)
    raise LookupError(name)


def _traced_by(module, qualname):
    """Whether the tracer wraps ``module.qualname``: a function defined in
    ``module``, or a member defined on a class of ``module`` itself."""
    mod = MODULES.get(module)
    head, _, member = qualname.partition(".")
    obj = getattr(mod, head, None)
    if obj is None or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return callable(obj) if not member else member in vars(obj)


def test_every_traced_entry_resolves():
    private = _traced_constant("PRIVATE_ENTRIES")
    spans = set(_traced_constant("GROUPS"))
    assert spans and private
    missing = {span for span in spans if not _traced_by(*span.split(".", 1))}
    missing |= {qual for qual in private
                if not any(_traced_by(module, qual) for module in MODULES)}
    assert missing <= RETIRED, sorted(missing - RETIRED)


@pytest.fixture
def centralizer_args(monkeypatch):
    seen = []
    original = homology.centralizer

    def recording(seq, comp, *args, **kwargs):
        seen.append(comp)
        return original(seq, comp, *args, **kwargs)

    # the CLI's handlers import centralizer from homology when they run
    monkeypatch.setattr(homology, "centralizer", recording)
    return seen


def _assert_compositions(seen):
    assert seen
    bad = [comp for comp in seen
           if type(getattr(comp, "parts", None)) is not tuple or comp.parts != comp]
    assert not bad, bad[:3]


@pytest.mark.parametrize("make", [SymmetricGroupSequence, SkewGroupSequence, HeckeSequence],
                         ids=["symmetric", "skew", "hecke"])
@pytest.mark.parametrize("build", [
    lambda seq: homology.reduced_complex(seq, 2),
    lambda seq: homology.deformation_complex_truncated(seq, 3),
    lambda seq: homology.horizontal_cohomology(seq, 3),
    homology.first_cohomology_direct,
], ids=["reduced", "truncated", "horizontal", "first-direct"])
def test_centralizer_gets_a_composition(centralizer_args, make, build):
    build(make())
    _assert_compositions(centralizer_args)


def test_hecke_check_passes_compositions(centralizer_args):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["hecke-check", "--trunc-degree", "2", "--level-max", "2"]) == 0
    _assert_compositions(centralizer_args)

"""Source-level design rules of the package, checked on the files themselves.

* no module imports a private name (``_name``; dunders such as
  ``__version__`` are fine) from another module of the package: shared
  helpers are public where they live;
* only ``cli`` imports inside a function body: it defers each layer to the
  subcommands that run it, and every other module binds its names at
  import, which ``perfbench/traced.py``'s rebinding relies on;
* no module reads a private attribute (``X._name``) that it does not
  define itself: what another module's objects share is public, such as
  ``SparseMatrix.permutation``.  A method's ``self._name`` may reach a
  protected member of its base class;
* no module reaches into ``__dict__``: state such as caches is a plain
  attribute set in ``__init__``;
* no module asks which sequence it holds (``isinstance`` against a sequence
  class), and ``homology`` imports nothing from ``sequences``: what a
  sequence supports beyond the generic routes it declares itself
  (``matrix_cap``, ``conjugate_label``, ``reduced_dim_above_cap``,
  ``delta_vanishes_dually``);
* the Lie side stands alone: ``lierep`` imports no layer of the package
  but ``linalg`` and ``symgrp``, and ``homology`` imports no ``lierep``, so
  ``gl`` loads no cube code and the cube commands load no Lie code.
* ``homology.centralizer`` is the one place that knows how a centralizer is
  computed: no sequence class defines a method named after centralizers.
* the slot plumbing is defined once: ``SlotPermutationSequence`` owns the
  basis, unit, pairing and Young generators of the (slot data, permutation)
  sequences, and neither skew nor Hecke redefines them.  Hecke declares no
  label conjugation (t_i y_i t_i has correction terms), so it keeps the
  solve route.
* ``homology.py`` touches no private attribute of a sequence (no
  ``seq._name``): it multiplies through the declared ``commutators``,
  ``unit_pairing`` and ``mu``, never through ``_mul_basis_raw``.
* a coefficient is an ``int`` until something divides: every true division
  (``/``) has a ``Fraction(...)`` operand, because int / int gives a float,
  and no code asks whether a value is a ``Fraction``.
* one array representation: no module imports numpy; tensors and matrices
  are the sparse exact dicts of ``linalg``.
* nothing is randomised: no module imports ``random`` and no function has
  a ``backend`` parameter, so every rank is the one exact elimination.
  ``homology.random_module`` only draws from a generator its caller passes.
* labels and elements are plain data: a permutation is its one-line tuple,
  a cube vertex its tuple of bits, every basis label of a bundled sequence
  is built from ``tuple`` and ``int`` alone, and an algebra element is a
  plain ``dict`` {label: coefficient}.  A composition is its parts tuple:
  ``Composition`` subclasses ``tuple`` with no slots of its own, so it
  compares, hashes and prints as its parts and keys a diagram as is.
* one builder per construction: ``homology`` assembles every cochain
  complex (cubic, horizontal, truncated full and reduced) in one
  face-complex builder, so ``CochainComplex(`` occurs once in
  ``homology.py``, and ``reduced_complex`` constructs exactly one complex.
* a subspace is its echelon form: every subspace ``linalg`` returns is an
  ``Echelon`` filled by its own ``insert`` (a ``QuotientSpace`` is the
  subspace of its coset representatives), and none holds another
  ``Echelon`` but a quotient's U.  ``annihilated`` takes its kernel back to
  A_n row by row, without a matrix product.
* one solve: ``homology.annihilated`` is the one caller of ``kernel_basis``
  in the package, and ``SparseMatrix`` has no ``vstack``, ``hstack`` or
  ``transpose`` to stack a system with.  ``fixed_part`` alone decides
  between averaging and solving: ``centralizer`` and
  ``cubic_invariants_diagram`` both call it, and neither averages itself.
* each fact is computed once: ``homology._orbits`` is the one orbit search
  (no other unit of ``homology`` loops over ``perms``), and ``top_quotient``
  counts the signed orbits it returns; ``unit_pairing`` is ``mu`` against
  ``one(m)``, not a second loop over ``_mu_basis_label``; a ``QuotientSpace``
  takes V's own rows, reducing nothing modulo U.
* one Hecke rule: ``HeckeSequence._push`` rewrites s y^b by letting each t_j
  of a reduced word pass a monomial (a divided difference), and ``partial``
  reads d_i off that product: it calls ``_push``, not itself.  ``_push_cache``
  is Hecke's one cache; there is no ``_partial_cache`` or ``_partial_of_t``.
"""

import ast
import re
from pathlib import Path

import pytest

from conftest import from_indicators
from swcohom.combinat import Composition, compositions
from swcohom.linalg import (
    CochainComplex,
    Echelon,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    kernel_basis,
    subspace_intersect,
    subspace_sum,
)
from swcohom.sequences import (
    CommutativeAlgebraSpec,
    HeckeSequence,
    MultiplicativeSequence,
    SkewGroupSequence,
    SlotPermutationSequence,
    SymmetricGroupSequence,
)

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "swcohom").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = ["line %d: %s" % (node.lineno, alias.name)
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if re.match(r"_[a-z]", alias.name)]
    assert not private, private


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_imports_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % inner.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not hits, hits


def _foreign_private_attributes(source):
    """``X._name`` reads in ``source``, X not ``self`` or ``cls``, whose ``_name``
    the module never defines: no ``def``, ``class``, assignment or attribute
    store of that name."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return ["line %d: %s" % (node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and re.match(r"_[a-z]", node.attr)
            and node.attr not in own
            and getattr(node.value, "id", None) not in ("self", "cls")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_attributes_across_modules(path):
    hits = _foreign_private_attributes(path.read_text(encoding="utf-8"))
    assert not hits, hits


def test_the_private_attribute_rule_flags_a_foreign_read():
    source = ("from . import linalg\n"
              "from .linalg import SparseMatrix\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self._items = []\n"
              "    def _grow(self, other):\n"
              "        return self._validate(), other._items, self._grow\n"
              "def build(rows):\n"
              "    M = SparseMatrix._adopt(1, 1, {})\n"
              "    return linalg._pivot_rows(rows), M\n")
    assert _foreign_private_attributes(source) == ["line 9: _adopt", "line 10: _pivot_rows"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dict_access(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    hits = ["line %d" % k for k, line in enumerate(lines, 1) if "__dict__" in line]
    assert not hits, hits


def _sequence_classes():
    out, todo = [], [MultiplicativeSequence]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_isinstance_on_sequences(path):
    names = {cls.__name__ for cls in _sequence_classes()}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & names]
    assert not hits, hits


def test_no_sequence_computes_its_own_centralizer():
    hits = ["%s.%s" % (cls.__name__, name) for cls in _sequence_classes()
            for name, member in vars(cls).items()
            if callable(member) and "centralizer" in name]
    assert not hits, hits


def test_the_slot_plumbing_is_defined_once():
    shared = {"_build_basis", "one", "_mu_basis_label", "subalgebra_generators"}
    assert shared <= set(vars(SlotPermutationSequence))
    for cls in (SkewGroupSequence, HeckeSequence):
        assert issubclass(cls, SlotPermutationSequence)
        assert not shared & set(vars(cls)), cls.__name__
    hecke = HeckeSequence()
    assert [hecke.label_conjugation(n, 1) for n in (2, 3)] == [None, None]


def test_homology_does_not_import_sequences():
    path = next(p for p in SOURCES if p.name == "homology.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] == "sequences")
            or (isinstance(node, ast.Import)
                and any(a.name.split(".")[-1] == "sequences" for a in node.names))]
    assert not hits, hits
    assert "SymmetricGroupSequence" not in path.read_text(encoding="utf-8")


def _layers_imported(path):
    """The modules of the package that the source at ``path`` imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "swcohom":
                    continue
                module = module[len("swcohom."):]
            # from the package itself, each imported name may be a module
            out.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[-1] for a in node.names
                       if a.name.split(".")[0] == "swcohom")
    return out & {p.stem for p in SOURCES}


def test_the_lie_side_imports_only_linalg_and_symgrp():
    by_name = {p.stem: p for p in SOURCES}
    assert _layers_imported(by_name["lierep"]) == {"linalg", "symgrp"}
    assert "lierep" not in _layers_imported(by_name["homology"])


def _names_a_sequence(node):
    return (isinstance(node, ast.Name) and node.id == "seq") or (
        isinstance(node, ast.Attribute) and node.attr == "seq")


def test_homology_touches_no_private_attribute_of_a_sequence():
    path = next(p for p in SOURCES if p.name == "homology.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d: %s" % (node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and _names_a_sequence(node.value)]
    assert not hits, hits


def test_one_complex_assembler():
    path = next(p for p in SOURCES if p.name == "homology.py")
    assert path.read_text(encoding="utf-8").count("CochainComplex(") == 1


def test_reduced_complex_is_one_face_complex(monkeypatch):
    import swcohom.homology as homology
    built = []

    def counting(*args):
        built.append(args)
        return CochainComplex(*args)

    monkeypatch.setattr(homology, "CochainComplex", counting)
    homology.reduced_complex(SymmetricGroupSequence(), 4)
    assert len(built) == 1


def _attributes(obj):
    names = {name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}
    names.update(getattr(obj, "__dict__", {}))
    return {name: getattr(obj, name) for name in names if hasattr(obj, name)}


def test_a_subspace_is_its_echelon_form(monkeypatch):
    import swcohom.homology as homology

    M = SparseMatrix(2, 4, {(0, 0): 2, (0, 1): 1, (1, 2): 3, (1, 3): -1})
    U = Subspace.from_vectors([{0: 2, 1: 1}, {2: 1}], 4)
    W = from_indicators([[1, 3], [2]], 4)
    spaces = [U, W, Subspace.full(4), Subspace.zero(4), kernel_basis(M),
              subspace_sum(U, W), subspace_intersect(U, W),
              QuotientSpace(Subspace.full(4), U)]
    for space in spaces:
        assert isinstance(space, Echelon), type(space)
        held = {name: type(value).__name__ for name, value in _attributes(space).items()
                if isinstance(value, Echelon)
                and not (isinstance(space, QuotientSpace) and name == "U")}
        assert not held, (space, held)
    products = []
    matmul = SparseMatrix.matmul

    def counting(*args):
        products.append(args)
        return matmul(*args)

    monkeypatch.setattr(SparseMatrix, "matmul", counting)
    seq = SkewGroupSequence(CommutativeAlgebraSpec.quadratic(2))
    for n in range(1, 4):
        for comp in compositions(n):
            homology.centralizer(seq, comp)
    assert products == []


def _is_fraction_call(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_division_is_exact(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and not (_is_fraction_call(node.left) or _is_fraction_call(node.right)))
            or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)
                and not _is_fraction_call(node.value))]
    assert not hits, hits


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_isinstance_on_fraction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and "Fraction" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}]
    assert not hits, hits


def _absolute_imports(tree):
    """(line, top-level package) of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % line for line, top in _absolute_imports(tree) if top == "numpy"]
    assert not hits, hits


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_random_import_and_no_backend_parameter(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = ["line %d" % line for line, top in _absolute_imports(tree) if top == "random"]
    hits += ["line %d: backend" % node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and any(a.arg == "backend" for a in node.args.posonlyargs
                     + node.args.args + node.args.kwonlyargs)]
    assert not hits, hits


# -- plain data: labels of tuples and ints, elements as dicts -------------------


def _is_plain(label):
    return type(label) is int or (type(label) is tuple and all(_is_plain(x) for x in label))


@pytest.mark.parametrize("seq", [SymmetricGroupSequence(), SkewGroupSequence(),
                                 HeckeSequence()], ids=lambda s: s.seq_id)
def test_labels_are_tuples_of_ints_and_elements_are_dicts(seq):
    for n in range(1, 4):
        elements = [seq.one(n)] + [g for comp in compositions(n)
                                   for g in seq.subalgebra_generators(comp)]
        assert all(type(el) is dict for el in elements)
        labels = list(seq.basis(n)) + [label for el in elements for label in el]
        bad = [label for label in labels if not _is_plain(label)]
        assert not bad, (n, bad[:3])


# -- a composition is its parts tuple ------------------------------------------


def test_a_composition_is_its_parts_tuple():
    c = Composition((2, 1))
    assert isinstance(c, tuple) and type(c).__slots__ == ()
    assert not hasattr(c, "__dict__")
    assert c == c.parts == (2, 1) and type(c.parts) is tuple
    assert hash(c) == hash(c.parts) == hash((2, 1))
    assert {c: 1}[(2, 1)] == 1 and repr(c) == "(2, 1)"
    for name in ("parts", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, (1,))
    for bad in ((), (2, 0), (1.5,)):
        with pytest.raises(ValueError):
            Composition(bad)


# -- one solve -------------------------------------------------------------------


def _called(node):
    """The names called anywhere inside ``node``, as functions or methods."""
    return {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            for c in ast.walk(node) if isinstance(c, ast.Call)}


def _units(tree):
    """(name, node) of each top-level function and method of ``tree``; any
    other top-level statement is named ``<module>``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield "%s.%s" % (node.name, getattr(item, "name", "<class>")), item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        else:
            yield "<module>", node


def _all_units():
    """{(module, unit name): node} over every source file."""
    return {(path.stem, name): node for path in SOURCES
            for name, node in _units(ast.parse(path.read_text(encoding="utf-8")))}


def test_one_solve():
    units = _all_units()
    solvers = {unit for unit, node in units.items() if "kernel_basis" in _called(node)}
    assert solvers == {("homology", "annihilated")}, sorted(solvers)
    assert not {"vstack", "hstack", "transpose"} & set(vars(SparseMatrix))
    for name in ("centralizer", "cubic_invariants_diagram"):
        called = _called(units[("homology", name)])
        assert "fixed_part" in called, name
        assert not {"_average", "_orbits"} & called, name


# -- each fact computed once ------------------------------------------------------


def _loops_over_perms(node):
    return any(isinstance(n, (ast.For, ast.comprehension))
               and getattr(n.target, "id", None) == "perm"
               and getattr(n.iter, "id", None) == "perms" for n in ast.walk(node))


def test_each_fact_is_computed_once():
    units = _all_units()
    assert "_orbits" in _called(units[("homology", "top_quotient")])
    searches = {name for (stem, name), node in units.items()
                if stem == "homology" and _loops_over_perms(node)}
    assert searches == {"_orbits"}, sorted(searches)
    called = _called(units[("sequences", "MultiplicativeSequence.unit_pairing")])
    assert "mu" in called and "_mu_basis_label" not in called, sorted(called)
    called = _called(units[("linalg", "QuotientSpace.__init__")])
    assert not {"_residue", "reduce"} & called, sorted(called)


# -- one Hecke rule ---------------------------------------------------------------


def test_one_hecke_rule():
    hecke = HeckeSequence()
    assert not {"_partial_cache", "_partial_of_t"} & (set(vars(HeckeSequence)) | set(vars(hecke)))
    shared = set(vars(MultiplicativeSequence(1)))
    assert {name for name in vars(hecke) if name.endswith("_cache")} - shared == {"_push_cache"}
    path = next(p for p in SOURCES if p.name == "sequences.py")
    units = dict(_units(ast.parse(path.read_text(encoding="utf-8"))))
    called = _called(units["HeckeSequence.partial"])
    assert "_push" in called and "partial" not in called, sorted(called)

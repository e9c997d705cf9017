import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest

from conftest import from_indicators
from swcohom import CrossCheckError
from swcohom.cli import main
from swcohom.lierep import LieAlgebraSpec
from swcohom.sequences import CommutativeAlgebraSpec


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out) if out.strip() else None


def test_series_row():
    code, doc = run_json("series", "12")
    assert code == 0
    assert doc["schema"] == "swcohom/1"
    assert doc["report"]["series"] == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    code, doc = run_json("series", "0")
    assert code == 0 and doc["report"]["series"] == [1]


def test_series_ends_for_large_degrees():
    # both routes are polynomial products, so the cross-check enumerates nothing
    start = time.perf_counter()
    code, doc = run_json("series", "500")
    assert code == 0 and time.perf_counter() - start < 1.0
    series = doc["report"]["series"]
    assert len(series) == 501 and series[:13] == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_series_routes_that_disagree_exit_4(monkeypatch, capsys):
    # a disagreement of the product and Euler routes is a cross-check failure
    import swcohom.combinat as combinat

    euler = combinat._series_by_euler
    monkeypatch.setattr(combinat, "_series_by_euler",
                        lambda N: euler(N)[:-1] + [euler(N)[-1] + 1])
    code, out = run_cli("series", "20")
    assert code == 4 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("cross-check failure: partition series routes disagree: ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_series_check_reduced():
    code, doc = run_json("series", "8", "--check-reduced", "6")
    assert code == 0
    assert doc["report"]["agree"] is True


def test_cohomology_symmetric():
    code, doc = run_json("cohomology", "--sequence", "symmetric", "--weight-max", "6")
    assert code == 0
    assert doc["report"]["H"] == {"1": 1, "2": 0, "3": 1, "4": 1, "5": 1, "6": 1}


def test_cohomology_hecke_d2():
    code, doc = run_json("cohomology", "--sequence", "hecke",
                         "--trunc-degree", "2", "--weight-max", "2")
    assert code == 0
    assert doc["report"]["H"] == {"1": 3, "2": 3}


def test_cohomology_skew_honest_values():
    # the tensor square of the default quadratic algebra has zero divisors;
    # the honest weight-3 value is 2 (see the cross-route homology tests)
    code, doc = run_json("cohomology", "--sequence", "skew", "--weight-max", "3")
    assert code == 0
    assert doc["report"]["H"] == {"1": 2, "2": 1, "3": 2}


def test_cohomology_both_modes_consistent():
    code, doc = run_json("cohomology", "--sequence", "symmetric",
                         "--weight-max", "4", "--mode", "both")
    assert code == 0
    assert doc["report"]["consistent"] is True
    assert doc["report"]["full"]["boundary_degree"] == 4


def test_representatives_emitted():
    code, doc = run_json("cohomology", "--sequence", "symmetric",
                         "--weight-max", "3", "--representatives")
    assert code == 0
    reps = doc["report"]["representatives"]
    assert reps["1"] == [{"s(1,)": "1"}]
    assert reps["3"] == [{"s(3, 1, 2)": "1"}]


def test_representatives_other_label_kinds():
    code, doc = run_json("cohomology", "--sequence", "hecke",
                         "--trunc-degree", "1", "--weight-max", "1",
                         "--representatives")
    assert code == 0
    assert doc["report"]["representatives"]["1"] == [{"(0,)|s(1,)": "1"},
                                                      {"(1,)|s(1,)": "1"}]
    code, doc = run_json("cohomology", "--sequence", "skew",
                         "--weight-max", "2", "--representatives")
    assert code == 0
    assert len(doc["report"]["representatives"]["1"]) == 2
    assert doc["report"]["representatives"]["2"] == [{"(1, 0)|s(1, 2)": "1"}]


# recorded from ``cohomology --sequence skew --weight-max 4 --representatives``
# before echelon rows were stored fraction-free: the twelve 1/2 coefficients
# come from pivots of 2 and must come back exactly
SKEW_W4_REPRESENTATIVES = {
    "3": [
        {
            "(0, 0, 0)|s(3, 1, 2)": "1",
            "(0, 1, 1)|s(3, 1, 2)": "1/2",
            "(1, 0, 1)|s(3, 1, 2)": "1/2",
            "(1, 1, 0)|s(3, 1, 2)": "1/2",
        },
        {
            "(0, 0, 1)|s(3, 1, 2)": "1",
            "(0, 1, 0)|s(3, 1, 2)": "1",
            "(1, 0, 0)|s(3, 1, 2)": "1",
            "(1, 1, 1)|s(3, 1, 2)": "1/2",
        },
    ],
    "4": [
        {
            "(0, 0, 0, 0)|s(4, 2, 1, 3)": "1",
            "(0, 0, 1, 1)|s(4, 2, 1, 3)": "1/2",
            "(1, 0, 0, 1)|s(4, 2, 1, 3)": "1/2",
            "(1, 0, 1, 0)|s(4, 2, 1, 3)": "1/2",
        },
        {
            "(0, 0, 1, 0)|s(3, 1, 2, 4)": "1",
            "(0, 1, 0, 0)|s(3, 1, 2, 4)": "1",
            "(1, 0, 0, 0)|s(3, 1, 2, 4)": "1",
            "(1, 1, 1, 0)|s(3, 1, 2, 4)": "1/2",
        },
        {
            "(1, 0, 0, 0)|s(1, 4, 2, 3)": "1",
            "(1, 0, 1, 1)|s(1, 4, 2, 3)": "1/2",
            "(1, 1, 0, 1)|s(1, 4, 2, 3)": "1/2",
            "(1, 1, 1, 0)|s(1, 4, 2, 3)": "1/2",
        },
        {
            "(1, 0, 0, 1)|s(1, 4, 2, 3)": "1",
            "(1, 0, 1, 0)|s(1, 4, 2, 3)": "1",
            "(1, 1, 0, 0)|s(1, 4, 2, 3)": "1",
            "(1, 1, 1, 1)|s(1, 4, 2, 3)": "1/2",
        },
    ],
}


def test_skew_representatives_keep_their_halves():
    code, doc = run_json("cohomology", "--sequence", "skew",
                         "--weight-max", "4", "--representatives")
    assert code == 0
    reps = doc["report"]["representatives"]
    assert {w: reps[w] for w in ("3", "4")} == SKEW_W4_REPRESENTATIVES
    assert sum(c == "1/2" for w in ("3", "4") for row in reps[w]
               for c in row.values()) == 12


def _all_int(spec):
    values = [x for block in spec.table for row in block for x in row]
    values += [x for f in spec.vectors for x in getattr(spec, f)]
    return all(type(x) is int for x in values)


def test_spec_json_roundtrip_keeps_integral_constants_int(tmp_path, write_spec):
    # a parsed table must not turn integers into Fractions: elimination over
    # it would then run Fraction arithmetic on integers
    alg = CommutativeAlgebraSpec.quadratic(2)
    lie = LieAlgebraSpec.gl(2)
    for spec, name in ((alg, "alg.json"), (lie, "lie.json")):
        back = type(spec).from_json(write_spec(spec, name))
        assert back.table == spec.table and _all_int(spec) and _all_int(back)
    argv = ("cohomology", "--sequence", "skew", "--mode", "both", "--weight-max", "4")
    assert run_json(*argv, "--algebra", str(tmp_path / "alg.json")) == run_json(*argv)
    code, doc = run_json("gl", "--lie", str(tmp_path / "lie.json"))
    assert code == 0 and doc["report"]["invariant_dims"] == [1, 1, 0, 1, 1]


def test_gl_report():
    code, doc = run_json("gl", "--dim", "2")
    assert code == 0
    r = doc["report"]
    assert r["invariant_dims"] == [1, 1, 0, 1, 1]
    assert r["wheel_action"]["m=3"] == {"pass": True, "ratio": "1/2"}
    assert r["e5_acts_as_zero"] is True
    assert r["vanishing_pattern_ok"] is True


def test_hecke_check():
    code, doc = run_json("hecke-check", "--trunc-degree", "3", "--level-max", "3")
    assert code == 0
    r = doc["report"]
    assert r["reduced"]["T"] == {"1": 4, "2": 6, "3": 4}
    assert r["reduced"]["match"] and r["reduced"]["differential_zero"]
    assert all(v["match"] for v in r["centralizers"].values())
    # a composition prints as its parts tuple
    assert sorted(r["centralizers"]) == sorted(
        ["(1,)", "(2,)", "(1, 1)", "(3,)", "(2, 1)", "(1, 2)", "(1, 1, 1)"])


def test_hecke_at_truncation_degree_zero():
    # D = 0 keeps only y^0 in the window, yet the y_i stay generators of
    # every centralizer: without them C(1,1) would be all of Q[S_2], dim 2
    code, doc = run_json("hecke-check", "--trunc-degree", "0", "--level-max", "3")
    assert code == 0
    r = doc["report"]
    assert r["reduced"]["T"] == {"1": 1, "2": 0, "3": 0}
    assert r["reduced"]["match"] and r["reduced"]["differential_zero"]
    assert len(r["centralizers"]) == 7
    assert all(v["dim"] == 1 and v["match"] for v in r["centralizers"].values())
    code, doc = run_json("cohomology", "--sequence", "hecke", "--trunc-degree", "0",
                         "--mode", "both", "--weight-max", "3")
    assert code == 0
    assert doc["report"]["H"] == {"1": 1, "2": 0, "3": 0}
    assert doc["report"]["consistent"] is True


def test_cubic_command():
    code, doc = run_json("cubic", "--n", "4")
    assert code == 0
    r = doc["report"]
    assert r["agree"] is True
    assert r["regular_rep"]["acyclic_below_top"] is True


def test_horizontal_command():
    code, doc = run_json("horizontal", "--sequence", "symmetric", "--weight", "3")
    assert code == 0
    assert doc["report"]["H"] == {"1": 0, "2": 0, "3": 1}
    assert doc["report"]["concentrated_in_top"] is True


def test_selftest():
    code, doc = run_json("selftest")
    assert code == 0
    assert doc["report"]["all_passed"] is True


def test_deterministic_output():
    _, out1 = run_cli("cohomology", "--sequence", "symmetric", "--weight-max", "4",
                      "--seed", "7")
    _, out2 = run_cli("cohomology", "--sequence", "symmetric", "--weight-max", "4",
                      "--seed", "7")
    assert out1 == out2
    _, out3 = run_cli("--format", "csv", "gl", "--dim", "2")
    _, out4 = run_cli("--format", "csv", "gl", "--dim", "2")
    assert out3 == out4


def test_resource_guard_exit_code():
    code, out = run_cli("cohomology", "--sequence", "symmetric", "--weight-max", "12")
    assert code == 3


def test_gl_refuses_an_oversized_tensor_before_any_work(monkeypatch, capsys):
    import swcohom.lierep as lierep

    def boom(*args):
        raise AssertionError("gl(4) built before the guard")

    # cmd_gl imports these names from lierep when it runs, so it sees the patches
    monkeypatch.setattr(lierep, "exterior_invariants_dims", boom)
    monkeypatch.setattr(lierep.LieAlgebraSpec, "gl", boom)
    code, out = run_cli("gl", "--dim", "4")
    assert code == 3 and out == ""
    assert capsys.readouterr().err == \
        "resource guard: tensor of %d entries exceeds the guard\n" % 4 ** 12


LAYERS = ("combinat", "linalg", "symgrp", "sequences", "homology", "lierep")


@pytest.mark.parametrize("argv, absent", [
    (None, LAYERS),
    (["series", "5"], ("linalg", "symgrp", "sequences", "homology", "lierep")),
    (["cubic", "--n", "2"], ("sequences", "lierep")),
    (["gl", "--dim", "1"], ("sequences",)),
    (["cohomology", "--weight-max", "2"], ("lierep",)),
], ids=["import", "series", "cubic", "gl", "cohomology"])
def test_importing_the_cli_does_not_import_numpy(argv, absent):
    # every process compiles what it imports: importing the CLI loads no layer,
    # and a subcommand only the layers it runs; nor numpy or dataclasses (which
    # pulls in inspect) at all
    import swcohom

    src = str(Path(swcohom.__file__).resolve().parent.parent)
    run = "" if argv is None else "swcohom.cli.main(%r); " % (argv,)
    code = ("import sys; sys.path.insert(0, %r); import swcohom.cli; %s"
            "layers = ['swcohom.' + m for m in %r]; "
            "loaded = [m for m in ['numpy', 'dataclasses', 'inspect'] + layers "
            "if m in sys.modules]; "
            "assert not loaded, loaded" % (src, run, absent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cross_check_exit_code(monkeypatch):
    import swcohom.cli as cli

    def boom(args):
        raise CrossCheckError("forced")

    # build_parser looks the handler up at build time, so patching the module
    # attribute reroutes the subcommand
    monkeypatch.setattr(cli, "cmd_selftest", boom)
    code, out = run_cli("selftest")
    assert code == 4
    assert out == ""


def test_cube_containment_failure_exits_4(monkeypatch, capsys):
    import swcohom.homology as homology
    from swcohom.linalg import Subspace

    # C(2) = Q^2 does not lie inside its refinement C(1, 1) = span{e_0}, an
    # eliminated target or one adopted from indicators (refused by one array
    # comparison)
    for target in (Subspace.from_vectors([{0: 1}], 2), from_indicators([[0]], 2)):
        bad = {(2,): Subspace.full(2), (1, 1): target}
        monkeypatch.setattr(homology, "cubic_invariants_diagram", lambda module: bad)
        code, out = run_cli("cubic", "--n", "2")
        assert code == 4 and out == ""
        assert capsys.readouterr().err == \
            "cross-check failure: face (2,) -> (1, 1) leaves its target\n"


def test_failed_report_check_exit_code(monkeypatch):
    import swcohom.cli as cli

    monkeypatch.setattr(cli, "cmd_selftest", lambda args: ({"all_passed": False}, False))
    code, doc = run_json("selftest")
    assert code == 4
    assert doc["report"] == {"all_passed": False}


@pytest.mark.parametrize("argv", [
    ("series", "-1"),
    ("horizontal", "--weight", "0"),
    ("cubic", "--n", "0"),
    ("cohomology", "--weight-max", "0"),
    ("cohomology", "--weight-max", "-2"),
    ("gl", "--dim", "0"),
    ("cohomology", "--sequence", "hecke", "--trunc-degree", "-1"),
], ids=["series-neg", "horizontal-weight0", "cubic-n0", "cohomology-wmax0",
        "cohomology-wmax-neg", "gl-dim0", "hecke-trunc-neg"])
def test_out_of_range_integer_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "must be at least" in captured.err


@pytest.mark.parametrize("argv", [
    ("cohomology", "--sequence", "hecke", "--trunc-degree", "2", "--weight-max", "4"),
    ("cohomology", "--sequence", "skew", "--weight-max", "5"),
], ids=["hecke-d2-w4", "skew-w5"])
def test_non_symmetric_sequence_refuses_above_its_cap(argv):
    # only Q[S_w] may take dim T_w from the sign-twisted class count: here it
    # would give T_4 = 1 for Hecke (the true value is 0) and T_5 = 1 for skew
    code, out = run_cli(*argv)
    assert code == 3
    assert out == ""


# a commutative table whose product is not associative: (e0 e0) e1 = 0 but
# e0 (e0 e1) = e1
NON_ASSOCIATIVE = {"dim": 2, "unit": ["1", "0"],
                   "table": [[["0", "1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]}


@pytest.mark.parametrize("command, flag, doc", [
    (("cohomology", "--sequence", "skew"), "--algebra", None),
    (("gl",), "--lie", None),
    (("cohomology", "--sequence", "skew"), "--algebra", NON_ASSOCIATIVE),
], ids=["algebra-missing", "lie-missing", "algebra-non-associative"])
def test_bad_structure_constant_file_is_a_usage_error(command, flag, doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, flag, str(path))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and str(path) in captured.err
    assert "Traceback" not in captured.err
    if doc is not None:
        assert "not associative" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("gl", "--dim", "2", "--lie", "LIE"), "not allowed with argument"),
    (("gl", "--lie", "LIE", "--dim", "3"), "not allowed with argument"),
    (("cohomology", "--mode", "full", "--representatives"), "--representatives needs"),
    # a report that ignores an option would read as if the option had applied
    (("cohomology", "--sequence", "hecke", "--algebra", "ALG"), "--algebra needs"),
    (("horizontal", "--algebra", "ALG"), "--algebra needs"),
    (("cohomology", "--sequence", "symmetric", "--trunc-degree", "3"),
     "--trunc-degree needs"),
    (("horizontal", "--sequence", "skew", "--trunc-degree", "2"), "--trunc-degree needs"),
], ids=["gl-dim-then-lie", "gl-lie-then-dim", "full-representatives", "hecke-algebra",
        "symmetric-algebra", "symmetric-trunc-degree", "skew-trunc-degree"])
def test_contradictory_options_are_a_usage_error(argv, message, write_spec, capsys):
    from swcohom.lierep import LieAlgebraSpec

    files = {"LIE": write_spec(LieAlgebraSpec.sl2(), "sl2.json"),
             "ALG": write_spec(CommutativeAlgebraSpec.quadratic(2), "alg.json")}
    with pytest.raises(SystemExit) as exc:
        run_cli(*(files.get(a, a) for a in argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (("cohomology", "--mode", "both", "--weight-max", "1"), "--mode both needs --weight-max 2"),
    (("series", "0", "--check-reduced", "3"), "--check-reduced needs max_degree 1"),
], ids=["both-at-weight-1", "series-0-check-reduced"])
def test_vacuous_cross_check_is_a_usage_error(argv, message, capsys):
    # comparing no degree would print "consistent"/"agree": true and exit 0
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and message in captured.err


def test_seed_and_backend_embedded():
    code, doc = run_json("--seed", "42", "--backend", "exact", "selftest")
    assert code == 0
    assert doc["seed"] == 42 and doc["backend"] == "exact"
    # both flags are only echoed: every rank is exact whatever they say
    code, other = run_json("--seed", "7", "selftest", "--backend", "modular")
    assert code == 0
    assert other["seed"] == 7 and other["backend"] == "modular"
    assert other["report"] == doc["report"]


def test_algebra_loaded_from_json(write_spec):
    from swcohom.sequences import CommutativeAlgebraSpec

    path = write_spec(CommutativeAlgebraSpec.quadratic(3), "alg.json")
    code, doc = run_json("cohomology", "--sequence", "skew",
                         "--algebra", path, "--weight-max", "2")
    assert code == 0
    assert doc["report"]["H"]["1"] == 2


def test_gl_refuses_a_wide_exterior_power_before_any_kernel(write_spec, monkeypatch, capsys):
    import swcohom.lierep as lierep

    def boom(*args):
        raise AssertionError("kernel solved before the guard")

    # the wedge solve is one rank; the kernel solve is still patched for the other routes
    monkeypatch.setattr(lierep, "annihilated", boom)
    monkeypatch.setattr(lierep, "rank", boom)
    path = write_spec(lierep.LieAlgebraSpec.abelian(25), "abelian25.json")
    code, out = run_cli("gl", "--lie", path)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == \
        "resource guard: exterior power of dim %d exceeds the guard\n" % comb(25, 12)


def test_lie_algebra_loaded_from_json(write_spec):
    from swcohom.lierep import LieAlgebraSpec

    path = write_spec(LieAlgebraSpec.sl2(), "sl2.json")
    code, doc = run_json("gl", "--lie", path, "--degree-max", "3")
    assert code == 0
    assert doc["report"]["invariant_dims"] == [1, 0, 0, 1]


def test_pretty_format_smoke():
    code, out = run_cli("--format", "pretty", "cohomology", "--sequence",
                        "symmetric", "--weight-max", "3", "--representatives")
    assert code == 0
    assert "schema: swcohom/1" in out


def test_readme_cli_examples_run():
    # every ``swcohom ...`` line of the first code block under README's ``## CLI``
    # (the next block loads ``--algebra``/``--lie`` files), run in process
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    examples = [line.split()[1:] for line in block.splitlines() if line.startswith("swcohom ")]
    assert len(examples) >= 10, examples
    for argv in examples:
        code, doc = run_json(*argv)
        assert code == 0 and doc["schema"] == "swcohom/1", argv

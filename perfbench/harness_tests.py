"""Tests of the benchmark harness itself (not collected by the tier-1 suite).

    python3 -m pytest perfbench/harness_tests.py -q

They run every workload traced twice and untraced once (about two minutes
on a 2-core machine), so they live beside the benchmark rather than in
``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS, check_run, cli_argv, load_golden  # noqa: E402

SEED = 3

# the workload meant to exercise each stage; rank_exact and bad primes are
# escalation events that a healthy modular run never shows
EXERCISED_ON = {
    "homology.centralizer": "skew-both-w4",
    "homology.assembly": "sym-both-w6",
    "linalg.coords_of": "sym-both-w6",
    "linalg.echelon_insert": "cubic-n6",
    "linalg.kernel_basis": "cubic-n6",
    "linalg.subspace_sum": "sym-both-w6",
    "linalg.quotient": "sym-both-w6",
    "linalg.rank": "cubic-n6",
    "linalg.rank_mod": "cubic-n6",
    "linalg.ddcheck": "cubic-n6",
    "linalg.matmul": "cubic-n6",
    "sequences.basis_product": "skew-both-w4",
    "sequences.mu": "sym-both-w6",
    "symgrp.signed_orbit": "sym-both-w6",
    "lierep.wheels": "gl-dim3",
    "lierep.ext_invariants": "gl-dim3",
    "lierep.spec_validate": "gl-dim3",
}


def _child(argv):
    return run.run_child([sys.executable, *argv], timeout=300)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_runs(request):
    name = request.param
    cli = _child(["-m", "swcohom.cli", *cli_argv(name, SEED)])
    traces = []
    for _ in range(2):
        child = _child([str(HERE / "traced.py"), "--workload", name,
                        "--seed", str(SEED), "--trace", "1"])
        assert child.exit_code == 0, child.stderr
        traces.append(json.loads(child.stdout))
    return name, cli, traces


def test_traced_stdout_equals_untraced(workload_runs):
    name, cli, traces = workload_runs
    assert cli.exit_code == 0, cli.stderr
    assert traces[0]["exit_code"] == 0
    assert traces[0]["stdout"] == cli.stdout
    assert check_run(name, cli.exit_code, cli.stdout, load_golden(name)) == []


def test_counts_repeat_at_one_seed(workload_runs):
    _, _, (first, second) = workload_runs
    assert run._counts(first["metrics"]) == run._counts(second["metrics"])
    calls = {span: rec["calls"] for span, rec in first["spans"].items()}
    assert calls == {span: rec["calls"] for span, rec in second["spans"].items()}


def test_each_stage_records_calls_on_its_workload(workload_runs):
    name, _, (doc, _) = workload_runs
    for group, home in EXERCISED_ON.items():
        if home == name:
            assert doc["metrics"][group + ".calls"] >= 1, group
    assert doc["metrics"]["cli.main.calls"] == 1


def test_largest_layer_is_the_named_one(workload_runs):
    name, _, (doc, _) = workload_runs
    m = doc["metrics"]
    modules = {k: v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s")}
    stages = {k: v for k, v in m.items() if k.count(".") == 2 and k.endswith(".self_s")}
    top_module = max(modules, key=modules.get)
    top_stage = max(stages, key=stages.get)
    expected = {
        "sym-both-w6": ({"linalg.self_s", "homology.self_s"},
                        {"linalg.coords_of.self_s", "homology.assembly.self_s"}),
        "skew-both-w4": ({"sequences.self_s", "homology.self_s"},
                         {"sequences.basis_product.self_s", "homology.centralizer.self_s"}),
        "cubic-n6": ({"linalg.self_s"}, None),
        "gl-dim3": ({"lierep.self_s"}, None),
    }[name]
    assert top_module in expected[0], modules
    if expected[1] is not None:
        assert top_stage in expected[1], stages


def test_benchmark_names_only_metrics_the_trace_produces(workload_runs):
    _, _, (doc, _) = workload_runs
    spec = run.benchmark_spec()
    derived = {"cli.main_s", "trace.overhead_s"}
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in doc["metrics"] and m["name"] not in derived]
    assert missing == []


def test_every_reimported_name_is_wrapped():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import traced, swcohom.homology as h, swcohom.cli as c, swcohom.lierep as l\n"
        "replaced = traced.Tracer().install()\n"
        "import importlib, pkgutil, swcohom\n"
        "mods = [importlib.import_module('swcohom.' + i.name)"
        " for i in pkgutil.iter_modules(swcohom.__path__)]\n"
        "left = [(m.__name__, n) for m in mods for n, o in vars(m).items()"
        " if id(o) in replaced]\n"
        "assert not left, left\n"
        "for f in (h.rank, h.kernel_basis, h.subspace_sum, c.reduced_complex,"
        " c.centralizer, l.kernel_basis, h.QuotientSpace.__init__):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        % (str(HERE), str(run.SRC)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_self_time_excludes_traced_children():
    ticks = iter(range(100))
    tracer = traced.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("linalg.inner", "linalg", lambda: None)
    outer = tracer.wrap("homology.outer", "homology", lambda: (inner(), inner()))
    outer()
    # outer spans clock ticks 0..5, each inner call spans one tick
    assert tracer.spans["homology.outer"] == [1, 5.0, 3.0]
    assert tracer.spans["linalg.inner"] == [2, 2.0, 2.0]
    assert tracer.modules == {"homology": 3.0, "linalg": 2.0}


def test_sliced_child_keeps_its_output_and_counts_every_slice():
    argv = [sys.executable, "-c", "print('x' * 100000); sum(range(2 * 10 ** 7))"]
    child = run.run_child(argv, timeout=60, ref_exponent=1.0)
    assert child.exit_code == 0
    assert child.stdout == "x" * 100000 + "\n"
    assert child.ref_s > 0 and child.wall_s > 0

    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    clock = run.SlicedClock(proc.pid, run.time.perf_counter(), 1.0)
    status, _ = clock.wait()
    proc.returncode = 0  # reaped by clock.wait
    assert run.os.waitstatus_to_exitcode(status) == 0
    # a timed reference between every two slices; the last slice ends at exit
    assert len(clock.slices) == len(clock.refs) + 1 > 2
    assert all(dt >= run.SLICE_S * 0.9 for dt in clock.slices[1:-1])
    assert clock.wall_s() == sum(clock.slices)


def test_tampered_golden_fails_every_run():
    golden = load_golden("gl-dim3")
    golden["report"]["invariant_dims"][2] = 1
    result, info = run.measure("gl-dim3", SEED, 1, trace=0, golden=golden)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_ITERATIONS
    assert info["fail_frac"] == 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "%s/run.py" % HERE.name, "--workload", "gl-dim3",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

"""The benchmark's workloads and the correctness gate every run passes through.

Each workload is one ``swcohom`` CLI invocation.  A run of it is correct when
the CLI exits 0, its report minus the ``seed`` field equals the golden report
recorded from the seed commit (``golden/<name>.json``), and the paper facts
named for the workload hold.  The facts are checked separately so that a
golden file re-recorded by mistake cannot hide a wrong answer.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _sym_facts(report):
    # H^w of the reduced complex follows prod_{m odd}(1 + t^m): distinct odd parts
    out = []
    if report.get("H") != {"1": 1, "2": 0, "3": 1, "4": 1, "5": 1, "6": 1}:
        out.append("H is not the distinct-odd-parts series: %r" % (report.get("H"),))
    if report.get("consistent") is not True:
        out.append("reduced and truncated-full complexes disagree")
    return out


def _skew_facts(report):
    if report.get("consistent") is not True:
        return ["reduced and truncated-full complexes disagree"]
    return []


def _cubic_facts(report):
    rr = report.get("regular_rep", {})
    out = []
    if report.get("agree") is not True:
        out.append("relative simplex counts differ from the multinomial sums")
    if rr.get("acyclic_below_top") is not True:
        out.append("regular representation is not acyclic below the top degree")
    if rr.get("top_matches") is not True:
        out.append("top cohomology differs from the top quotient")
    return out


def _gl_facts(report):
    # exterior algebra on generators of degree 1, 3 and 5
    if report.get("invariant_dims") != [1, 1, 0, 1, 1, 1, 1, 0, 1, 1]:
        return ["invariant_dims %r is not Lambda(x1, x3, x5)"
                % (report.get("invariant_dims"),)]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    facts: Callable
    # a run slows down by f ** ref_exponent when the benchmark's reference task
    # slows down by f (run.SlicedClock); fitted on two sets of ten-seed runs
    ref_exponent: float


WORKLOADS = {w.name: w for w in (
    # orbit-route centralizers, reduced and truncated-full complexes; dominated
    # by dense coords_of and the assembly loops that scan its output
    Workload("sym-both-w6",
             ("cohomology", "--sequence", "symmetric", "--mode", "both",
              "--weight-max", "6"), _sym_facts, 1.3),
    # commutant-route centralizers over Q[x]/(x^2-2): rational coefficients
    # and sequence basis products
    Workload("skew-both-w4",
             ("cohomology", "--sequence", "skew", "--mode", "both",
              "--weight-max", "4"), _skew_facts, 1.3),
    # no sequence: a few large 0/+-1 linear systems on the 720-dim regular rep
    Workload("cubic-n6", ("cubic", "--n", "6"), _cubic_facts, 1.3),
    # the only workload that enters lierep (numpy wheel tensors); its numpy
    # half slows down less than interpreted code, hence the lower exponent
    Workload("gl-dim3", ("gl", "--dim", "3"), _gl_facts, 1.0),
)}


def cli_argv(workload, seed):
    """Arguments for ``swcohom.cli.main`` running ``workload`` at ``seed``."""
    return ["--seed", str(seed), *WORKLOADS[workload].args]


def load_golden(workload):
    with open(GOLDEN_DIR / ("%s.json" % workload), encoding="utf-8") as fh:
        return json.load(fh)


def _without_seed(doc):
    return {k: v for k, v in doc.items() if k != "seed"}


def check_run(workload, exit_code, stdout, golden):
    """Problems with one CLI run; an empty list means the run is correct."""
    if exit_code != 0:
        return ["exit code %r" % (exit_code,)]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    if not isinstance(doc, dict):
        return ["stdout is not a JSON report"]
    problems = []
    if _without_seed(doc) != _without_seed(golden):
        problems.append("report differs from the golden report")
    problems += WORKLOADS[workload].facts(doc.get("report", {}))
    return problems

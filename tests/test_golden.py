"""The benchmark workloads' reports, byte for byte, in tier-1.

Each workload of ``perfbench/`` is one CLI invocation whose JSON report is
recorded, byte for byte, in ``perfbench/golden/<name>.json``.  Running them
here in-process at two seeds and comparing the output text (the ``seed``
line aside) makes a changed byte fail the test suite, not only the
benchmark.  The golden files are only read.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from swcohom.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# the argument lists of perfbench/workloads.py
WORKLOADS = {
    "sym-both-w6": ("cohomology", "--sequence", "symmetric", "--mode", "both",
                    "--weight-max", "6"),
    "skew-both-w4": ("cohomology", "--sequence", "skew", "--mode", "both",
                     "--weight-max", "4"),
    "cubic-n6": ("cubic", "--n", "6"),
    "gl-dim3": ("gl", "--dim", "3"),
}


def _seed_line(seed):
    return '\n  "seed": %d,\n' % seed


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_matches_golden(name, seed):
    golden = (GOLDEN_DIR / ("%s.json" % name)).read_text(encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--seed", str(seed), *WORKLOADS[name]])
    assert code == 0
    out = buf.getvalue()
    # the report minus its seed, compared as text
    golden_seed = json.loads(golden)["seed"]
    assert out.count(_seed_line(seed)) == 1
    assert out.replace(_seed_line(seed), _seed_line(golden_seed)) == golden

"""Boundary mutants of the engine and the audit, each killed by the test it names.

Each row is (module, old text, new text, killer test node).  The test
copies src/braidtwist, replaces the one occurrence of the old text in the
module with the new, and runs only the killer node against the copy in a
fresh interpreter.  The node must fail (pytest exit code 1): a node that
passes leaves the mutant alive, and a missing node (exit code 4) or a
collection error (exit code 2) is a broken row, not a kill.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidtwist

PACKAGE = Path(braidtwist.__file__).parent
TESTS = Path(__file__).parent

MUTANTS = [
    # A step cap that admits one reduction fewer.
    ("ordering.py", "reductions > cap", "reductions >= cap",
     "test_ordering.py::TestStepCap::test_cap_admits_exactly_that_many_reductions"),
    # A strand check that lets the letter index n through.
    ("ordering.py", "default=0) >= w.strands", "default=0) > w.strands",
     "test_ordering.py::TestHandleReduce::test_letter_beyond_the_strands_raises"),
    # A floor walk that runs one step further.
    ("fdtc.py", "lo[0] >= bound", "lo[0] > bound",
     "test_fdtc.py::TestDehornoyFloor::test_runaway_floor_walk_raises"),
    # A cap error that is an engine fault again.
    ("ordering.py", "class ReductionCapError(ValueError)", "class ReductionCapError(RuntimeError)",
     "test_ordering.py::TestStepCap::test_cap_error_is_a_domain_error_not_an_engine_fault"),
    # A quasipositive twist window claimed on 2 strands.
    ("quasipositive.py", "if strands >= 3", "if strands >= 2",
     "test_quasipositive.py::TestCheckBound::test_needs_three_strands"),
    # A Delta^2 letter count of n(n+1), which refuses a full twist that fits the budget.
    ("fdtc.py", "n * (n - 1))", "n * (n + 1))",
     "test_braid.py::TestLetterBudget::test_a_budget_of_one_full_twist"),
    # A link audited with predicates that need a knot.
    ("genus_bounds.py", "if requested and closure_components(w) != 1:", "if False:",
     "test_genus_bounds.py::TestAuditBounds::test_rejects_links"),
]


@pytest.mark.parametrize(
    "module, old, new, killer", MUTANTS, ids=[f"{row[0]}:{row[2]}" for row in MUTANTS]
)
def test_mutant_is_killed(tmp_path, module, old, new, killer):
    copy = tmp_path / "src" / "braidtwist"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / module).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{old!r} must occur exactly once in {module}"
    (copy / module).write_text(source.replace(old, new), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / killer)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(copy.parent)},
        capture_output=True,
        text=True,
        timeout=300,  # a mutant may loop; a row that hangs fails
    )
    assert run.returncode == 1, f"exit code {run.returncode}\n{run.stdout}{run.stderr}"

import os

import pytest
from hypothesis import settings

from helpers import FIXTURE_PATH, REPO_ROOT

# The kernel rule (tests/test_kernels.py), dot from two columns on C-ordered
# arrays, holds only while numpy sends dot and @ to one kernel, and the list
# scans (test_solver.py's TestChecks) decide as numpy's max/min only while
# numpy keeps its NaN semantics, and default_rng's stream (test_pcg64.py)
# is numpy's to change too; CI runs those tests, TestLeanPgMatchesReference
# and the tie rule's order properties (TestTieRule) on every numpy leg with
# pytest --hypothesis-profile=kernel-rule, a larger example budget.
settings.register_profile("kernel-rule", max_examples=2000, deadline=None)

# Tests that run `python -m fuzzyqp` in a subprocess import the package from
# this checkout, installed or not, as the in-process tests do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)

from fuzzyqp import parse_problem


@pytest.fixture(scope="session")
def example_problem():
    return parse_problem(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fixture_text():
    return FIXTURE_PATH.read_text(encoding="utf-8")

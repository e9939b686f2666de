import os

import pytest
from hypothesis import settings

from helpers import FIXTURE_PATH, REPO_ROOT

# The larger example budget of the numpy_contract tests, which CI runs on
# every numpy leg (why: .github/workflows/tests.yml).
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

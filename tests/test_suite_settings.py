"""The suite's own pytest settings."""

import importlib.util
import re
from pathlib import Path

import pytest

import noiselogic

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None, reason="hypothesis reports without libcst"
)
def test_failing_hypothesis_test_reports_a_failure(pytester):
    # hypothesis's failure report imports libcst, whose import-time
    # DeprecationWarning must not turn into an INTERNALERROR under
    # filterwarnings = ["error"]
    test_file = pytester.makepyfile(test_property=FAILING_PROPERTY)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        str(test_file),
    )
    result.stdout.fnmatch_lines(["*1 failed*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()


def test_package_version_matches_pyproject():
    # both are bumped by hand; a regex, since Python 3.10 has no tomllib
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", PYPROJECT.read_text("utf-8"), re.M | re.S)
    version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
    assert noiselogic.__version__ == version.group(1)

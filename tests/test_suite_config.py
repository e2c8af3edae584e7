"""The repository's configuration: pytest reports a failing property as a failure, not a crash,
and the package's version is the one pyproject.toml declares."""

import re
import subprocess
import sys
from pathlib import Path

import quditshare

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    # a failing @given test makes hypothesis import its patch writer, and with it libcst
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_package_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]$(.*?)^\[", PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M).group(1)
    assert quditshare.__version__ == declared

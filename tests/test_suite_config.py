"""The repository's configuration: pytest reports a failing property as a failure, not a crash,
the package's version is the one pyproject.toml declares, and the test oracles import nothing
of the package."""

import re
import subprocess
import sys
from pathlib import Path

import quditshare

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

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


def test_oracles_import_nothing_of_the_package():
    # register_checks imports the engine; the oracles the engine is checked against must not
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import dense_oracle, exact_oracle; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'quditshare'))")
    proc = subprocess.run([sys.executable, "-c", probe, str(TESTS)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

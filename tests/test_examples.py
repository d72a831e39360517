"""Every shipped example runs clean: an example is the evidence for the
modules it alone reaches (docs/CENSUS.md), so each one is executed here."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_all_examples_exist_and_are_documented():
    assert len(SCRIPTS) >= 6
    for script in SCRIPTS:
        text = (EXAMPLES / script).read_text()
        assert text.startswith("#!/usr/bin/env python"), script
        assert '"""' in text, script
        assert "def main()" in text, script

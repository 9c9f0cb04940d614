"""CLI output of the text pipelines, byte for byte against tests/data/cli/.

tools/cli_goldens.py defines the cases and writes the golden files; this test
runs each case again and fails on any difference in exit code, stdout, stderr
or a written file.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_goldens.py"
_spec = importlib.util.spec_from_file_location("cli_goldens", _TOOL)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_output_is_golden(name):
    assert goldens.run_case(name) == goldens.stored(name)


def test_every_golden_directory_is_a_case():
    case_dirs = {path.name for path in goldens.GOLDEN.iterdir() if path.name != "in"}
    assert case_dirs == set(goldens.CASES)

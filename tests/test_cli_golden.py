"""CLI output of every subcommand, byte for byte against tests/data/cli/.

tools/cli_goldens.py defines the cases and writes the golden files; this test
runs each case again and fails on any difference in exit code, stdout, stderr
or a written file.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_goldens.py"
_spec = importlib.util.spec_from_file_location("cli_goldens", _TOOL)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_output_is_golden(name):
    assert goldens.run_case(name) == goldens.stored(name)


def test_cases_run_again_in_reverse_give_the_same_output():
    # build_parser is cached, so no flag of one main call may leak into the next
    for name in [*sorted(goldens.CASES), *reversed(sorted(goldens.CASES))]:
        assert goldens.run_case(name) == goldens.stored(name), name


def test_every_golden_directory_is_a_case():
    case_dirs = {path.name for path in goldens.GOLDEN.iterdir() if path.name != "in"}
    assert case_dirs == set(goldens.CASES)


#: runs every case but demo_head_* in a fresh interpreter; prints each whose output differs
_TEXT_CASES_CHECK = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("cli_goldens", sys.argv[1])
goldens = importlib.util.module_from_spec(spec)
spec.loader.exec_module(goldens)
for name in sorted(goldens.CASES):
    if not name.startswith("demo_head_") and goldens.run_case(name) != goldens.stored(name):
        print(name)
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_text_cases_are_golden_under_each_hash_seed(seed):
    # str hashes follow PYTHONHASHSEED and Tone hashes by identity, so an
    # output that followed set or dict hash order would differ between seeds
    env = dict(os.environ, PYTHONHASHSEED=seed)
    run = subprocess.run([sys.executable, "-c", _TEXT_CASES_CHECK, str(_TOOL)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")

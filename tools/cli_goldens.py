"""Regenerate the CLI golden files under tests/data/cli/ from its inputs.

Run from the repository root:  python tools/cli_goldens.py
Each case of CASES runs `vietphon.cli.main` in a scratch directory that holds
a copy of tests/data/cli/in/, so the file names in messages are the bare
input names.  Its exit code, stdout, stderr and every file it writes under
out/ are stored in tests/data/cli/<case>/.  Only a case that is new or whose
output differs is rewritten, and the script prints the names it wrote and how
many cases were unchanged.  tests/test_cli_golden.py runs the same cases and
fails on any difference, so rerun this script only for a change that means to
alter CLI output, and say so where the change is recorded.
"""

import contextlib
import io
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vietphon.cli import main

GOLDEN = ROOT / "tests" / "data" / "cli"
INPUTS = GOLDEN / "in"

#: case name -> argv; outputs go under out/, inputs are named as in INPUTS
CASES = {
    "tokenize": ["tokenize", "text.txt", "-o", "out/phonemes.txt"],
    "tokenize_strict": ["tokenize", "--strict", "text.txt"],
    "tokenize_no_nfd": ["tokenize", "--no-nfd-ok", "text.txt"],
    "tokenize_foreign": ["tokenize", "foreign.txt"],
    "detokenize": ["detokenize", "phonemes.txt", "-o", "out/text.txt"],
    "detokenize_bad": ["detokenize", "phonemes_bad.txt"],
    "roundtrip": ["roundtrip", "words.txt"],
    "vocab": ["vocab", "--lexicon", "lexicon.txt", "-o", "out/vocab.tsv"],
    "rules": ["rules"],
    "score_tuple": ["score", "--pairs", "pairs.jsonl", "--per-alignment", "tuple"],
    "score_flat": ["score", "--pairs", "pairs.jsonl", "--per-alignment", "flat"],
    "score_spaces": ["score", "--pairs", "pairs.jsonl", "--cer-include-spaces"],
    "score_foreign": ["score", "--pairs", "pairs_foreign.jsonl"],
    "score_foreign_no_per": ["score", "--pairs", "pairs_foreign.jsonl", "--no-per"],
    "filter": ["filter", "manifest.jsonl", "-o", "out/kept.jsonl", "--discard-file", "out/discarded.jsonl"],
    "filter_refiltered": ["filter", "manifest_refiltered.jsonl", "-o", "out/kept.jsonl",
                          "--discard-file", "out/discarded.jsonl"],
    "vocab_bundled": ["vocab", "-o", "out/vocab.tsv"],
    "demo_head_100": ["demo-head", "--configs", "100"],
    "demo_head_20_input": ["demo-head", "--configs", "20", "--residual", "input"],
    "demo_head_params": ["demo-head", "--configs", "0", "--dump-params", "-"],
    "demo_head_load_params": ["demo-head", "--load-params", "demo_head_params.txt"],
}


def run_case(name: str) -> dict[str, bytes]:
    """File name -> content of what case `name` produces: code, stdout, stderr, out/ files."""
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        shutil.copytree(INPUTS, work, dirs_exist_ok=True)
        (work / "out").mkdir()
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(CASES[name])
        finally:
            os.chdir(cwd)
        produced = {"code": f"{code}\n", "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        produced = {key: text.encode("utf-8") for key, text in produced.items()}
        produced.update((path.name, path.read_bytes()) for path in sorted((work / "out").iterdir()))
    return produced


def stored(name: str) -> dict[str, bytes]:
    """File name -> content of the golden files of case `name`."""
    return {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}


def write() -> None:
    """Rewrite the golden files of each case that is new or whose output differs."""
    written = []
    for name in CASES:
        produced = run_case(name)
        case_dir = GOLDEN / name
        if case_dir.is_dir() and produced == stored(name):
            continue
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir()
        for file_name, content in produced.items():
            (case_dir / file_name).write_bytes(content)
        written.append(name)
    print(f"wrote {len(written)} of {len(CASES)} cases to {GOLDEN}: {', '.join(written) or '(none)'}; "
          f"{len(CASES) - len(written)} unchanged")


if __name__ == "__main__":
    write()

"""Regenerate src/vietphon/data/lexicon.txt from the closed syllable set.

Run from the repository root:  python tools/build_lexicon.py
The output is deterministic; the file is committed so the shipped artifact
does not depend on this script.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from vietphon.tokenizer import closed_syllables


def main():
    # tests/test_tokenizer.py::TestClosedSyllables asserts that no two
    # syllables share a written form and that every word parses back
    words = sorted(closed_syllables())
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "vietphon" / "data" / "lexicon.txt"
    out.write_text("# vietphon bundled lexicon, version 1\n" + "\n".join(words) + "\n", "utf-8")
    print(f"wrote {len(words)} syllables to {out}")


if __name__ == "__main__":
    main()

"""The bundled syllable lexicon.

The lexicon is the closed set of structurally valid syllables: every rhyme
from the closed rhyme table combined with every compatible initial and tone,
rendered to its written form.  The word list ships as a data file (one NFC
word per line) generated by tools/build_lexicon.py; `iter_syllables` is the
same enumeration in tuple form.
"""

from __future__ import annotations

from importlib import resources

from .phonology import (
    INITIAL_IPAS,
    RHYMES,
    STOP_FINALS,
    STOP_TONES,
    Syllable,
    Tone,
)

_ALL_TONES = tuple(Tone)
_STOP_TONES = tuple(t for t in Tone if t in STOP_TONES)

# Combinations excluded from the closed set.  The written form of initial
# "gi" overlaps with i-initial rhymes, so a few tuples have no spelling that
# reads back unambiguously; they are unattested in the language.  A few
# rhymes exist only behind one initial ("uốc" after q, "êng"/"êc" after gi,
# where the written iê loses its i to the initial).
def _compatible(initial: str | None, glide: str | None, vowel: str, final: str | None) -> bool:
    if initial == "z":
        if glide is not None:
            return False
        if vowel == "ie":
            return False  # "gi" + "iê…" cannot be written distinctly from "gi" + "ê…"
        if vowel == "i" and final == "u̯":
            return False  # "giu" reads back as gi + /u/
    if glide is not None and vowel == "o" and initial != "k":
        return False  # "uô…" without a written q reads back as the /uo/ diphthong
    if glide is None and vowel == "e" and final in ("ŋ", "k") and initial != "z":
        return False  # "êng"/"êc" occur only where gi absorbs the i of "iê"
    return True


def iter_syllables():
    """Every syllable of the closed set, in a stable order."""
    initials = (None, *sorted(INITIAL_IPAS))
    for glide, vowel, final in RHYMES:
        tones = _STOP_TONES if final in STOP_FINALS else _ALL_TONES
        for initial in initials:
            if not _compatible(initial, glide, vowel, final):
                continue
            for tone in tones:
                yield Syllable(vowel=vowel, initial=initial, glide=glide, final=final, tone=tone)


def read_words(lines) -> list[str]:
    """The words of a word list: split on whitespace; a line starting with "#" is a comment."""
    return [word for line in lines if not line.startswith("#") for word in line.split()]


def load_lexicon() -> list[str]:
    """The bundled word list, one NFC-composed syllable per entry."""
    text = resources.files("vietphon.data").joinpath("lexicon.txt").read_text("utf-8")
    return read_words(text.splitlines())

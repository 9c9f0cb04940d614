"""Vietnamese phoneme inventories, the syllable model, and the strict tone check.

The grapheme rule table ships as a versioned TSV inside the package and is the
single source of truth: each Syllable is checked against it, the tokenizer
matches against it, and the vocabulary and the bundled syllable list are built
from it.  All tables are immutable after import and safe for concurrent reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

RULES_VERSION = "1"


class Tone(enum.Enum):
    """The six lexical tones, keyed by name and combining mark."""

    FLAT = ("Flat", "")
    LOW_FALLING = ("LowFalling", "̀")
    MID_RAISING = ("MidRaising", "́")
    MID_FALLING = ("MidFalling", "̉")
    MID_GLOTTALIZED_FALLING = ("MidGlottalizedFalling", "̃")
    MID_GLOTTALIZED_RAISING = ("MidGlottalizedRaising", "̣")

    def __init__(self, label: str, mark: str):
        self.label = label
        self.mark = mark

    # Members are singletons that == compares by identity, so the identity hash agrees with it and, unlike
    # Enum.__hash__, runs in C inside every Syllable hash.  No output follows hash order (see test_cli_golden.py).
    __hash__ = object.__hash__

    @classmethod
    def from_label(cls, label: str) -> "Tone":
        try:
            return _TONE_BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown tone label: {label!r}") from None


_TONE_BY_LABEL = {t.label: t for t in Tone}

#: combining mark -> tone, for the five marked tones (a strict bijection)
TONE_BY_MARK = {t.mark: t for t in Tone if t.mark}


class PhonemeClass(enum.Enum):
    INITIAL = "initial"
    GLIDE = "glide"
    VOWEL = "vowel"
    FINAL = "final"


@dataclass(frozen=True)
class GraphemeRule:
    """One written form of one phoneme, with an optional parse-side context.

    The table's kind, tag and note columns are for readers of `vietphon rules`; no field holds them."""

    written_form: str
    ipa: str
    phoneme_class: PhonemeClass
    context: str = ""  # context tag; "" means unconditional


def rules_text() -> str:
    """The shipped rule table, verbatim, for CLI audit dumps."""
    return resources.files("vietphon.data").joinpath("grapheme_rules.tsv").read_text("utf-8")


def _load_rules() -> tuple[GraphemeRule, ...]:
    text = rules_text()
    rules = []
    version = None
    for line in text.splitlines():
        if line.startswith("# version:"):
            version = line.split(":", 1)[1].strip()
        if not line or line.startswith("#"):
            continue
        cls, _kind, form, ipa, context, _tag, _note = line.split("\t")  # seven columns, or import fails
        rules.append(GraphemeRule(written_form=form, ipa=ipa, phoneme_class=PhonemeClass(cls),
                                  context="" if context == "-" else context))
    if version != RULES_VERSION:
        raise RuntimeError(f"rule table version {version!r} != expected {RULES_VERSION!r}")
    return tuple(rules)


RULES: tuple[GraphemeRule, ...] = _load_rules()


def inventory(phoneme_class: PhonemeClass) -> list[GraphemeRule]:
    """One class's rules by written-form length, longest first; a form's context row before its plain row."""
    rules = [r for r in RULES if r.phoneme_class is phoneme_class]
    return sorted(rules, key=lambda r: (-len(r.written_form), r.written_form, not r.context))


def _ipa_set(phoneme_class: PhonemeClass) -> frozenset[str]:
    return frozenset(r.ipa for r in RULES if r.phoneme_class is phoneme_class)


INITIAL_IPAS = _ipa_set(PhonemeClass.INITIAL)
GLIDE_IPAS = _ipa_set(PhonemeClass.GLIDE)
VOWEL_IPAS = _ipa_set(PhonemeClass.VOWEL)
FINAL_IPAS = _ipa_set(PhonemeClass.FINAL)

#: finals that are stops; validate lets them combine only with the two
#: checked tones (standard Vietnamese phonotactics)
STOP_FINALS = frozenset({"p", "t", "k", "c"})
STOP_TONES = frozenset({Tone.MID_RAISING, Tone.MID_GLOTTALIZED_RAISING})


class _SyllableFields(NamedTuple):
    vowel: str
    initial: str | None = None
    glide: str | None = None
    final: str | None = None
    tone: Tone = Tone.FLAT


class Syllable(_SyllableFields):
    """Five-field phonemic decomposition of one Vietnamese word.

    Components are IPA strings of their rule-table class, the tone a Tone; the
    vowel nucleus is compulsory, everything else may be absent.  It equals and
    hashes as the plain 5-tuple (vowel, initial, glide, final, tone).  Every
    construction, ``_replace`` included, passes ``_make``'s rule-table check.
    """

    __slots__ = ()

    def __new__(cls, vowel, initial=None, glide=None, final=None, tone=Tone.FLAT):
        return cls._make((vowel, initial, glide, final, tone))

    @classmethod
    def _make(cls, fields) -> "Syllable":
        vowel, initial, glide, final, tone = fields
        try:
            known = (vowel in _VOWELS and initial in _INITIALS and glide in _GLIDES and final in _FINALS
                     and tone in _TONES)
        except TypeError:  # an unhashable field
            known = False
        if not known:
            raise ValueError(_violations((vowel, initial, glide, final, tone)))
        return tuple.__new__(cls, (vowel, initial, glide, final, tone))

    @property
    def rhyme(self) -> tuple[str | None, str, str | None]:
        return (self.glide, self.vowel, self.final)


#: each Syllable field's rule-table set, in field order; None stands for an absent component
_FIELD_SETS = {"vowel": VOWEL_IPAS, "initial": INITIAL_IPAS | {None}, "glide": GLIDE_IPAS | {None},
               "final": FINAL_IPAS | {None}, "tone": frozenset(Tone)}
_VOWELS, _INITIALS, _GLIDES, _FINALS, _TONES = _FIELD_SETS.values()


def _violations(fields) -> str:
    """Syllable._make's error: each field outside its rule-table set, in field order."""
    problems = []
    for (name, values), value in zip(_FIELD_SETS.items(), fields):
        try:
            known = value in values
        except TypeError:  # unhashable
            known = False
        if not known:
            problems.append("missing nucleus: a syllable requires a vowel" if name == "vowel" and not value
                            else f"unknown {name}: {value!r}")
    return "; ".join(problems)


def validate(syllable: Syllable) -> list[str]:
    """Violations of the stop-final tone restriction; empty = ok.

    Syllable itself holds each component to the rule table.  The restriction
    holds for the bundled lexicon but is not part of the core rule listing.
    """
    if syllable.final in STOP_FINALS and syllable.tone not in STOP_TONES:
        return ["stop-final tone: stop finals require MidRaising or MidGlottalizedRaising"]
    return []


# ---------------------------------------------------------------------------
# Closed rhyme table
#
# Every (glide, vowel, final) combination with an attested written form in the
# standard orthography.  The lexicon generator and the vocabulary builder both
# consume this table.  Finals are listed per nucleus; "-" is the open rhyme.
# ---------------------------------------------------------------------------

_PLAIN_RHYMES = {
    "a": "- i̯ u̯ m n ŋ ɲ p t k c",
    "ă": "i̯ u̯ m n ŋ p t k",
    "ə̆": "i̯ u̯ m n ŋ p t k",
    "ɛ": "- u̯ m n ŋ p t k",
    "e": "- u̯ m n ŋ ɲ p t k c",
    "i": "- u̯ m n ɲ p t c",
    "ɔ": "- i̯ m n ŋ p t k",
    "ɔː": "ŋ k",
    "o": "- i̯ m n ŋ p t k",
    "ə": "- i̯ m n p t",
    "u": "- i̯ m n ŋ p t k",
    "ɯ": "- i̯ u̯ ŋ t k",
    "ie": "- u̯ m n ŋ p t k",
    "uo": "- i̯ m n ŋ t k",
    "ɯə": "- i̯ u̯ m n ŋ p t k",
}

_GLIDE_RHYMES = {
    "a": "- i̯ m n ŋ ɲ t k c",
    "ă": "i̯ m n ŋ t k",
    "ɛ": "- u̯ n t",
    "ə̆": "i̯ n ŋ t",
    "e": "- n ɲ c",
    "ə": "-",
    "i": "- u̯ ɲ t c",
    "ie": "- n t",
    "o": "k",
}


def _expand(spec: dict[str, str], glide: str | None):
    for vowel, finals in spec.items():
        for f in finals.split():
            yield (glide, vowel, None if f == "-" else f)


#: all structurally valid (glide, vowel, final) triples, in a stable order
RHYMES: tuple[tuple[str | None, str, str | None], ...] = tuple(
    list(_expand(_PLAIN_RHYMES, None)) + list(_expand(_GLIDE_RHYMES, "u̯"))
)

"""Text ↔ phoneme conversion for Vietnamese syllables.

Parsing strips the tone mark, then matches the initial, glide, vowel, and
final in that fixed order by greedy longest-prefix lookup in the rule tables.
Rendering is the inverse: each one-to-many phoneme is resolved to its written
form by a pure context function, then the tone mark is attached and the result
canonically composed.  All functions are pure; the tables are immutable.
"""

from __future__ import annotations

import functools
import unicodedata
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .lexicon import iter_syllables
from .phonology import (
    PhonemeClass,
    Syllable,
    Tone,
    TONE_BY_MARK,
    inventory,
    validate,  # unused here; perfbench's span test patches tokenizer.validate as a lookup site
)


class TokenizeError(ValueError):
    """Base class for word-level conversion failures."""


class MultipleToneMarks(TokenizeError):
    """More than one tone mark in a single word; the word is not Vietnamese."""

    def __init__(self, word: str):
        super().__init__(f"multiple tone marks in {word!r}")
        self.word = word


class ParseFailure(TokenizeError):
    """The word is not a well-formed Vietnamese syllable."""

    def __init__(self, word: str, residue: str, index: int | None = None):
        at = f" (word {index})" if index is not None else ""
        super().__init__(f"cannot parse {word!r}{at}: unmatched {residue!r}")
        self.word = word
        self.residue = residue
        self.index = index


@dataclass(frozen=True)
class NormalizedWord:
    """A word with its tone mark removed, canonically composed."""

    base_letters: str
    tone: Tone


@dataclass(frozen=True)
class ParseResult:
    syllable: Syllable
    graphemes: tuple[str, str, str, str] = ("", "", "", "")  # matched written forms


@dataclass
class ParseStats:
    """Operation counter for the linear-cost bound.

    ``comparisons`` counts every rule entry tested while parsing one word:
    tone-mark lookups, candidate prefix matches, and the final-table lookup.
    """

    comparisons: int = 0
    per_word_max: int = 0


#: documented upper bound on rule comparisons per word (total rule-table size)
MAX_RULE_COMPARISONS = 58


def strip_tone(word: str) -> NormalizedWord:
    """Extract the single tone mark from a word, wherever it sits.

    Letter diacritics (breve, circumflex, horn, stroke) are preserved; the
    output is recomposed to NFC.  Raises MultipleToneMarks on two or more
    marks, which signals a non-Vietnamese word to corpus filtering.
    """
    tone = None
    kept = []
    for ch in unicodedata.normalize("NFD", word):
        if ch in TONE_BY_MARK:
            if tone is not None:
                raise MultipleToneMarks(word)
            tone = TONE_BY_MARK[ch]
        else:
            kept.append(ch)
    return NormalizedWord(unicodedata.normalize("NFC", "".join(kept)), tone or Tone.FLAT)


def _bucket_by_first_letter(rules):
    buckets: dict[str, list] = {}
    for rule in rules:
        buckets.setdefault(rule.written_form[0], []).append(rule)
    return buckets


#: the prefix-matched classes, each bucketed by first letter
_BUCKETS = {cls: _bucket_by_first_letter(inventory(cls))
            for cls in (PhonemeClass.INITIAL, PhonemeClass.GLIDE, PhonemeClass.VOWEL)}
(_GLIDE_U_RULE,) = _BUCKETS[PhonemeClass.GLIDE]["u"]
_FINALS = {r.written_form: r for r in inventory(PhonemeClass.FINAL)}

# rule-table context tag -> predicate on the letters after the written form; parse and render both read it
_CONTEXTS = {
    "followed-by-u": lambda after: after.startswith("u"),
    "before-ê-y-â-ơ": lambda after: after[:1] in ("ê", "y", "â", "ơ"),
    "before-a-ă-e": lambda after: after[:1] in ("a", "ă", "e"),
    # after a vowel the rest is the final's whole written form
    "before-final-y-or-u": lambda after: after in ("y", "u"),
}


def _match_class(word: str, phoneme_class: PhonemeClass, stats: ParseStats | None):
    """First matching rule of one class: (rule, remainder), or (None, word).

    Only the rules that share the word's first letter are scanned.
    """
    for rule in _BUCKETS[phoneme_class].get(word[:1], ()):
        if stats is not None:
            stats.comparisons += 1
        if not word.startswith(rule.written_form):
            continue
        if rule.context and not _CONTEXTS[rule.context](word[len(rule.written_form):]):
            continue
        return rule, word[len(rule.written_form):]
    return None, word


def parse_syllable(word: str, stats: ParseStats | None = None) -> ParseResult:
    """Decompose one word into its Syllable, or raise ParseFailure.

    Read-side rules beyond the table's contexts:
      - an initial written "q" always takes the following "u" as the glide;
      - "gi" with no following vowel letter re-uses its "i" as the nucleus
        ("gì", "gìn").
    The final must consume the entire remainder exactly.  A word that fails
    still counts in stats.
    """
    start = 0 if stats is None else stats.comparisons
    try:
        normalized = strip_tone(word)
        if stats is not None and normalized.tone is not Tone.FLAT:
            stats.comparisons += 1  # the tone-mark table lookup
        rest = normalized.base_letters
        if not rest:
            raise ParseFailure(word, rest)

        init_rule, rest = _match_class(rest, PhonemeClass.INITIAL, stats)
        glide_rule = None
        if init_rule is not None and init_rule.written_form == "q":
            # the q context guarantees a following u; it is always the glide
            glide_rule, rest = _GLIDE_U_RULE, rest[1:]
            if stats is not None:
                stats.comparisons += 1
        elif init_rule is not None and init_rule.written_form == "gi" and rest[:1] not in _BUCKETS[PhonemeClass.VOWEL]:
            rest = "i" + rest  # the written i serves as both initial letter and nucleus
        if glide_rule is None:
            glide_rule, rest = _match_class(rest, PhonemeClass.GLIDE, stats)

        vowel_rule, rest = _match_class(rest, PhonemeClass.VOWEL, stats)
        if vowel_rule is None:
            raise ParseFailure(word, rest)

        final_rule = None
        if rest:
            final_rule = _FINALS.get(rest)  # a final is the whole remainder: one lookup, not a scan
            if stats is not None:
                stats.comparisons += 1
            if final_rule is None:
                raise ParseFailure(word, rest)

        syllable = Syllable(
            vowel=vowel_rule.ipa,
            initial=init_rule.ipa if init_rule else None,
            glide=glide_rule.ipa if glide_rule else None,
            final=final_rule.ipa if final_rule else None,
            tone=normalized.tone,
        )
        return ParseResult(
            syllable=syllable,
            graphemes=(
                init_rule.written_form if init_rule else "",
                glide_rule.written_form if glide_rule else "",
                vowel_rule.written_form,
                final_rule.written_form if final_rule else "",
            ),
        )
    finally:
        if stats is not None:
            stats.per_word_max = max(stats.per_word_max, stats.comparisons - start)


def tokenize(transcript: str) -> list[Syllable]:
    """One Syllable per whitespace-separated word, order preserved.

    Expects pre-cleaned lowercase words (see corpus.clean_words).  The first
    unparseable word aborts with its index on the ParseFailure.  Closed-set
    words are read from closed_syllables(), whose keys are NFC, so a word
    that misses is looked up once more under NFC: the parser reads a word
    through its NFD, which canonically equivalent words share, so that hit
    is the word's parse.  Every other word takes the rule parser as given.
    """
    table = closed_syllables()
    syllables = []
    for index, word in enumerate(transcript.split()):
        syllable = table.get(word) or table.get(unicodedata.normalize("NFC", word))
        if syllable is None:
            try:
                syllable = parse_syllable(word).syllable
            except ParseFailure as exc:
                raise ParseFailure(word, exc.residue, index) from None
        syllables.append(syllable)
    return syllables


# ---------------------------------------------------------------------------
# Rendering: phonemes back to the written form
# ---------------------------------------------------------------------------

def _single_forms(phoneme_class: PhonemeClass) -> dict[str, str]:
    """{ipa: form} for the IPAs written one way only; the context functions below resolve the rest."""
    rules = inventory(phoneme_class)
    ipas = [rule.ipa for rule in rules]
    return {rule.ipa: rule.written_form for rule in rules if ipas.count(rule.ipa) == 1}


_INITIAL_FORMS = _single_forms(PhonemeClass.INITIAL)
_VOWEL_FORMS = _single_forms(PhonemeClass.VOWEL)
_FINAL_FORMS = _single_forms(PhonemeClass.FINAL)

#: vowels that select "k"/"gh"/"ngh" spellings for a directly preceding initial
_FRONT_VOWELS = frozenset({"i", "e", "ɛ", "ie"})

#: initials whose bare /i/ syllable is conventionally y-spelled (lexical
#: choice; the stated i/y rule alone cannot produce both "thi" and "lý")
_Y_SPELLED_INITIALS = frozenset({"k", "l", "m", "h"})

#: nucleus letters that keep the tone mark when a plainer letter follows
_MARK_PREFERRED = frozenset("êôơăâư")


def _final_form(syllable: Syllable) -> str:
    final = syllable.final
    if final is None:
        return ""
    if final == "i̯":
        return "y" if syllable.vowel in ("ă", "ə̆") else "i"
    if final == "u̯":
        return "o" if syllable.vowel in ("a", "ɛ") else "u"
    return _FINAL_FORMS[final]


def _nucleus_form(syllable: Syllable, final_form: str) -> str:
    vowel = syllable.vowel
    if vowel == "ie":
        if syllable.glide:
            return "yê" if final_form else "ya"
        if final_form:
            # zero-initial /ie/ is y-spelled ("yên"), not "iê"
            return "iê" if syllable.initial else "yê"
        return "ia"
    if vowel == "uo":
        return "uô" if final_form else "ua"
    if vowel == "ɯə":
        return "ươ" if final_form else "ưa"
    if vowel == "ă":
        return "a" if _CONTEXTS["before-final-y-or-u"](final_form) else "ă"
    if vowel == "i":
        if syllable.glide:
            return "y"
        if not final_form and (syllable.initial is None or syllable.initial in _Y_SPELLED_INITIALS):
            return "y"
        return "i"
    return _VOWEL_FORMS[vowel]


def _initial_form(syllable: Syllable, nucleus_form: str) -> str:
    initial = syllable.initial
    if initial is None:
        return ""
    if initial == "k":
        if syllable.glide:
            return "q"
        return "k" if syllable.vowel in _FRONT_VOWELS else "c"
    if initial in ("ɤ", "ŋ"):
        base = "g" if initial == "ɤ" else "ng"
        if syllable.glide is None and syllable.vowel in _FRONT_VOWELS and nucleus_form[:1] != "y":
            return base + "h"
        return base
    return _INITIAL_FORMS[initial]


def _glide_form(syllable: Syllable, nucleus_form: str) -> str:
    if syllable.glide is None:
        return ""
    if syllable.initial == "k":
        return "u"  # after written q the glide is always u ("quà", "que")
    return "o" if _CONTEXTS["before-a-ă-e"](nucleus_form) else "u"


def _attach_tone(nucleus_form: str, tone: Tone) -> str:
    if not tone.mark:
        return nucleus_form
    position = 0
    for i, letter in enumerate(nucleus_form):
        if letter in _MARK_PREFERRED:
            position = i
    return nucleus_form[: position + 1] + tone.mark + nucleus_form[position + 1:]


def render_syllable(syllable: Syllable) -> str:
    """Written form of a syllable under the one-to-many disambiguation rules.

    The tone mark lands on the last strong nucleus letter (ê ô ơ ă â ư) if one
    exists, else on the first nucleus letter; glides never carry it.  Output
    is canonically composed.  Every Syllable has a written form; a plain
    5-tuple is checked first, as Syllable._make checks it.
    """
    return _written_form(Syllable._make(syllable))


def _written_form(syllable: Syllable) -> str:
    """render_syllable of a Syllable."""
    final = _final_form(syllable)
    nucleus = _nucleus_form(syllable, final)
    initial = _initial_form(syllable, nucleus)
    glide = _glide_form(syllable, nucleus)
    if initial == "gi" and not glide and nucleus.startswith("i"):
        initial = "g"  # the shared i: "gì", "gìn"
    word = initial + glide + _attach_tone(nucleus, syllable.tone) + final
    return unicodedata.normalize("NFC", word)


@functools.cache
def closed_syllables() -> Mapping[str, Syllable]:
    """Read-only written form -> Syllable for the closed set (iter_syllables, lexicon.txt).

    Built on first use, not at import: 15,574 entries in under 0.1 s.  Every
    key is NFC and parse_syllable(key).syllable is its value.  The build
    renders each Syllable with _written_form, so it calls no public function
    that a caller may be counting.
    """
    return MappingProxyType({_written_form(s): s for s in iter_syllables()})


@functools.cache
def _written_forms() -> Mapping[Syllable, str]:
    """Read-only Syllable -> written form: the inverse of closed_syllables(), detokenize's lookup."""
    return MappingProxyType({s: word for word, s in closed_syllables().items()})


def detokenize(syllables) -> str:
    """Space-joined written forms, the closed set's read from _written_forms(), the rest rendered by rule;
    the inverse of tokenize on valid input.  A plain 5-tuple is checked as Syllable._make checks it."""
    forms = _written_forms()
    return " ".join([forms.get(s) or render_syllable(s) for s in syllables])


# ---------------------------------------------------------------------------
# Wire format: "initial|glide|vowel|final|tone", one syllable per token
# ---------------------------------------------------------------------------

ABSENT = "∅"


def rhyme_token(glide: str | None, vowel: str, final: str | None) -> str:
    return f"{glide or ABSENT}|{vowel}|{final or ABSENT}"


def syllable_from_tokens(initial: str, glide: str, vowel: str, final: str, tone: str) -> Syllable:
    """The Syllable of five component tokens: ∅ is an absent component, the tone a label."""
    return Syllable(
        vowel=vowel,
        initial=None if initial == ABSENT else initial,
        glide=None if glide == ABSENT else glide,
        final=None if final == ABSENT else final,
        tone=Tone.from_label(tone),
    )


def syllable_tokens(syllable: Syllable) -> tuple[str, str, str]:
    """The (initial, rhyme, tone) tokens of a syllable: ∅ for an absent component, the tone's label."""
    return syllable.initial or ABSENT, rhyme_token(*syllable.rhyme), syllable.tone.label


def format_syllable(syllable: Syllable) -> str:
    """The five component tokens joined by "|"."""
    return "|".join(syllable_tokens(Syllable._make(syllable)))


def format_phonemes(syllables) -> str:
    """One utterance as a line of space-separated syllable tokens, the closed set's read from _wire_tokens()."""
    tokens = _wire_tokens()
    return " ".join(tokens.get(s) or format_syllable(s) for s in syllables)


@functools.cache
def _wire_tokens() -> Mapping[Syllable, str]:
    """Read-only closed-set Syllable -> wire token, format_phonemes' lookup."""
    return MappingProxyType({s: "|".join(syllable_tokens(s)) for s in closed_syllables().values()})


@functools.cache
def _syllables_by_token() -> Mapping[str, Syllable]:
    """Read-only wire token -> Syllable: the inverse of _wire_tokens(), parse_phonemes' lookup."""
    return MappingProxyType({token: s for s, token in _wire_tokens().items()})


def parse_syllable_token(token: str) -> Syllable:
    """The Syllable of one wire token (see format_syllable); one that does not split into five raises ValueError."""
    parts = token.split("|")
    if len(parts) != 5:
        raise ValueError(f"malformed syllable token: {token!r}")
    return syllable_from_tokens(*parts)


def parse_phonemes(line: str) -> list[Syllable]:
    """The Syllables of a line of wire tokens, the closed set's read from _syllables_by_token()."""
    table = _syllables_by_token()
    return [table.get(token) or parse_syllable_token(token) for token in line.split()]

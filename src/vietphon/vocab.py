"""Token spaces for the three syllabic components and id-vector coding.

Each syllable encodes as (initial id, rhyme id, tone id).  Ids are assigned
lexicographically by token string, so two builds from the same lexicon are
bit-identical; BOS/EOS/PAD occupy the first three ids of every space because
the downstream decoder is autoregressive.  Closed-set syllables map to and
from their ids through one dict each way per vocabulary; any other syllable
or triple takes the rules.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .phonology import INITIAL_IPAS, RHYMES, Syllable, Tone
from .tokenizer import ABSENT, closed_syllables, parse_syllable, rhyme_token, syllable_from_tokens, syllable_tokens

BOS = "<bos>"
EOS = "<eos>"
PAD = "<pad>"
CONTROL_TOKENS = (BOS, EOS, PAD)

#: nominal space sizes of the reference tokenizer design; the computed sizes
#: are reported next to them (note the stated total differs from the
#: component sum 22 + 145 + 6 = 173)
DESIGN_COUNTS = {"initials": 22, "rhymes": 145, "tones": 6, "total": 163}


@dataclass(frozen=True)
class Vocabulary:
    initial_tokens: tuple[str, ...]
    rhyme_tokens: tuple[str, ...]
    tone_tokens: tuple[str, ...]

    def encode(self, syllable: Syllable) -> tuple[int, int, int]:
        """The (initial id, rhyme id, tone id) of a syllable, as ints: a closed-set syllable is looked up first,
        in _ids_by_syllable; otherwise the first token missing from its space raises KeyError."""
        try:
            return self._ids_by_syllable[syllable]
        except KeyError:  # outside the closed set
            pass
        tokens = syllable_tokens(Syllable._make(syllable))
        for (space, _), token_ids, token in zip(self.spaces, self._token_ids, tokens):
            if token not in token_ids:
                raise KeyError(f"{space} token {token!r} not in vocabulary")
        return tuple(token_ids[token] for token_ids, token in zip(self._token_ids, tokens))

    def decode(self, ids: tuple[int, int, int]) -> Syllable:
        """The syllable of an (initial id, rhyme id, tone id) triple of integers.

        Each id goes through operator.index first, so an int or a numpy
        integer is taken and a float raises TypeError.  A hashable triple of a
        closed-set syllable's ids returns that syllable itself, the identical
        object.  Otherwise the first out-of-range id, in initial, rhyme, tone
        order, raises IndexError; then a control-token id (BOS/EOS/PAD) raises
        KeyError, and any other triple splits its rhyme token by rule.
        """
        init_id, rhyme_id, tone_id = ids
        init_id, rhyme_id, tone_id = operator.index(init_id), operator.index(rhyme_id), operator.index(tone_id)
        try:
            return self._syllables_by_ids[ids]
        except (KeyError, TypeError):  # not a closed-set triple; TypeError: unhashable ids
            pass
        spaces = tuple(zip(self.spaces, (init_id, rhyme_id, tone_id)))
        for (space, tokens), token_id in spaces:
            if not 0 <= token_id < len(tokens):
                raise IndexError(f"{space} id {token_id} out of range [0, {len(tokens)})")
        for (space, tokens), token_id in spaces:
            if tokens[token_id] in CONTROL_TOKENS:
                raise KeyError(f"{space} token {tokens[token_id]!r} not in vocabulary")
        glide, vowel, final = self.rhyme_tokens[rhyme_id].split("|")
        return syllable_from_tokens(self.initial_tokens[init_id], glide, vowel, final, self.tone_tokens[tone_id])

    @functools.cached_property
    def _token_ids(self) -> tuple[dict[str, int], ...]:
        """One token -> id dict per space, in spaces order."""
        return tuple({token: i for i, token in enumerate(tokens)} for _, tokens in self.spaces)

    @functools.cached_property
    def _ids_by_syllable(self) -> dict[Syllable, tuple[int, int, int]]:
        """Each closed-set syllable whose three tokens (see syllable_tokens) are all in the spaces -> its
        (i, r, t) ids.  Every closed-set rhyme is in RHYMES, so each rhyme id is looked up once."""
        initial_ids, rhyme_ids, tone_ids = self._token_ids
        rhymes = {rhyme: rhyme_ids.get(rhyme_token(*rhyme)) for rhyme in RHYMES}
        table = {}
        for s in closed_syllables().values():
            vowel, initial, glide, final, tone = s
            ids = initial_ids.get(initial or ABSENT), rhymes[glide, vowel, final], tone_ids.get(tone.label)
            if None not in ids:
                table[s] = ids
        return table

    @functools.cached_property
    def _syllables_by_ids(self) -> dict[tuple[int, int, int], Syllable]:
        """The inverse of _ids_by_syllable, decode's lookup."""
        return {ids: s for s, ids in self._ids_by_syllable.items()}

    @property
    def spaces(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The (name, tokens) pair of each space, in initial, rhyme, tone order."""
        return tuple(zip(("initial", "rhyme", "tone"), (self.initial_tokens, self.rhyme_tokens, self.tone_tokens)))


def build_vocab(lexicon: list[str] | None = None) -> Vocabulary:
    """Token spaces from the rule table plus rhymes observed in a lexicon.

    The initials are the table's initials and ∅; a parsed word can hold no
    other.  With the bundled lexicon the observed rhymes are exactly the
    closed rhyme table; the union keeps the contract explicit.  A closed-set
    word is a table hit whose rhyme is in RHYMES already; every other word
    takes the rule parser, which raises ParseFailure on an unparseable word.
    """
    rhymes = {rhyme_token(g, v, f) for g, v, f in RHYMES}
    closed = closed_syllables()
    for word in lexicon or ():
        if word not in closed:
            rhymes.add(rhyme_token(*parse_syllable(word).syllable.rhyme))
    return Vocabulary(
        initial_tokens=CONTROL_TOKENS + tuple(sorted(INITIAL_IPAS | {ABSENT})),
        rhyme_tokens=CONTROL_TOKENS + tuple(sorted(rhymes)),
        tone_tokens=CONTROL_TOKENS + tuple(sorted(t.label for t in Tone)),
    )


def vocab_report(vocab: Vocabulary) -> dict:
    """Computed space sizes next to the nominal design counts.

    The ∅ initial is an extension (zero-initial syllables need it); content
    totals are reported with and without it so the comparison against the
    design counts is explicit.
    """
    counts = {f"{name}s": len(tokens) - len(CONTROL_TOKENS) for name, tokens in vocab.spaces}
    computed_core_initials = counts["initials"] - 1  # minus the ∅ extension
    computed_total = computed_core_initials + counts["rhymes"] + counts["tones"]
    design_sum = DESIGN_COUNTS["initials"] + DESIGN_COUNTS["rhymes"] + DESIGN_COUNTS["tones"]
    return {
        "computed": {
            "initials": computed_core_initials,
            "initials_with_empty": counts["initials"],
            "rhymes": counts["rhymes"],
            "tones": counts["tones"],
            "content_total": computed_total,
            "content_total_with_empty": computed_total + 1,
        },
        "design": dict(DESIGN_COUNTS),
        "notes": [
            "the ∅ initial is an extension beyond the 22 nominal initials",
            f"nominal components sum to {design_sum}, the stated total is {DESIGN_COUNTS['total']}",
            f"computed rhyme count {counts['rhymes']} vs nominal {DESIGN_COUNTS['rhymes']}",
        ],
    }


def write_vocab(vocab: Vocabulary, fh) -> None:
    """Plain-text table: space, id, token, one line each, to an open text file."""
    for space, tokens in vocab.spaces:
        for token_id, token in enumerate(tokens):
            fh.write(f"{space}\t{token_id}\t{token}\n")

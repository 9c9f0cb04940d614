"""Token spaces for the three syllabic components and id-vector coding.

Each syllable encodes as (initial id, rhyme id, tone id).  Ids are assigned
lexicographically by token string, so two builds from the same lexicon are
bit-identical; BOS/EOS/PAD occupy the first three ids of every space because
the downstream decoder is autoregressive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .phonology import INITIAL_IPAS, RHYMES, Syllable, Tone
from .tokenizer import ABSENT, _syllables_by_token, _token_syllable, closed_syllables, parse_syllable, rhyme_token

BOS = "<bos>"
EOS = "<eos>"
PAD = "<pad>"
CONTROL_TOKENS = (BOS, EOS, PAD)

#: the three token spaces, in the order of a Vocabulary's fields and of an id triple
SPACE_NAMES = ("initial", "rhyme", "tone")

#: nominal space sizes of the reference tokenizer design; the computed sizes
#: are reported next to them (note the stated total differs from the
#: component sum 22 + 145 + 6 = 173)
DESIGN_COUNTS = {"initials": 22, "rhymes": 145, "tones": 6, "total": 163}


class UnknownComponent(KeyError):
    """A syllable component has no token in the vocabulary."""

    def __init__(self, space: str, token: str):
        super().__init__(f"{space} token {token!r} not in vocabulary")
        self.space = space
        self.token = token


class IdOutOfRange(IndexError):
    def __init__(self, space: str, token_id: int, size: int):
        super().__init__(f"{space} id {token_id} out of range [0, {size})")
        self.space = space
        self.token_id = token_id


@dataclass(frozen=True)
class Vocabulary:
    initial_tokens: tuple[str, ...]
    rhyme_tokens: tuple[str, ...]
    tone_tokens: tuple[str, ...]

    def __post_init__(self):
        for name, tokens in self.spaces:
            object.__setattr__(self, f"_{name}_ids", {t: i for i, t in enumerate(tokens)})

    def _lookup(self, space: str, ids: dict, token: str) -> int:
        try:
            return ids[token]
        except KeyError:
            raise UnknownComponent(space, token) from None

    def encode(self, syllable: Syllable) -> tuple[int, int, int]:
        return (
            self._lookup("initial", self._initial_ids, syllable.initial or ABSENT),
            self._lookup("rhyme", self._rhyme_ids, rhyme_token(*syllable.rhyme)),
            self._lookup("tone", self._tone_ids, syllable.tone.label),
        )

    def decode(self, ids: tuple[int, int, int]) -> Syllable:
        """The syllable of an (initial id, rhyme id, tone id) triple.

        All three ids are range-checked first: the first out-of-range id, in
        initial, rhyme, tone order, raises IdOutOfRange for its space.  Only
        then is a control-token id (BOS/EOS/PAD) rejected with
        UnknownComponent.  A closed-set triple is then looked up by its wire
        token, and any other triple splits its rhyme token by the rules.  A hit
        counts only with no "|" in the initial or tone token, where the joined
        token splits back into these three tokens alone.
        """
        init_id, rhyme_id, tone_id = ids
        spaces = (
            ("initial", init_id, self.initial_tokens),
            ("rhyme", rhyme_id, self.rhyme_tokens),
            ("tone", tone_id, self.tone_tokens),
        )
        for space, token_id, tokens in spaces:
            if not 0 <= token_id < len(tokens):
                raise IdOutOfRange(space, token_id, len(tokens))
        for space, token_id, tokens in spaces:
            if tokens[token_id] in CONTROL_TOKENS:
                raise UnknownComponent(space, tokens[token_id])
        init, rhyme, tone = self.initial_tokens[init_id], self.rhyme_tokens[rhyme_id], self.tone_tokens[tone_id]
        syllable = _syllables_by_token().get(f"{init}|{rhyme}|{tone}")
        if syllable is not None and "|" not in init and "|" not in tone:
            return syllable
        glide, vowel, final = rhyme.split("|")
        return _token_syllable(init, glide, vowel, final, tone)

    @property
    def spaces(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The (name, tokens) pair of each space, in initial, rhyme, tone order."""
        return tuple(zip(SPACE_NAMES, (self.initial_tokens, self.rhyme_tokens, self.tone_tokens)))

    @property
    def content_counts(self) -> dict[str, int]:
        return {f"{name}s": len(tokens) - len(CONTROL_TOKENS) for name, tokens in self.spaces}


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
    counts = vocab.content_counts
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


def load_vocab(path) -> Vocabulary:
    spaces: dict[str, list[str]] = {name: [] for name in SPACE_NAMES}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            space, token_id, token = line.rstrip("\n").split("\t")
            if int(token_id) != len(spaces[space]):
                raise ValueError(f"non-contiguous id {token_id} for {space}")
            spaces[space].append(token)
    return Vocabulary(*(tuple(spaces[name]) for name in SPACE_NAMES))

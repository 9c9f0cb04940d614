"""Seeded input generator for the four benchmark workloads.

Reads only the bundled word list (``src/vietphon/data/lexicon.txt``) and the
fixed string lists below.  It never imports ``vietphon``: tone edits are plain
Unicode edits on the decomposed (NFD) form, so a change to the tokenizer
cannot change the inputs.  The same seed always gives byte-identical shards.

Every shard of a workload gets the same length profile (one draw from each
equal-probability band of the workload's length distribution), and every seed
shares one word-frequency ranking, so the cost of an op varies little from
shard to shard or from seed to seed.
"""

from __future__ import annotations

import bisect
import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

LEXICON = Path("src") / "vietphon" / "data" / "lexicon.txt"

#: combining tone marks of the five marked tones (grave, acute, hook above,
#: tilde, dot below); the flat tone has none
TONE_MARKS = ("̀", "́", "̉", "̃", "̣")
#: the two tones a stop-final syllable may carry (acute, dot below)
STOP_TONE_MARKS = ("́", "̣")
STOP_FINAL_SUFFIXES = ("p", "t", "c", "ch")

#: English words; each holds f, j, w or z, letters outside the Vietnamese alphabet
ENGLISH_WORDS = (
    "wifi", "jazz", "zoom", "facebook", "free", "job", "website", "weekend",
    "software", "fan", "show", "world", "from", "with", "just", "pizza", "fast",
    "jump", "zero", "file", "web", "fix", "joke", "size", "quiz", "swift", "wolf",
    "jeans", "frozen", "wow",
)
#: mixed letter-digit strings
ALNUM_WORDS = ("mp3", "4g", "5g", "covid19", "h5n1", "a4", "usb2", "g7", "f1", "3d", "x2", "b52")
SENTENCE_ENDS = (".", "?", "!", "…")
WORD_PUNCT = (",", ";", ":")

#: share of filter utterances that get one foreign token / one lax-only form
FOREIGN_SHARE = 0.09
LAX_SHARE = 0.02
#: share of items written in decomposed form (filter lines, score hypotheses)
NFD_SHARE = 0.10
#: per-word edit probability for score hypotheses, and the edit mix
EDIT_RATE = 0.15
EDIT_KINDS = (("sub", 0.40), ("tone", 0.25), ("del", 0.20), ("ins", 0.15))

SHAPES = {
    # workload: (shards, items per shard)
    "filter": (12, 400),
    "score": (32, 24),
    "tokenize": (16, 150),
}
TOKENIZE_WORDS = 20
#: toy configs 0..49, the first half of the acceptance tests' criterion-6
#: suite; a fixed set, so that a whole pass costs the same for every seed
GRADCHECK_CONFIGS = 50


@dataclass
class Shard:
    """One op's input: the file text (None for gradcheck) and per-item truth."""

    name: str
    text: str | None
    items: int
    truth: list = field(default_factory=list)


@dataclass
class Inputs:
    workload: str
    shards: list[Shard]
    properties: dict


def load_words(root: Path) -> list[str]:
    text = (Path(root) / LEXICON).read_text("utf-8")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def tone_mark(word: str) -> str | None:
    """The word's tone mark, or None for the flat tone."""
    marks = [ch for ch in _nfd(word) if ch in TONE_MARKS]
    return marks[0] if marks else None


def has_stop_final(word: str) -> bool:
    return _nfd(word).endswith(STOP_FINAL_SUFFIXES)


def swap_tone(word: str, mark: str) -> str:
    """Replace the word's tone mark in place; "" removes it."""
    return _nfc("".join(mark if ch in TONE_MARKS else ch for ch in _nfd(word)))


#: seed of the word-frequency ranking; fixed, so that every workload seed
#: draws from one Zipf distribution with the same frequent words
RANK_SEED = 20260210


class Sampler:
    """Seeded word and length draws over the lexicon."""

    def __init__(self, words: list[str], seed: int):
        self.rng = random.Random(seed)
        self.words = words
        self.lexicon = frozenset(words)
        ranked = list(words)
        random.Random(RANK_SEED).shuffle(ranked)
        self.ranked = ranked  # Zipf rank order
        cum, total = [], 0.0
        for rank in range(1, len(ranked) + 1):
            total += 1.0 / rank
            cum.append(total)
        self.zipf_cum = cum

    def zipf_word(self) -> str:
        return self.rng.choices(self.ranked, cum_weights=self.zipf_cum)[0]

    def uniform_word(self) -> str:
        return self.rng.choice(self.words)

    def stratified(self, shards: int, per_shard: int, quantile) -> list[list[int]]:
        """Per shard, per_shard draws: one from each of per_shard equal-probability
        bands of the distribution, so every shard has the same length profile."""
        n = shards * per_shard
        values = [quantile((i + self.rng.random()) / n) for i in range(n)]
        out = [[] for _ in range(shards)]
        for band in range(per_shard):
            block = values[band * shards:(band + 1) * shards]
            self.rng.shuffle(block)
            for shard, value in zip(out, block):
                shard.append(value)
        for shard in out:
            self.rng.shuffle(shard)
        return out

    def flags(self, n: int, share: float) -> list[bool]:
        """Exactly round(share * n) True values, in seeded positions."""
        k = round(share * n)
        out = [True] * k + [False] * (n - k)
        self.rng.shuffle(out)
        return out


def _uniform_quantile(lo: int, hi: int):
    return lambda u: lo + min(int(u * (hi - lo + 1)), hi - lo)


def _zipf_length_quantile(lo: int, hi: int):
    """Lengths lo..hi with P(L) proportional to 1 / (L - lo + 1): a long tail."""
    cum, total = [], 0.0
    for k in range(1, hi - lo + 2):
        total += 1.0 / k
        cum.append(total)
    return lambda u: lo + bisect.bisect_left(cum, u * total)


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------

def _foreign_token(s: Sampler) -> str:
    kind = s.rng.randrange(4)
    if kind == 0:
        return s.rng.choice(ENGLISH_WORDS)
    if kind == 1:
        return str(s.rng.randrange(10 ** s.rng.randint(1, 4)))
    if kind == 2:
        return s.rng.choice(ALNUM_WORDS)
    while True:  # a second tone mark next to the first
        word = s.zipf_word()
        mark = tone_mark(word)
        if mark is not None:
            other = s.rng.choice([m for m in TONE_MARKS if m != mark])
            return _nfc(_nfd(word).replace(mark, mark + other))


def _lax_form(s: Sampler) -> str:
    """A stop-final word with its tone mark removed: round-trips, outside the lexicon."""
    while True:
        word = s.zipf_word()
        if has_stop_final(word) and tone_mark(word) in STOP_TONE_MARKS:
            form = swap_tone(word, "")
            if form not in s.lexicon:
                return form


def _surface(s: Sampler, words: list[str]) -> str:
    """Case, punctuation and hyphen noise over clean words."""
    out = []
    i = 0
    while i < len(words):
        word = words[i]
        if s.rng.random() < 0.02:
            word = word.upper()
        elif i == 0 and s.rng.random() < 0.5:
            word = word[:1].upper() + word[1:]
        if i + 1 < len(words) and s.rng.random() < 0.04:
            word = f"{word}-{words[i + 1]}"
            i += 1
        if s.rng.random() < 0.02:
            word = f"“{word}”"
        elif s.rng.random() < 0.08:
            word += s.rng.choice(WORD_PUNCT)
        out.append(word)
        i += 1
    text = " ".join(out)
    if s.rng.random() < 0.7:
        text += s.rng.choice(SENTENCE_ENDS)
    return text


def _filter(s: Sampler, shards: int, per_shard: int):
    n = shards * per_shard
    kinds = ["foreign"] * round(FOREIGN_SHARE * n) + ["lax"] * round(LAX_SHARE * n)
    kinds += ["clean"] * (n - len(kinds))
    s.rng.shuffle(kinds)
    nfd = s.flags(n, NFD_SHARE)
    splits = ["train"] * 8 + ["dev", "test"]
    out, drawn = [], []
    for k, lengths in enumerate(s.stratified(shards, per_shard, _uniform_quantile(5, 40))):
        lines, truth, shard_words = [], [], []
        for length in lengths:
            index = k * per_shard + len(lines)
            words = [s.zipf_word() for _ in range(length)]
            shard_words.extend(words)
            kind = kinds[index]
            if kind != "clean":
                words.insert(s.rng.randrange(length + 1),
                             _foreign_token(s) if kind == "foreign" else _lax_form(s))
            text = _surface(s, words)
            if nfd[index]:
                text = _nfd(text)
            uid = f"s{k:02d}u{len(lines):04d}"
            record = {"id": uid, "transcript": text, "split": s.rng.choice(splits),
                      "audio": f"wav/{uid}.wav"}
            lines.append(json.dumps(record, ensure_ascii=False))
            truth.append((uid, kind))
        out.append(Shard(f"filter{k:02d}.jsonl", "\n".join(lines) + "\n", per_shard, truth))
        drawn.append(shard_words)
    props = {
        "foreign_share": kinds.count("foreign") / n,
        "lax_share": kinds.count("lax") / n,
        "nfd_share": sum(nfd) / n,
    }
    return out, drawn, props


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _edit_kind(s: Sampler) -> str:
    u = s.rng.random()
    for kind, p in EDIT_KINDS:
        if u < p:
            return kind
        u -= p
    return EDIT_KINDS[-1][0]


def _tone_swap(s: Sampler, word: str) -> str | None:
    """Another lexicon word differing only in a tone the syllable allows."""
    mark = tone_mark(word)
    if mark is None:
        return None  # placing a new mark needs the spelling rules; not an input edit
    choices = STOP_TONE_MARKS if has_stop_final(word) else TONE_MARKS + ("",)
    swapped = swap_tone(word, s.rng.choice([m for m in choices if m != mark]))
    return swapped if swapped in s.lexicon else None


def _hypothesis(s: Sampler, ref: list[str]) -> list[str]:
    hyp = []
    for word in ref:
        if s.rng.random() >= EDIT_RATE:
            hyp.append(word)
            continue
        kind = _edit_kind(s)
        swapped = _tone_swap(s, word) if kind == "tone" else None
        if swapped is not None:
            hyp.append(swapped)
        elif kind in ("sub", "tone"):  # a tone swap the syllable does not allow becomes a substitution
            hyp.append(s.zipf_word())
        elif kind == "ins":
            hyp.extend((word, s.zipf_word()))
        # "del" appends nothing
    return hyp


def _score(s: Sampler, shards: int, per_shard: int):
    n = shards * per_shard
    nfd = s.flags(n, NFD_SHARE)
    out, drawn = [], []
    for k, lengths in enumerate(s.stratified(shards, per_shard, _zipf_length_quantile(3, 60))):
        lines, truth, shard_words = [], [], []
        for length in lengths:
            ref = [s.zipf_word() for _ in range(length)]
            shard_words.extend(ref)
            hyp = " ".join(_hypothesis(s, ref))
            if nfd[k * per_shard + len(lines)]:
                hyp = _nfd(hyp)
            pair = {"ref": " ".join(ref), "hyp": hyp}
            lines.append(json.dumps(pair, ensure_ascii=False))
            truth.append(pair)
        out.append(Shard(f"score{k:02d}.jsonl", "\n".join(lines) + "\n", per_shard, truth))
        drawn.append(shard_words)
    return out, drawn, {"foreign_share": 0.0, "lax_share": 0.0, "nfd_share": sum(nfd) / n}


# ---------------------------------------------------------------------------
# tokenize, gradcheck
# ---------------------------------------------------------------------------

def _tokenize(s: Sampler, shards: int, per_shard: int):
    out, drawn = [], []
    for k in range(shards):
        lines = [" ".join(s.uniform_word() for _ in range(TOKENIZE_WORDS)) for _ in range(per_shard)]
        out.append(Shard(f"tokenize{k:02d}.txt", "\n".join(lines) + "\n", per_shard, lines))
        drawn.append([w for line in lines for w in line.split()])
    return out, drawn, {"foreign_share": 0.0, "lax_share": 0.0, "nfd_share": 0.0}


def _gradcheck(rng: random.Random) -> list[Shard]:
    order = list(range(GRADCHECK_CONFIGS))
    rng.shuffle(order)
    return [Shard(f"config{c:02d}", None, 1, [c]) for c in order]


def _repeated_share(drawn: list[list[str]]) -> float:
    """Share of word tokens in a shard that repeat an earlier token of that shard."""
    total = sum(len(words) for words in drawn)
    distinct = sum(len(set(words)) for words in drawn)
    return 1.0 - distinct / total if total else 0.0


def generate(workload: str, seed: int, root: Path = Path(".")) -> Inputs:
    """The shards of one workload for one seed."""
    if workload == "gradcheck":
        shards = _gradcheck(random.Random(seed))
        props = {"items": len(shards), "mean_words": 0.0, "repeated_word_share": 0.0,
                 "foreign_share": 0.0, "lax_share": 0.0, "nfd_share": 0.0}
        return Inputs(workload, shards, props)
    build = {"filter": _filter, "score": _score, "tokenize": _tokenize}[workload]
    sampler = Sampler(load_words(root), seed)
    shards, drawn, props = build(sampler, *SHAPES[workload])
    items = sum(shard.items for shard in shards)
    props = {
        "items": items,
        "mean_words": sum(len(words) for words in drawn) / items,
        "repeated_word_share": _repeated_share(drawn),
        **props,
    }
    return Inputs(workload, shards, props)

"""Transcript manifest ingestion, non-Vietnamese detection, and filtering.

Manifests are JSONL with string fields {id, transcript, split}, split
optional; unknown fields (audio paths etc.) pass through untouched, but
non_vietnamese_words, the filter's own output, is recomputed on every run.  A
word counts as Vietnamese when it parses as a syllable AND renders back to
itself — the round-trip guard rejects pseudo-parses and spelling variants
outside the canonical orthography.
A closed-set word (tokenizer.closed_syllables) is a table hit, accepted
without a parse; every other word takes the rule path: parse, render, compare.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .tokenizer import TokenizeError, closed_syllables, parse_syllable, render_syllable

_STRIP_CHARS = "".join(
    (
        "!\"#$%&'()*+,./:;<=>?@[\\]^_`{|}~",
        "‘’“”…«»–—¡¿",
    )
)

#: published non-Vietnamese transcript percentages for two public Vietnamese
#: ASR corpora, for informative comparison only (this toolkit's parse-based
#: verdict is not guaranteed to match the original counting rule)
REFERENCE_CONTAMINATION = {
    "vivos": {"train": 0.87, "test": 0.79, "overall": 0.70},
    "lsvsc": {"train": 9.19, "dev": 9.98, "test": 8.89, "overall": 9.24},
}


class MalformedManifestLine(ValueError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"manifest line {line_number}: {reason}")
        self.line_number = line_number


def clean_words(raw: str) -> list[str]:
    """Cleaned lowercase words from one raw token or phrase.

    Case-folds, splits hyphenated compounds, strips surrounding punctuation,
    and recomposes to NFC.  Empty results are dropped.
    """
    words = []
    for piece in raw.lower().replace("-", " ").split():
        piece = unicodedata.normalize("NFC", piece.strip(_STRIP_CHARS))
        if piece:
            words.append(piece)
    return words


def is_vietnamese_word(word: str) -> bool:
    """True iff the word parses and renders back to itself (round-trip guard).

    A closed-set word is a table hit and True at once, since every key of
    closed_syllables() round-trips; every other word takes the rule path.
    """
    if word in closed_syllables():
        return True
    try:
        result = parse_syllable(word)
    except TokenizeError:
        return False
    return render_syllable(result.syllable) == unicodedata.normalize("NFC", word)


def offending_words(transcript: str) -> list[str]:
    """The cleaned words of a transcript that are not Vietnamese syllables."""
    return [w for w in clean_words(transcript) if not is_vietnamese_word(w)]


@dataclass
class TranscriptRecord:
    utterance_id: str
    transcript: str
    split: str | None = None  # absent from the manifest line, unlike an empty split
    offending: list[str] = field(default_factory=list)  # set by filter_manifest; non-empty = discarded
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"id": self.utterance_id, "transcript": self.transcript}
        if self.split is not None:
            payload["split"] = self.split
        payload.update(self.extras)
        if self.offending:
            payload["non_vietnamese_words"] = self.offending
        return json.dumps(payload, ensure_ascii=False)


def parse_manifest_line(line: str, line_number: int) -> TranscriptRecord:
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or too deep nesting
        raise MalformedManifestLine(line_number, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(payload, dict):
        raise MalformedManifestLine(line_number, "expected a JSON object")
    for key in ("id", "transcript"):
        if key not in payload:
            raise MalformedManifestLine(line_number, f"missing field {key!r}")
    for key in ("id", "transcript", "split"):
        if not isinstance(payload.get(key, ""), str):
            raise MalformedManifestLine(line_number, f"field {key!r} must be a string")
    payload.pop("non_vietnamese_words", None)
    return TranscriptRecord(
        utterance_id=payload.pop("id"),
        transcript=payload.pop("transcript"),
        split=payload.pop("split", None),
        extras=payload,
    )


def load_manifest(lines) -> list[TranscriptRecord]:
    records = []
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            records.append(parse_manifest_line(line, line_number))
    return records


def filter_manifest(records: list[TranscriptRecord]):
    """Partition records into (kept, discarded, stats); sets each record's offending words.

    stats is the dict that ``vietphon filter`` prints: {"splits": {name: row, ...}
    in name order, "overall": row}, each row {"total", "flagged", "percent"}
    with percent = 100 * flagged / total (0.0 for no records).  A record with
    an absent or empty split counts under "(unsplit)".
    """
    kept, discarded = [], []
    for record in records:
        record.offending = offending_words(record.transcript)
        (discarded if record.offending else kept).append(record)
    totals = Counter(record.split or "(unsplit)" for record in records)
    discards = Counter(record.split or "(unsplit)" for record in discarded)

    def row(total: int, flagged: int) -> dict:
        return {"total": total, "flagged": flagged, "percent": 100.0 * flagged / total if total else 0.0}

    return kept, discarded, {
        "splits": {name: row(total, discards[name]) for name, total in sorted(totals.items())},
        "overall": row(len(records), len(discarded)),
    }

"""Edit-distance error rates: CER, WER, PER, and the per-component PER split.

All rates are (substitutions + deletions + insertions) / reference length
under a minimum-cost unit-weight alignment.  PER aligns hypothesis syllables
against reference syllables and then scores the initial, rhyme, and tone
streams against that single alignment, so the three streams stay synchronized
with the tuple-per-step decoder output; a flat mode that aligns each stream
independently is available behind a flag.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .tokenizer import tokenize


@dataclass(frozen=True)
class ErrorRateReport:
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        """Error rate; 0 for empty-vs-empty, +inf when only the reference is empty."""
        if self.reference_length == 0:
            return 0.0 if self.errors == 0 else math.inf
        return self.errors / self.reference_length

    def as_dict(self) -> dict:
        rate = self.rate
        return {
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "reference_length": self.reference_length,
            "rate": "undefined" if math.isinf(rate) else rate,
        }

    def __add__(self, other: "ErrorRateReport") -> "ErrorRateReport":
        return ErrorRateReport(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.reference_length + other.reference_length,
        )


ZERO_REPORT = ErrorRateReport(0, 0, 0, 0)


def align(ref: Sequence, hyp: Sequence) -> list[tuple[str, int, int]]:
    """One optimal alignment as (op, ref_index, hyp_index) steps.

    Ops are "match", "sub", "del" (reference token missing from the
    hypothesis), and "ins" (extra hypothesis token); the index that does not
    apply is -1.  Cost ties break substitution > deletion > insertion.
    Tokens key the match masks, so they must be hashable (a TypeError
    otherwise) and equal to themselves (a NaN is not).

    The distance table is never built.  Myers' bit-vector recurrence (JACM
    46(3), 1999) runs one column per hypothesis token over the reference
    positions as bits, and keeps each column's vertical deltas (bit i - 1 of
    pv or mv is set when D[i][j] - D[i-1][j] is +1 or -1), so the backtrace
    reads any cell as j + popcount(pv & low_i) - popcount(mv & low_i) (Hyyrö,
    "A note on bit-parallel alignment computation", PSC 2004).

    The common suffix is matched without the recurrence: when the last
    tokens are equal, D[m][n] = D[m-1][n-1], so the backtrace would match
    them first anyway.  The masks are built over the whole reference before
    the trim, so every reference token is still hashed.  The backtrace
    carries the current distance D[i][j]: equal tokens are a match with no
    lookup, for the same reason; otherwise one step reads the diagonal cell
    (one popcount pair over column j - 1) and, failing a substitution, the
    single bit i - 1 of column j's pv, which is set exactly when D[i-1][j]
    is one less.  (The common prefix is not trimmed: the backtrace ends
    there, and trimming it changes which tokens pair up.)
    """
    m, n = len(ref), len(hyp)
    masks = {}
    for i, token in enumerate(ref):
        masks[token] = masks.get(token, 0) | 1 << i
    k = 0
    while k < m and k < n and ref[m - 1 - k] == hyp[n - 1 - k]:
        k += 1
    m, n = m - k, n - k
    full = (1 << m) - 1
    pv, mv = full, 0  # column 0: D[i][0] = i
    columns = [(pv, mv)]
    for token in hyp[:n]:
        eq = masks.get(token, 0) & full
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1  # row 0 rises by one a column: D[0][j] = j
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        columns.append((pv, mv))

    back = []
    i, j, here = m, n, n + pv.bit_count() - mv.bit_count()
    while i > 0 and j > 0:
        if ref[i - 1] == hyp[j - 1]:
            back.append(("match", i - 1, j - 1))
            i, j = i - 1, j - 1
            continue
        pv, mv = columns[j - 1]
        low = (1 << (i - 1)) - 1
        if j - 1 + (pv & low).bit_count() - (mv & low).bit_count() == here - 1:
            back.append(("sub", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif columns[j][0] >> (i - 1) & 1:
            back.append(("del", i - 1, -1))
            i -= 1
        else:
            back.append(("ins", -1, j - 1))
            j -= 1
        here -= 1
    ops = [("del", t, -1) for t in range(i)] + [("ins", -1, t) for t in range(j)]
    ops += reversed(back)
    ops += [("match", m + t, n + t) for t in range(k)]
    return ops


def _tally(ops, ref: Sequence, hyp: Sequence, pick=lambda token: token) -> ErrorRateReport:
    """S/D/I counts of align ops; a paired step is a substitution when pick differs on it.

    Matches are skipped: they pair equal tokens, on which no pick differs.
    """
    s = d = i_ = 0
    for op, ri, hi in ops:
        if op == "match":
            continue
        if op == "del":
            d += 1
        elif op == "ins":
            i_ += 1
        elif pick(ref[ri]) != pick(hyp[hi]):
            s += 1
    return ErrorRateReport(s, d, i_, len(ref))


def _report(ref: Sequence, hyp: Sequence) -> ErrorRateReport:
    return _tally(align(ref, hyp), ref, hyp)


def edit_distance(ref: Sequence, hyp: Sequence) -> tuple[int, int, int, int]:
    """Levenshtein distance with unit costs: (distance, S, D, I).

    The counts are those of the ops of align, whose tokens must be hashable:
    D counts reference tokens missing from the hypothesis ("del"), I counts
    extra hypothesis tokens ("ins").  So edit_distance(x, "") is all
    deletions and edit_distance("", x) is all insertions.
    """
    report = _report(ref, hyp)
    return report.errors, report.substitutions, report.deletions, report.insertions


def wer(ref: str, hyp: str) -> ErrorRateReport:
    """Word error rate over whitespace-separated words."""
    return _report(ref.split(), hyp.split())


def cer(ref: str, hyp: str, include_spaces: bool = False) -> ErrorRateReport:
    """Character error rate over canonically composed characters.

    Inter-word spaces are excluded by default; pass include_spaces=True to
    count them as characters.
    """

    def chars(text: str) -> list[str]:
        text = unicodedata.normalize("NFC", text)
        return list(text) if include_spaces else list("".join(text.split()))

    return _report(chars(ref), chars(hyp))


@dataclass(frozen=True)
class PerReport:
    initial: ErrorRateReport
    rhyme: ErrorRateReport
    tone: ErrorRateReport
    overall: ErrorRateReport

    def as_dict(self) -> dict:
        return {
            "per_i": self.initial.as_dict(),
            "per_r": self.rhyme.as_dict(),
            "per_t": self.tone.as_dict(),
            "per": self.overall.as_dict(),
        }

    def __add__(self, other: "PerReport") -> "PerReport":
        return PerReport(
            self.initial + other.initial,
            self.rhyme + other.rhyme,
            self.tone + other.tone,
            self.overall + other.overall,
        )


ZERO_PER = PerReport(ZERO_REPORT, ZERO_REPORT, ZERO_REPORT, ZERO_REPORT)

_COMPONENTS = (
    ("initial", lambda s: s.initial),
    ("rhyme", lambda s: s.rhyme),
    ("tone", lambda s: s.tone),
)


def per_components(ref: str, hyp: str, alignment: str = "tuple") -> PerReport:
    """Component-wise phoneme error rates and their aggregate.

    "tuple" mode (default) aligns whole syllables once and scores each
    component stream against that alignment: a deleted or inserted syllable
    counts in all three streams.  "flat" mode aligns the three streams
    independently.  The aggregate is the length-weighted mean of the streams,
    computed from the summed counts so the identity is exact.
    """
    ref_syls = tokenize(ref)
    hyp_syls = tokenize(hyp)
    parts: dict[str, ErrorRateReport] = {}
    if alignment == "tuple":
        ops = align(ref_syls, hyp_syls)
        for name, pick in _COMPONENTS:
            parts[name] = _tally(ops, ref_syls, hyp_syls, pick)
    elif alignment == "flat":
        for name, pick in _COMPONENTS:
            parts[name] = _report([pick(s) for s in ref_syls], [pick(s) for s in hyp_syls])
    else:
        raise ValueError(f"unknown alignment mode: {alignment!r}")
    overall = parts["initial"] + parts["rhyme"] + parts["tone"]
    return PerReport(parts["initial"], parts["rhyme"], parts["tone"], overall)


def score_pairs(pairs, include_spaces: bool = False, alignment: str = "tuple",
                with_per: bool = True) -> dict:
    """Corpus-level report over (ref, hyp) pairs; counts accumulate per metric."""
    total_cer = ZERO_REPORT
    total_wer = ZERO_REPORT
    total_per = ZERO_PER
    n = 0
    for ref, hyp in pairs:
        total_cer += cer(ref, hyp, include_spaces)
        total_wer += wer(ref, hyp)
        if with_per:
            total_per += per_components(ref, hyp, alignment)
        n += 1
    report = {"utterances": n, "cer": total_cer.as_dict(), "wer": total_wer.as_dict()}
    if with_per:
        report.update(total_per.as_dict())
    return report

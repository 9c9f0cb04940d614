"""Independent output checks; nothing here imports ``vietphon``.

Each check returns a Verdict: how many items failed, and how many of those
failed only through a known, listed program defect.  Known defects still count
as failed items; they are listed apart so that a new fault cannot hide behind
them (see KNOWN_DEFECTS).
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass

#: defects of the program that the oracles are expected to flag at present
KNOWN_DEFECTS = {
    "wer-nfd": "wer() does not NFC-normalise, so a decomposed hypothesis scores "
               "WER errors that CER and PER do not (ROADMAP open item 1)",
}


@dataclass
class Verdict:
    failed: int = 0
    known: int = 0  # failed items explained by a KNOWN_DEFECTS entry
    reasons: tuple = ()


def distance(a, b) -> int:
    """Unit-cost Levenshtein distance, distance only (no alignment)."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        row = [i]
        for j, y in enumerate(b, start=1):
            row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
        prev = row
    return prev[-1]


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


# ---------------------------------------------------------------------------
# filter: clean utterances kept, foreign ones discarded, lax ones unchecked
# ---------------------------------------------------------------------------

def check_filter(truth, inputs_text: str, kept_text: str, discarded_text: str,
                 stats_text: str) -> Verdict:
    """truth: [(id, kind)] with kind in clean / foreign / lax."""
    transcripts = {json.loads(line)["id"]: json.loads(line)["transcript"]
                   for line in inputs_text.splitlines()}
    sides = {}
    bad = set()
    for side, text in (("kept", kept_text), ("discarded", discarded_text)):
        for line in text.splitlines():
            record = json.loads(line)
            uid = record["id"]
            if uid in sides or record.get("transcript") != transcripts.get(uid):
                bad.add(uid)  # duplicated, unknown, or transcript altered
            sides[uid] = side
    reasons = []
    for uid, kind in truth:
        side = sides.get(uid)
        if side is None:
            bad.add(uid)
        elif kind == "clean" and side != "kept":
            bad.add(uid)
        elif kind == "foreign" and side != "discarded":
            bad.add(uid)
    if bad:
        reasons.append(f"filter: {len(bad)} utterances misplaced, e.g. {sorted(bad)[:3]}")
    stats = json.loads(stats_text)["overall"]
    discarded = sum(1 for side in sides.values() if side == "discarded")
    if stats["total"] != len(truth) or stats["flagged"] != discarded:
        return Verdict(len(truth), 0, (f"filter: stats {stats} disagree with output files",))
    return Verdict(len(bad), 0, tuple(reasons))


# ---------------------------------------------------------------------------
# score: per-pair totals against distance-only DPs on NFC text
# ---------------------------------------------------------------------------

def _errors(report) -> int:
    return report["substitutions"] + report["deletions"] + report["insertions"]


def _pair_problems(ref: str, hyp: str, program: dict) -> list[str]:
    """Which of cer / wer / per disagree with the oracle for one pair."""
    problems = []
    ref_chars = [c for c in nfc(ref) if not c.isspace()]
    hyp_chars = [c for c in nfc(hyp) if not c.isspace()]
    cer = program["cer"]
    if _errors(cer) != distance(ref_chars, hyp_chars) or cer["reference_length"] != len(ref_chars):
        problems.append("cer")
    ref_words, hyp_words = nfc(ref).split(), nfc(hyp).split()
    word_distance = distance(ref_words, hyp_words)
    wer = program["wer"]
    if _errors(wer) != word_distance or wer["reference_length"] != len(ref_words):
        problems.append("wer")
    if not per_consistent(program, len(ref_words), len(hyp_words), word_distance):
        problems.append("per")
    return problems


def per_consistent(program: dict, m: int, n: int, word_distance: int) -> bool:
    """Tie-break-free checks of a tuple-mode PER report for one pair.

    The split of substitutions among the three streams depends on which
    optimal alignment the program picks, so only what every optimal syllable
    alignment shares is checked: each stream's reference length is the
    reference word count, all streams carry the same deletions and
    insertions, D - I = m - n, and the syllable substitutions the alignment
    implies (word distance - D - I; a lexicon word and its syllable
    correspond one to one) lie between the largest stream's substitutions and
    their sum.  The aggregate must be the sum of the streams.
    """
    streams = [program["per_i"], program["per_r"], program["per_t"]]
    dels = {s["deletions"] for s in streams}
    ins = {s["insertions"] for s in streams}
    if len(dels) != 1 or len(ins) != 1 or any(s["reference_length"] != m for s in streams):
        return False
    d, i = dels.pop(), ins.pop()
    subs = [s["substitutions"] for s in streams]
    implied = word_distance - d - i
    overall = program["per"]
    total_ok = all(overall[key] == sum(s[key] for s in streams)
                   for key in ("substitutions", "deletions", "insertions", "reference_length"))
    return d - i == m - n and max(subs) <= implied <= sum(subs) and total_ok


def check_score(pairs, program_pairs, cli_text: str) -> Verdict:
    """pairs: [{"ref", "hyp"}]; program_pairs: the library's per-pair reports.

    A pair whose only disagreement is WER on a decomposed hypothesis, and
    whose WER on NFC-normalised text agrees with the oracle, is the known
    "wer-nfd" defect.
    """
    errors = [p["error"] for p in program_pairs if "error" in p]
    if errors:
        return Verdict(len(pairs), 0, (f"score: the library raised {errors[0]}",))
    failed = known = 0
    reasons = []
    for pair, program in zip(pairs, program_pairs):
        problems = _pair_problems(pair["ref"], pair["hyp"], program)
        if not problems:
            continue
        failed += 1
        if (problems == ["wer"] and nfc(pair["hyp"]) != pair["hyp"]
                and _errors(program["wer_nfc"]) == distance(nfc(pair["ref"]).split(), nfc(pair["hyp"]).split())):
            known += 1
        elif len(reasons) < 3:
            reasons.append(f"score: {problems} disagree on {pair}")
    report = json.loads(cli_text)
    totals_ok = report["utterances"] == len(pairs)
    for key in ("cer", "wer", "per_i", "per_r", "per_t", "per"):
        for field in ("substitutions", "deletions", "insertions", "reference_length"):
            totals_ok = totals_ok and report[key][field] == sum(p[key][field] for p in program_pairs)
    if not totals_ok:
        return Verdict(len(pairs), 0, ("score: CLI corpus totals differ from the sum over pairs",))
    return Verdict(failed, known, tuple(reasons))


# ---------------------------------------------------------------------------
# tokenize, gradcheck
# ---------------------------------------------------------------------------

def check_tokenize(lines, phoneme_text: str, detok_text: str, coding_mismatches: list[int]) -> Verdict:
    """detokenize(tokenize(x)) == x per line, and decode(encode(s)) == s per syllable."""
    phonemes = phoneme_text.splitlines()
    back = detok_text.splitlines()
    if len(phonemes) != len(lines) or len(back) != len(lines) or len(coding_mismatches) != len(lines):
        return Verdict(len(lines), 0, ("tokenize: line count changed",))
    bad = [k for k, line in enumerate(lines)
           if back[k] != line or len(phonemes[k].split()) != len(line.split()) or coding_mismatches[k]]
    reasons = (f"tokenize: line {bad[0]}: {lines[bad[0]]!r} -> {back[bad[0]]!r}",) if bad else ()
    return Verdict(len(bad), 0, reasons)


def check_gradcheck(returncode: int, cli_text: str) -> Verdict:
    """Exit code 0 and a passing one-config summary."""
    try:
        summary = json.loads(cli_text)
    except json.JSONDecodeError:
        return Verdict(1, 0, ("gradcheck: output is not JSON",))
    if returncode != 0 or summary.get("passed") is not True or summary.get("configs") != 1:
        return Verdict(1, 0, (f"gradcheck: exit {returncode}, summary {summary}",))
    return Verdict(0, 0, ())

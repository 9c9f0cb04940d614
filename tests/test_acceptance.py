"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Nothing here is calibrated after the fact; tolerances and bounds
are fixed constants.
"""

import json
import math
import random
import time
from fractions import Fraction

from vietphon.corpus import REFERENCE_CONTAMINATION, filter_manifest, load_manifest
from vietphon.head import HeadConfig, grad_check, run_grad_suite, toy_batch
from vietphon.metrics import edit_distance, per_components, wer
from vietphon.tokenizer import (
    MAX_RULE_COMPARISONS,
    ParseStats,
    parse_syllable,
    render_syllable,
)
from vietphon.vocab import DESIGN_COUNTS, build_vocab, vocab_report

from test_metrics import brute_force_distance


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_roundtrip_identity(lexicon):
    assert len(lexicon) >= 5000
    start = time.perf_counter()
    mismatches = [w for w in lexicon if render_syllable(parse_syllable(w).syllable) != w]
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 5.0, f"round trip took {elapsed:.2f}s"
    report(1, f"round-trip identity on {len(lexicon)} syllables in {elapsed:.2f}s")


def test_criterion_2_golden_rule_table(golden_rows):
    assert len(golden_rows) >= 120
    failures = []
    for word, iwf, gwf, vwf, fwf, tone, iipa, gipa, vipa, fipa in golden_rows:
        result = parse_syllable(word)
        s = result.syllable
        ok = (
            result.graphemes == (iwf or "", gwf or "", vwf, fwf or "")
            and (s.initial, s.glide, s.vowel, s.final) == (iipa, gipa, vipa, fipa)
            and s.tone.label == tone
        )
        if not ok:
            failures.append(word)
    assert failures == []
    report(2, f"all {len(golden_rows)} golden example words parse as stated")


def test_criterion_3_vocabulary_constants(lexicon):
    vocab = build_vocab(lexicon)
    table = vocab_report(vocab)
    assert table["computed"]["tones"] == 6
    assert table["computed"]["initials"] == 22
    assert table["computed"]["initials_with_empty"] == 23
    assert table["design"]["rhymes"] == 145 and table["design"]["total"] == 163
    assert table["computed"]["rhymes"] > 0
    assert any("173" in note for note in table["notes"])  # discrepancy documented
    report(3, f"tones 6, initials 22+∅; rhymes computed {table['computed']['rhymes']} "
              f"vs design 145; totals {table['computed']['content_total']} vs design 163")


def test_criterion_4_metrics_oracle():
    rng = random.Random(20260810)
    cases = 10_000
    for _ in range(cases):
        a = tuple(rng.randrange(4) for _ in range(rng.randrange(9)))
        b = tuple(rng.randrange(4) for _ in range(rng.randrange(9)))
        assert edit_distance(a, b)[0] == brute_force_distance(a, b), (a, b)
    third = wer("a b c", "a x c")
    assert third.errors == 1 and third.reference_length == 3
    assert Fraction(third.errors, third.reference_length) == Fraction(1, 3)
    report(4, f"DP distance equals the brute-force oracle on {cases} pairs; WER 1/3 exact")


def test_criterion_5_per_decomposition():
    tone_only = per_components("ba", "bà")
    assert tone_only.tone.rate > 0
    assert tone_only.initial.rate == 0 and tone_only.rhyme.rate == 0

    mixed = per_components("ba mẹ ăn cơm", "bà mẹ ắn")
    streams = (mixed.initial, mixed.rhyme, mixed.tone)
    assert Fraction(mixed.overall.errors, mixed.overall.reference_length) == Fraction(
        sum(s.errors for s in streams), sum(s.reference_length for s in streams)
    )
    assert mixed.overall.errors == sum(s.errors for s in streams)
    assert mixed.overall.reference_length == sum(s.reference_length for s in streams)
    report(5, "tone-only pair isolates PER-t; aggregate PER is the exact weighted mean")


def test_criterion_6_gradient_verification(corrupt_gradient):
    start = time.perf_counter()
    summary = run_grad_suite(n_configs=100, base_seed=0)
    elapsed = time.perf_counter() - start
    assert summary["step"] == 1e-5 and summary["tolerance"] == 1e-4
    assert summary["passed"], summary
    assert summary["max_rel_err"] < 1e-4
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"

    params, ids, targets = toy_batch(seed=7)
    corrupt_gradient("rhyme.w_up", 0, 1e-2)
    control = grad_check(params, ids, targets)
    assert not control["passed"]
    report(6, f"100 configs, max rel err {summary['max_rel_err']:.2e} in {elapsed:.1f}s; "
              f"corrupted control fails")


def test_criterion_7_loss_identities():
    import numpy as np

    from vietphon.head import HEADS, composite_loss

    config = HeadConfig(dim=4, v_init=8, v_rhyme=10)
    n = 3
    logits = {h: np.zeros((n, v)) for h, v in config.vocab_sizes.items()}
    targets = {h: np.zeros(n, dtype=int) for h in HEADS}
    total, per_head = composite_loss(logits, targets)
    for head, v in config.vocab_sizes.items():
        assert abs(per_head[head] - math.log(v)) < 1e-12
    assert total == per_head["init"] + per_head["rhyme"] + per_head["tone"]

    rng = np.random.default_rng(12)
    logits = {h: rng.normal(size=(n, v)) for h, v in config.vocab_sizes.items()}
    targets = {h: rng.integers(0, v, size=n) for h, v in config.vocab_sizes.items()}
    total, per_head = composite_loss(logits, targets)
    assert total - (per_head["init"] + per_head["rhyme"] + per_head["tone"]) == 0.0
    report(7, "uniform-logit CE equals ln(V) to 1e-12; total is the exact sum of heads")


def test_criterion_8_corpus_filtering():
    rows = [{"id": f"u{i}", "transcript": "ba mẹ ăn cơm", "split": "train"} for i in range(9)]
    rows.append({"id": "u9", "transcript": "ba mẹ okay", "split": "train"})
    records = load_manifest(json.dumps(r) for r in rows)
    kept, discarded, stats = filter_manifest(records)
    assert stats["overall"]["percent"] == 10.0
    assert len(discarded) == 1

    kept_again, discarded_again, stats_again = filter_manifest(kept)
    assert kept_again == kept and not discarded_again
    assert stats_again["overall"]["flagged"] == 0

    # reference percentages available for the informative dataset comparison
    assert REFERENCE_CONTAMINATION["vivos"]["overall"] == 0.70
    assert REFERENCE_CONTAMINATION["lsvsc"]["overall"] == 9.24
    report(8, "10-record manifest reports exactly 10% discarded; filtering idempotent")


def test_criterion_9_linear_cost(lexicon):
    stats = ParseStats()
    for word in lexicon:
        parse_syllable(word, stats)
    assert stats.per_word_max <= MAX_RULE_COMPARISONS == 58
    report(9, f"max {stats.per_word_max} rule comparisons per word over the lexicon "
              f"(bound {MAX_RULE_COMPARISONS})")

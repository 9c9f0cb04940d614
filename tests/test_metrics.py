import math
import random
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietphon.metrics import (
    ErrorRateReport,
    align,
    cer,
    edit_distance,
    per_components,
    score_pairs,
    wer,
)
from vietphon.tokenizer import ParseFailure, tokenize


def brute_force_distance(a, b):
    """Exponential recursion; the independent oracle for the DP distance."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return brute_force_distance(a[1:], b[1:])
    return 1 + min(
        brute_force_distance(a[1:], b),
        brute_force_distance(a, b[1:]),
        brute_force_distance(a[1:], b[1:]),
    )


def dp_align(ref, hyp):
    """The full (m+1) x (n+1) table and its backtrace: the oracle for align's op lists."""
    m, n = len(ref), len(hyp)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dist[i][0] = i
    for j in range(1, n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        row, prev = dist[i], dist[i - 1]
        for j in range(1, n + 1):
            same = ref[i - 1] == hyp[j - 1]
            row[j] = min(prev[j - 1] + (0 if same else 1), prev[j] + 1, row[j - 1] + 1)

    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0:
            same = ref[i - 1] == hyp[j - 1]
            if dist[i - 1][j - 1] + (0 if same else 1) == here:
                ops.append(("match" if same else "sub", i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if i > 0 and dist[i - 1][j] + 1 == here:
            ops.append(("del", i - 1, -1))
            i -= 1
            continue
        ops.append(("ins", -1, j - 1))
        j -= 1
    ops.reverse()
    return ops


@st.composite
def token_pairs(draw, max_size=40):
    """(ref, hyp) over one alphabet of 1-5 tokens."""
    tokens = st.integers(0, draw(st.integers(1, 5)) - 1)
    return draw(st.lists(tokens, max_size=max_size)), draw(st.lists(tokens, max_size=max_size))


class TestAlignAgainstTheTable:
    @settings(max_examples=1500, deadline=None)
    @given(token_pairs())
    def test_op_lists_equal_the_table_backtrace(self, pair):
        ref, hyp = pair
        assert align(ref, hyp) == dp_align(ref, hyp)

    @pytest.mark.parametrize("m, n", [(63, 63), (64, 64), (65, 65), (64, 0), (0, 65), (63, 66), (65, 62),
                                      (1100, 1060), (1030, 1100)])
    def test_word_boundary_and_long_pairs(self, m, n):
        # references of 63, 64 and 65 tokens straddle a 64-bit machine word
        rng = random.Random(m * 10_000 + n)
        for alphabet in (1, 2, 4, 30):
            ref = [rng.randrange(alphabet) for _ in range(m)]
            hyp = [rng.randrange(alphabet) for _ in range(n)]
            assert align(ref, hyp) == dp_align(ref, hyp)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shared_ends(self, data):
        # suffixes up to 200 tokens carry the trimmed common suffix across the 64-bit word boundary
        tokens = st.integers(0, data.draw(st.integers(1, 4)) - 1)
        prefix, a, b = (data.draw(st.lists(tokens, max_size=12)) for _ in range(3))
        suffix = data.draw(st.lists(tokens, max_size=200))
        ref, hyp = prefix + a + suffix, prefix + b + suffix
        assert align(ref, hyp) == dp_align(ref, hyp)

    @pytest.mark.parametrize("m", [0, 1, 2, 63, 64, 65, 127, 128, 129, 130])
    def test_equal_sequences_are_all_matches(self, m):
        rng = random.Random(m)
        for alphabet in (1, 3):
            ref = [rng.randrange(alphabet) for _ in range(m)]
            assert align(ref, list(ref)) == [("match", t, t) for t in range(m)] == dp_align(ref, ref)

    def test_syllable_and_string_tokens(self, lexicon):
        rng = random.Random(29)
        pool = rng.sample(lexicon, 12)
        for _ in range(200):
            ref = tokenize(" ".join(rng.choices(pool, k=rng.randrange(0, 30))))
            hyp = tokenize(" ".join(rng.choices(pool, k=rng.randrange(0, 30))))
            assert align(ref, hyp) == dp_align(ref, hyp)
            words = ([str(s) for s in ref], [str(s) for s in hyp])
            assert align(*words) == dp_align(*words)

    # ([1, [2]], [3, [2]]): the unhashable token sits in the common suffix, which align trims
    @pytest.mark.parametrize("ref, hyp", [([[1]], [[1]]), ([1, 2], [{3}]), ([], [[]]), ([{}], []),
                                          ([1, [2]], [3, [2]])])
    def test_unhashable_tokens_raise_type_error(self, ref, hyp):
        with pytest.raises(TypeError):
            align(ref, hyp)
        with pytest.raises(TypeError):
            edit_distance(ref, hyp)


class TestEditDistance:
    def test_single_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == (1, 1, 0, 0)

    def test_identity(self):
        assert edit_distance("abc", "abc") == (0, 0, 0, 0)

    def test_pure_deletion_and_insertion(self):
        assert edit_distance("abc", "ac") == (1, 0, 1, 0)
        assert edit_distance("ac", "abc") == (1, 0, 0, 1)

    def test_empty_sides(self):
        assert edit_distance("", "abc") == (3, 0, 0, 3)
        assert edit_distance("abc", "") == (3, 0, 3, 0)

    def test_counts_sum_to_distance(self):
        rng = random.Random(5)
        for _ in range(300):
            a = [rng.randrange(4) for _ in range(rng.randrange(9))]
            b = [rng.randrange(4) for _ in range(rng.randrange(9))]
            distance, s, d, i = edit_distance(a, b)
            assert distance == s + d + i

    def test_matches_brute_force_oracle(self):
        rng = random.Random(1234)
        for _ in range(2000):
            a = tuple(rng.randrange(4) for _ in range(rng.randrange(9)))
            b = tuple(rng.randrange(4) for _ in range(rng.randrange(9)))
            assert edit_distance(a, b)[0] == brute_force_distance(a, b)

    def test_substitution_preferred_on_ties(self):
        # "ab" -> "ba" costs 2 either way; the backtrace must report 2 subs
        assert edit_distance("ab", "ba") == (2, 2, 0, 0)

    def test_alignment_ops_are_consistent(self):
        ops = align("kitten", "sitting")
        assert [op for op, _, _ in ops].count("sub") == 2
        ref_indices = [i for op, i, _ in ops if op != "ins"]
        assert ref_indices == sorted(ref_indices)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 3), max_size=8))
    def test_symmetry(self, a, b):
        assert edit_distance(a, b)[0] == edit_distance(b, a)[0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), max_size=6),
    )
    def test_triangle_inequality(self, a, b, c):
        ab = edit_distance(a, b)[0]
        bc = edit_distance(b, c)[0]
        ac = edit_distance(a, c)[0]
        assert ac <= ab + bc


class TestRates:
    def test_cer_drops_every_whitespace_character(self):
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        assert spaces
        for c in spaces:
            assert cer("a" + c + "b", "ab").errors == 0
            # NFC keeps each one a single character (U+2000 and U+2001 become U+2002 and U+2003)
            assert cer("a" + c + "b", "ab", include_spaces=True) == ErrorRateReport(0, 1, 0, 3)

    def test_identical_strings_are_zero(self):
        text = "một hai ba"
        assert wer(text, text).rate == 0
        assert cer(text, text).rate == 0
        assert per_components(text, text).overall.rate == 0

    def test_wer_third(self):
        report = wer("a b c", "a x c")
        assert report.rate == pytest.approx(1 / 3)
        assert (report.substitutions, report.deletions, report.insertions) == (1, 0, 0)

    def test_cer_excludes_spaces_by_default(self):
        assert cer("ba mẹ", "bamẹ").rate == 0
        assert cer("ba mẹ", "bamẹ", include_spaces=True).rate == pytest.approx(1 / 5)

    def test_cer_composes_input(self):
        import unicodedata

        decomposed = unicodedata.normalize("NFD", "kiệm")
        assert cer("kiệm", decomposed).rate == 0

    # wer is left out: it does not compose its input yet (ROADMAP item 1)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nfd_input_moves_neither_cer_nor_per(self, lexicon, data):
        # words from a small pool, so that the two sides share words and characters
        pool = data.draw(st.lists(st.sampled_from(lexicon), min_size=1, max_size=4))
        sentences = st.lists(st.sampled_from(pool), max_size=5).map(" ".join)
        ref, hyp = data.draw(sentences), data.draw(sentences)
        nfd_ref, nfd_hyp = unicodedata.normalize("NFD", ref), unicodedata.normalize("NFD", hyp)
        for r, h in ((nfd_ref, hyp), (ref, nfd_hyp), (nfd_ref, nfd_hyp)):
            for include_spaces in (False, True):
                assert cer(r, h, include_spaces) == cer(ref, hyp, include_spaces)
            for alignment in ("tuple", "flat"):
                assert per_components(r, h, alignment) == per_components(ref, hyp, alignment)

    def test_rate_can_exceed_one(self):
        report = wer("a", "x y z")
        assert report.rate > 1

    def test_empty_reference(self):
        assert wer("", "").rate == 0
        undefined = wer("", "a b")
        assert math.isinf(undefined.rate)
        assert undefined.as_dict()["rate"] == "undefined"

    def test_rate_zero_iff_equal(self):
        assert wer("ba mẹ", "ba mẹ").rate == 0
        assert wer("ba mẹ", "ba bà").rate != 0


class TestPer:
    def test_tone_only_error(self):
        report = per_components("ba", "bà")
        assert report.tone.rate == 1.0
        assert report.initial.rate == 0.0
        assert report.rhyme.rate == 0.0
        assert report.overall.rate == pytest.approx(1 / 3)

    def test_one_tone_flip_in_ten(self):
        ref = " ".join(["ba"] * 10)
        hyp = " ".join(["ba"] * 9 + ["bà"])
        report = per_components(ref, hyp)
        assert report.tone.rate == pytest.approx(0.1)
        assert report.initial.rate == 0.0
        assert report.rhyme.rate == 0.0

    def test_deleted_syllable_hits_all_streams(self):
        report = per_components("ba mẹ ăn", "ba ăn")
        for stream in (report.initial, report.rhyme, report.tone):
            assert stream.deletions == 1
            assert stream.substitutions == 0

    def test_aggregate_is_length_weighted_mean(self):
        report = per_components("ba mẹ ăn cơm", "bà mẹ ăn")
        streams = (report.initial, report.rhyme, report.tone)
        total_errors = sum(s.errors for s in streams)
        total_length = sum(s.reference_length for s in streams)
        assert report.overall.errors == total_errors
        assert report.overall.reference_length == total_length
        weighted = sum(
            Fraction(s.errors, 1) for s in streams
        ) / sum(Fraction(s.reference_length, 1) for s in streams)
        assert Fraction(report.overall.errors, report.overall.reference_length) == weighted

    def test_flat_mode_differs_only_in_alignment(self):
        ref, hyp = "ba mẹ", "bà mẹ"
        flat = per_components(ref, hyp, alignment="flat").overall
        assert flat.rate == per_components(ref, hyp, alignment="tuple").overall.rate

    def test_flat_mode_realigns_streams_independently(self):
        # hypothesis missing the middle word: flat tone stream can re-align
        ref, hyp = "bá bà bá", "bá bá"
        tuple_report = per_components(ref, hyp, alignment="tuple")
        flat_report = per_components(ref, hyp, alignment="flat")
        assert tuple_report.tone.errors >= flat_report.tone.errors

    def test_tuple_mode_equals_a_tally_over_every_paired_op(self, lexicon):
        # the oracle compares each component on matches too, which per_components skips
        rng = random.Random(31)
        pool = rng.sample(lexicon, 12)
        for _ in range(200):
            ref = " ".join(rng.choices(pool, k=rng.randrange(0, 30)))
            hyp = " ".join(rng.choices(pool, k=rng.randrange(0, 30)))
            ref_syls, hyp_syls = tokenize(ref), tokenize(hyp)
            ops = dp_align(ref_syls, hyp_syls)
            d, i = (sum(op == kind for op, _, _ in ops) for kind in ("del", "ins"))
            want = []
            for field in ("initial", "rhyme", "tone"):
                s = sum(op in ("match", "sub") and getattr(ref_syls[ri], field) != getattr(hyp_syls[hi], field)
                        for op, ri, hi in ops)
                want.append(ErrorRateReport(s, d, i, len(ref_syls)))
            report = per_components(ref, hyp)
            assert [report.initial, report.rhyme, report.tone] == want

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            per_components("ba", "ba", alignment="greedy")

    def test_parse_failure_propagates(self):
        with pytest.raises(ParseFailure):
            per_components("ba", "hello").overall


class TestScorePairs:
    def test_accumulates_counts(self):
        report = score_pairs([("ba mẹ", "ba mẹ"), ("ba", "bà")])
        assert report["utterances"] == 2
        assert report["wer"]["reference_length"] == 3
        assert report["per_t"]["substitutions"] == 1

    def test_all_zero_for_identical(self):
        report = score_pairs([("ba mẹ", "ba mẹ")])
        assert report["cer"]["rate"] == 0
        assert report["wer"]["rate"] == 0
        assert report["per"]["rate"] == 0


class TestReportArithmetic:
    def test_addition(self):
        a = ErrorRateReport(1, 2, 3, 10)
        b = ErrorRateReport(4, 5, 6, 20)
        combined = a + b
        assert combined == ErrorRateReport(5, 7, 9, 30)
        assert combined.rate == pytest.approx(21 / 30)

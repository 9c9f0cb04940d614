import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietphon import phonology, tokenizer
from vietphon.lexicon import iter_syllables
from vietphon.phonology import (
    FINAL_IPAS,
    GLIDE_IPAS,
    INITIAL_IPAS,
    RULES,
    VOWEL_IPAS,
    PhonemeClass,
    Syllable,
    Tone,
    validate,
)
from vietphon.tokenizer import (
    MAX_RULE_COMPARISONS,
    MultipleToneMarks,
    ParseFailure,
    ParseStats,
    TokenizeError,
    closed_syllables,
    detokenize,
    format_phonemes,
    format_syllable,
    parse_phonemes,
    parse_syllable,
    parse_syllable_token,
    render_syllable,
    strip_tone,
    syllable_tokens,
    tokenize,
)


class TestStripTone:
    def test_kiem(self):
        norm = strip_tone("kiệm")
        assert norm.base_letters == "kiêm"
        assert norm.tone is Tone.MID_GLOTTALIZED_RAISING

    def test_flat_is_absence_of_mark(self):
        norm = strip_tone("ba")
        assert norm.base_letters == "ba"
        assert norm.tone is Tone.FLAT

    def test_hoang(self):
        norm = strip_tone("hoàng")
        assert norm.base_letters == "hoang"
        assert norm.tone is Tone.LOW_FALLING

    def test_letter_diacritics_preserved(self):
        assert strip_tone("đường").base_letters == "đương"
        assert strip_tone("thuở").base_letters == "thuơ"

    def test_decomposed_input(self):
        decomposed = unicodedata.normalize("NFD", "kiệm")
        assert decomposed != "kiệm"
        assert strip_tone(decomposed) == strip_tone("kiệm")

    def test_output_is_composed(self):
        base = strip_tone("biển").base_letters
        assert base == unicodedata.normalize("NFC", base) == "biên"

    def test_multiple_tone_marks(self):
        with pytest.raises(MultipleToneMarks):
            strip_tone("bàá")

    def test_mark_on_any_letter_accepted(self):
        # mark sitting on the glide letter (older typography)
        assert strip_tone("hòa") == strip_tone("hoà")


class TestMatchComponent:
    """One component's rule match, seen through parse_syllable's syllable and graphemes."""

    def test_ngh_longest_prefix(self):
        result = parse_syllable("nghiêm")
        assert result.syllable.initial == "ŋ"
        assert result.graphemes == ("ngh", "", "iê", "m")

    def test_zero_initial(self):
        result = parse_syllable("a")
        assert result.syllable.initial is None
        assert result.graphemes == ("", "", "a", "")

    def test_glide_with_lookahead(self):
        for word, graphemes in (("uyên", ("", "u", "yê", "n")), ("oan", ("", "o", "a", "n"))):
            result = parse_syllable(word)
            assert result.syllable.glide == "u̯"
            assert result.graphemes == graphemes

    def test_glide_context_blocks(self):
        # "ua" here is the /uo/ diphthong, not glide + a
        for word, vowel, graphemes in (("ua", "uo", ("", "", "ua", "")), ("oong", "ɔː", ("", "", "oo", "ng"))):
            result = parse_syllable(word)
            assert (result.syllable.glide, result.syllable.vowel) == (None, vowel)
            assert result.graphemes == graphemes

    def test_final_requires_exact_consumption(self):
        result = parse_syllable("oong")
        assert (result.syllable.final, result.graphemes[3]) == ("ŋ", "ng")
        with pytest.raises(ParseFailure) as exc:
            parse_syllable("oongz")
        assert exc.value.residue == "ngz"

    def test_vowel_longest_prefix(self):
        result = parse_syllable("tiêm")
        assert (result.syllable.vowel, result.syllable.final) == ("ie", "m")
        assert result.graphemes == ("t", "", "iê", "m")
        assert parse_syllable("oong").syllable.vowel == "ɔː"


class TestParseSyllable:
    def test_hoang(self):
        result = parse_syllable("hoàng")
        assert result.syllable == Syllable(
            initial="h", glide="u̯", vowel="a", final="ŋ", tone=Tone.LOW_FALLING
        )
        assert result.graphemes == ("h", "o", "a", "ng")

    def test_may_reads_a_as_short(self):
        s = parse_syllable("máy").syllable
        assert (s.vowel, s.final, s.tone) == ("ă", "i̯", Tone.MID_RAISING)

    def test_parse_failure(self):
        with pytest.raises(ParseFailure):
            parse_syllable("xyz")

    def test_failure_keeps_residue(self):
        with pytest.raises(ParseFailure) as exc:
            parse_syllable("hoangz")
        assert exc.value.residue == "ngz"

    def test_qu_is_initial_plus_glide(self):
        s = parse_syllable("quê").syllable
        assert (s.initial, s.glide, s.vowel) == ("k", "u̯", "e")

    def test_gi_bare(self):
        assert parse_syllable("gì").syllable == Syllable(
            initial="z", vowel="i", tone=Tone.LOW_FALLING
        )

    def test_gi_with_consonant_remainder(self):
        assert parse_syllable("gìn").syllable == Syllable(
            initial="z", vowel="i", final="n", tone=Tone.LOW_FALLING
        )

    def test_gi_with_vowel_remainder(self):
        assert parse_syllable("giếng").syllable == Syllable(
            initial="z", vowel="e", final="ŋ", tone=Tone.MID_RAISING
        )

    def test_zero_initial_words(self):
        assert parse_syllable("ăn").syllable == Syllable(vowel="ă", final="n")
        assert parse_syllable("yên").syllable == Syllable(vowel="ie", final="n")

    def test_empty_word_fails(self):
        with pytest.raises(ParseFailure):
            parse_syllable("")

    def test_digits_fail(self):
        with pytest.raises(ParseFailure):
            parse_syllable("ba3")


class TestTokenize:
    def test_two_words(self):
        assert len(tokenize("ba mẹ")) == 2

    def test_empty(self):
        assert tokenize("") == []

    def test_kien_thuc(self):
        first, second = tokenize("kiến thức")
        assert first == Syllable(initial="k", vowel="ie", final="n", tone=Tone.MID_RAISING)
        assert second == Syllable(initial="tʰ", vowel="ɯ", final="k", tone=Tone.MID_RAISING)

    def test_length_preserved(self, lexicon):
        text = " ".join(lexicon[:257])
        assert len(tokenize(text)) == 257

    def test_failure_carries_word_index(self):
        with pytest.raises(ParseFailure) as exc:
            tokenize("ba mẹ xyz ba")
        assert exc.value.index == 2

    def test_nfd_text_tokenizes_as_its_nfc(self, lexicon):
        text = " ".join(lexicon[::7])
        assert tokenize(unicodedata.normalize("NFD", text)) == tokenize(text)

    def test_nfd_closed_set_words_take_no_parse(self, lexicon):
        words = [unicodedata.normalize("NFD", word) for word in lexicon[::7]]
        assert sum(word not in closed_syllables() for word in words) > len(words) // 2
        with mock.patch.object(tokenizer, "parse_syllable", wraps=parse_syllable) as parsed:
            tokenize(" ".join(words))
            assert parsed.call_count == 0
            tokenize(unicodedata.normalize("NFD", "bát bàt"))  # "bàt" is outside the closed set
            assert parsed.call_count == 1 and parsed.call_args.args == (unicodedata.normalize("NFD", "bàt"),)

    def test_unparseable_nfd_word_is_named_as_given(self):
        word = unicodedata.normalize("NFD", "xyzế")
        assert word != unicodedata.normalize("NFC", word)
        with pytest.raises(ParseFailure) as exc:
            tokenize(f"ba mẹ {word} ba")
        assert exc.value.word == word and exc.value.index == 2


class TestRender:
    def test_que(self):
        s = Syllable(initial="k", glide="u̯", vowel="e")
        assert render_syllable(s) == "quê"

    def test_khuya(self):
        s = Syllable(initial="x", glide="u̯", vowel="ie")
        assert render_syllable(s) == "khuya"

    def test_roundtrip_chuyen(self):
        assert render_syllable(parse_syllable("chuyện").syllable) == "chuyện"

    def test_tone_mark_placement(self):
        # strong nucleus letter wins, else first nucleus letter; never the glide
        cases = {"lường": "lường", "của": "của", "chùa": "chùa", "hoà": "hoà",
                 "quý": "quý", "bìa": "bìa", "thuở": "thuở", "khuỵu": "khuỵu"}
        for word, expected in cases.items():
            assert render_syllable(parse_syllable(word).syllable) == expected

    def test_render_failure_on_bad_component(self):
        # no Syllable holds the bad component; a plain tuple is refused with Syllable's own error
        with pytest.raises(ValueError, match="^unknown initial: 'w'$"):
            render_syllable(("a", "w", None, None, Tone.FLAT))

    def test_output_composed(self):
        word = render_syllable(Syllable(initial="k", vowel="ie", final="m",
                                        tone=Tone.MID_GLOTTALIZED_RAISING))
        assert word == "kiệm" == unicodedata.normalize("NFC", word)

    def test_k_spellings(self):
        assert render_syllable(Syllable(initial="k", vowel="i", final="m")) == "kim"
        assert render_syllable(Syllable(initial="k", vowel="a", final="t",
                                        tone=Tone.MID_RAISING)) == "cát"
        assert render_syllable(Syllable(initial="k", glide="u̯", vowel="a", final="n")) == "quan"

    def test_gh_ngh_spellings(self):
        assert render_syllable(Syllable(initial="ɤ", vowel="i")) == "ghi"
        assert render_syllable(Syllable(initial="ɤ", vowel="a")) == "ga"
        assert render_syllable(Syllable(initial="ŋ", vowel="ɛ")) == "nghe"
        assert render_syllable(Syllable(initial="ŋ", vowel="a", final="ɲ")) == "nganh"


class TestDetokenize:
    def test_empty(self):
        assert detokenize([]) == ""

    def test_gieng_nuoc(self):
        assert detokenize(tokenize("giếng nước")) == "giếng nước"

    def test_bad_tuple_raises_the_construction_error(self):
        with pytest.raises(ValueError, match="^unknown initial: 'w'$"):
            detokenize([Syllable(vowel="a"), ("a", "w", None, None, Tone.FLAT)])


class TestRoundTrip:
    def test_full_lexicon_identity(self, lexicon):
        mismatches = [w for w in lexicon
                      if render_syllable(parse_syllable(w).syllable) != w]
        assert mismatches == []

    def test_shipped_lexicon_is_the_closed_set(self, lexicon):
        # tools/build_lexicon.py writes this enumeration; drift in the rule
        # code, the closed set or the committed file shows here
        assert lexicon == sorted(render_syllable(s) for s in iter_syllables())

    def test_injectivity(self, lexicon):
        seen = {}
        for word in lexicon:
            s = parse_syllable(word).syllable
            assert s not in seen, f"{word} and {seen[s]} collide on {s}"
            seen[s] = word

    def test_nfd_input_parses_identically(self, lexicon):
        for word in lexicon[::97]:
            decomposed = unicodedata.normalize("NFD", word)
            assert parse_syllable(decomposed).syllable == parse_syllable(word).syllable

    def test_validate_holds_on_lexicon(self, lexicon):
        # the bundled lexicon obeys the stop-final tone rule
        for word in lexicon[::53]:
            assert validate(parse_syllable(word).syllable) == []


class TestRuleTable:
    """The parser reads every row of the rule table, and each context tag has one predicate."""

    def test_every_row_is_read_by_some_closed_set_word(self):
        classes = (PhonemeClass.INITIAL, PhonemeClass.GLIDE, PhonemeClass.VOWEL, PhonemeClass.FINAL)
        read = set()
        for word in closed_syllables():
            result = parse_syllable(word)
            components = (result.syllable.initial, result.syllable.glide, result.syllable.vowel, result.syllable.final)
            read.update((cls, form, ipa) for cls, form, ipa in zip(classes, result.graphemes, components) if form)
        # a → ă (context before-final-y-or-u) included, read as in "tay" and "sau"
        assert read == {(r.phoneme_class, r.written_form, r.ipa) for r in RULES}

    def test_every_context_tag_has_one_predicate(self):
        assert set(tokenizer._CONTEXTS) == {r.context for r in RULES if r.context}


class TestClosedSyllables:
    def test_keys_are_the_shipped_lexicon(self, lexicon):
        assert sorted(closed_syllables()) == lexicon

    def test_no_two_syllables_share_a_written_form(self):
        assert len(closed_syllables()) == sum(1 for _ in iter_syllables())

    def test_every_entry_is_its_rule_parse(self):
        for word, syllable in closed_syllables().items():
            assert parse_syllable(word).syllable == syllable

    def test_every_component_form_tokenizes_as_by_rule(self, component_forms):
        with_table = [_tokenize_outcome(w) for w in component_forms]
        with mock.patch.object(tokenizer, "closed_syllables", dict):
            assert [_tokenize_outcome(w) for w in component_forms] == with_table

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_tokenize_matches_the_rule_path(self, candidate_words, data):
        text = " ".join(data.draw(st.lists(candidate_words, max_size=5)))
        with_table = _tokenize_outcome(text)
        with mock.patch.object(tokenizer, "closed_syllables", dict):
            assert _tokenize_outcome(text) == with_table


def _tokenize_outcome(text):
    """tokenize's Syllables, or its error's type, word index and message."""
    try:
        return tokenize(text)
    except TokenizeError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


#: every closed-set wire token, and every component a wire token may hold
WIRE_TOKENS = sorted(format_syllable(s) for s in iter_syllables())
WIRE_PARTS = sorted(INITIAL_IPAS | GLIDE_IPAS | VOWEL_IPAS | FINAL_IPAS | {"∅"}) + [t.label for t in Tone]


def _outcome(fn, *args):
    """fn's value, or its error's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # any error, so that the two paths must raise alike
        return type(exc), str(exc)


def _detokenize_by_rule(syllables):
    """detokenize without its closed-set lookup: render_syllable on every syllable."""
    return " ".join(render_syllable(s) for s in syllables)


def _parse_phonemes_by_rule(line):
    """parse_phonemes without its closed-set lookup: parse_syllable_token on every token."""
    return [parse_syllable_token(token) for token in line.split()]


class TestWireIndexes:
    def test_indexes_cover_the_closed_set(self):
        closed = closed_syllables()
        assert tokenizer._written_forms() == {s: word for word, s in closed.items()}
        assert sorted(tokenizer._syllables_by_token()) == WIRE_TOKENS
        assert set(tokenizer._syllables_by_token().values()) == set(closed.values())

    def test_every_component_tuple_reads_and_renders_as_by_rule(self, component_syllables):
        tokens = [format_syllable(s) for s in component_syllables]
        for s, token in zip(component_syllables, tokens):
            assert _outcome(parse_phonemes, token) == _outcome(_parse_phonemes_by_rule, token)
            assert _outcome(format_phonemes, [s]) == _outcome(format_syllable, s)
            assert _outcome(detokenize, [s]) == _outcome(_detokenize_by_rule, [s])
        # the lookups do answer: each closed-set token reads as the closed set's own Syllable
        closed = {s: s for s in closed_syllables().values()}
        assert sum(closed.get(s) is s for s in parse_phonemes(" ".join(tokens))) == len(closed)

    def test_wire_token_lookup_is_a_pure_cache(self, component_syllables):
        closed = set(closed_syllables().values())
        assert len(component_syllables) == 45_540 and closed <= set(component_syllables)
        assert set(tokenizer._wire_tokens()) == closed
        assert tokenizer._syllables_by_token() == {token: s for s, token in tokenizer._wire_tokens().items()}
        assert format_phonemes(component_syllables).split() == ["|".join(syllable_tokens(s))
                                                                for s in component_syllables]

    def test_closed_set_detokenizes_without_validate(self):
        ran = AssertionError("validate or render_syllable ran")
        with mock.patch.object(phonology, "validate", side_effect=ran), \
                mock.patch.object(tokenizer, "render_syllable", side_effect=ran):
            assert detokenize(closed_syllables().values()).split() == list(closed_syllables())

    def test_closed_set_lines_take_no_single_codec(self):
        closed = list(closed_syllables().values())
        ran = AssertionError("a single-syllable codec ran")
        with mock.patch.object(tokenizer, "format_syllable", side_effect=ran), \
                mock.patch.object(tokenizer, "parse_syllable_token", side_effect=ran):
            assert parse_phonemes(format_phonemes(closed)) == closed

    def test_rule_path_errors_are_kept(self):
        for token in ("b|a|Flat", "b|∅|a|∅|Level", "b|∅||∅|Flat", "b|∅|a|∅|Flat|", "w|∅|a|∅|Flat"):
            assert _outcome(parse_phonemes, token) == _outcome(_parse_phonemes_by_rule, token)
            assert _outcome(parse_syllable_token, token)[0] is ValueError
        assert _outcome(parse_phonemes, "w|∅|a|∅|Flat") == (ValueError, "unknown initial: 'w'")
        for bad, message in ((("a", "w", None, None, Tone.FLAT), "unknown initial: 'w'"),
                             (("a", None, None, None, "Flat"), "unknown tone: 'Flat'")):
            expected = (ValueError, message)
            assert _outcome(Syllable._make, bad) == expected
            assert _outcome(detokenize, [bad]) == _outcome(_detokenize_by_rule, [bad]) == expected
            assert _outcome(render_syllable, bad) == _outcome(format_syllable, bad) == expected

    def test_an_unhashable_field_fails_the_batch_lookups(self):
        # no Syllable holds one; on a plain tuple the single codecs raise Syllable's ValueError, while the
        # batch codecs' lookups raise TypeError first
        bad = ("a", None, None, ["k"], Tone.FLAT)
        assert _outcome(render_syllable, bad) == _outcome(format_syllable, bad) == (ValueError, "unknown final: ['k']")
        unhashable = (TypeError, "unhashable type: 'list'")
        assert _outcome(detokenize, [bad]) == unhashable
        assert _outcome(format_phonemes, [bad]) == unhashable
        assert _outcome(parse_syllable_token, ["a"])[0] is AttributeError

    def test_no_wire_token_reads_back_as_another_syllable(self):
        # a field outside the rule table never reaches format_syllable, which wrote its str into the token
        for fields in ({"final": ["k"]}, {"final": "w"}):
            with pytest.raises(ValueError, match="^unknown final: "):
                Syllable(vowel="a", **fields)
        with pytest.raises(ValueError, match=r"""^unknown final: "\['k'\]"$"""):
            parse_syllable_token("∅|∅|a|['k']|Flat")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(WIRE_PARTS), st.sampled_from(WIRE_TOKENS), st.text(max_size=2)),
                    min_size=1, max_size=6).map("|".join))
    def test_random_tokens_read_as_by_rule(self, token):
        assert _outcome(parse_phonemes, token) == _outcome(_parse_phonemes_by_rule, token)


class TestLinearCost:
    def test_comparisons_bounded(self, lexicon):
        stats = ParseStats()
        for word in lexicon:
            parse_syllable(word, stats)
        assert 0 < stats.per_word_max <= MAX_RULE_COMPARISONS

    def test_bound_independent_of_corpus_size(self, lexicon):
        small, large = ParseStats(), ParseStats()
        for word in lexicon[:100]:
            parse_syllable(word, small)
        for word in lexicon:
            parse_syllable(word, large)
        assert large.per_word_max <= MAX_RULE_COMPARISONS
        assert large.per_word_max <= small.per_word_max + 5  # same order, not corpus-scaled


class TestSerialization:
    def test_hoang_format(self):
        assert format_phonemes(tokenize("hoàng")) == "h|u̯|a|ŋ|LowFalling"

    def test_absent_marker(self):
        assert format_syllable(Syllable(vowel="a")) == "∅|∅|a|∅|Flat"

    def test_roundtrip(self, lexicon):
        for word in lexicon[::211]:
            syllables = tokenize(word)
            assert parse_phonemes(format_phonemes(syllables)) == syllables

    def test_malformed_token(self):
        with pytest.raises(ValueError):
            parse_phonemes("b|a|Flat")


@st.composite
def lexicon_words(draw):
    from vietphon.lexicon import load_lexicon

    words = load_lexicon()
    return draw(st.sampled_from(words))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(lexicon_words())
    def test_roundtrip_property(self, word):
        assert render_syllable(parse_syllable(word).syllable) == word

    @settings(max_examples=200, deadline=None)
    @given(lexicon_words())
    def test_base_letters_carry_no_tone_marks(self, word):
        from vietphon.phonology import TONE_BY_MARK

        base = strip_tone(word).base_letters
        for ch in unicodedata.normalize("NFD", base):
            assert ch not in TONE_BY_MARK

    @settings(max_examples=100, deadline=None)
    @given(lexicon_words(), st.sampled_from(list(Tone)))
    def test_retoned_syllables_still_roundtrip(self, word, tone):
        from vietphon.phonology import STOP_FINALS, STOP_TONES

        s = parse_syllable(word).syllable
        if s.final in STOP_FINALS and tone not in STOP_TONES:
            return
        retoned = s._replace(tone=tone)
        assert parse_syllable(render_syllable(retoned)).syllable == retoned

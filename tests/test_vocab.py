import itertools
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietphon import phonology, tokenizer
from vietphon import vocab as vocab_module
from vietphon.cli import main
from vietphon.lexicon import iter_syllables
from vietphon.phonology import RHYMES, Syllable, Tone
from vietphon.tokenizer import (
    closed_syllables,
    format_syllable,
    parse_syllable,
    render_syllable,
    syllable_from_tokens,
    syllable_tokens,
)
from vietphon.vocab import (
    CONTROL_TOKENS,
    DESIGN_COUNTS,
    IdOutOfRange,
    UnknownComponent,
    Vocabulary,
    build_vocab,
    rhyme_token,
    vocab_report,
)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def vocab(lexicon):
    return build_vocab(lexicon)


class TestSpaces:
    def test_tone_space_is_six(self, vocab):
        assert vocab_report(vocab)["computed"]["tones"] == 6

    def test_initial_space_is_22_plus_empty(self, vocab):
        assert vocab_report(vocab)["computed"]["initials_with_empty"] == 23
        assert "∅" in vocab.initial_tokens

    def test_control_tokens_per_space(self, vocab):
        for tokens in (vocab.initial_tokens, vocab.rhyme_tokens, vocab.tone_tokens):
            assert tokens[:3] == CONTROL_TOKENS

    def test_rhyme_tokens_decompose_uniquely(self, vocab):
        n = len(CONTROL_TOKENS)
        for rhyme_id in range(n, len(vocab.rhyme_tokens)):
            syllable = vocab.decode((n, rhyme_id, n))
            assert rhyme_token(*syllable.rhyme) == vocab.rhyme_tokens[rhyme_id]

    def test_encode_picks_the_wire_tokens(self, vocab):
        # format_syllable and encode share one component-token function
        for s in closed_syllables().values():
            i, r, t = vocab.encode(s)
            tokens = (vocab.initial_tokens[i], vocab.rhyme_tokens[r], vocab.tone_tokens[t])
            assert "|".join(tokens) == format_syllable(s)

    def test_observed_rhymes_match_closed_table(self, vocab):
        closed = {rhyme_token(g, v, f) for g, v, f in RHYMES}
        content = {t for t in vocab.rhyme_tokens if t not in CONTROL_TOKENS}
        assert content == closed

    def test_custom_lexicon_adds_only_its_rhymes(self):
        base = build_vocab(None)
        custom = build_vocab(["ưm", "ba"])
        assert set(custom.rhyme_tokens) == set(base.rhyme_tokens) | {"∅|ɯ|m"}
        assert "∅|ɯ|m" not in base.rhyme_tokens
        assert custom.initial_tokens == base.initial_tokens

    def test_bundled_lexicon_adds_nothing(self, vocab):
        assert vocab == build_vocab(None)


class TestCoding:
    def test_encode_ba(self, vocab):
        ids = vocab.encode(parse_syllable("ba").syllable)
        assert ids == (
            vocab.initial_tokens.index("b"),
            vocab.rhyme_tokens.index("∅|a|∅"),
            vocab.tone_tokens.index("Flat"),
        )

    def test_decode_encode_identity_on_lexicon(self, vocab, lexicon):
        for word in lexicon:
            s = parse_syllable(word).syllable
            assert vocab.decode(vocab.encode(s)) == s

    def test_encode_decode_identity_on_all_valid_triples(self, vocab):
        n = len(CONTROL_TOKENS)
        for i in range(n, len(vocab.initial_tokens)):
            ids = (i, n, n + 1)
            assert vocab.encode(vocab.decode(ids)) == ids
        for r in range(n, len(vocab.rhyme_tokens)):
            ids = (n, r, n)
            assert vocab.encode(vocab.decode(ids)) == ids
        for t in range(n, len(vocab.tone_tokens)):
            ids = (n + 1, n, t)
            assert vocab.encode(vocab.decode(ids)) == ids

    def test_unknown_component(self, vocab):
        # structurally well-formed syllable whose rhyme is outside the table
        with pytest.raises(UnknownComponent):
            vocab.encode(Syllable(vowel="ɔː", final="m", tone=Tone.FLAT))

    def test_id_out_of_range(self, vocab):
        with pytest.raises(IdOutOfRange):
            vocab.decode((0, len(vocab.rhyme_tokens), 0))
        with pytest.raises(IdOutOfRange):
            vocab.decode((-1, 3, 3))

    def test_control_ids_do_not_decode(self, vocab):
        with pytest.raises(UnknownComponent):
            vocab.decode((0, 3, 3))


def _outcome(fn, *args):
    """fn's value, or its error's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # any error, so that the two paths must raise alike
        return type(exc), str(exc)


def _rule_path():
    """decode with an empty lookup: every triple splits its rhyme token by the rules alone."""
    return mock.patch.object(Vocabulary, "_syllables_by_ids", property(lambda self: {}))


def _every_id_triple(vocab):
    """Every id triple of a vocabulary, control and out-of-range ids included: -1 and each space's size."""
    return list(itertools.product(*(range(-1, len(tokens) + 1) for _, tokens in vocab.spaces)))


def _hits(outcomes):
    """The outcomes that are the very Syllable objects held in closed_syllables()."""
    closed = {s: s for s in closed_syllables().values()}
    return [o for o in outcomes if isinstance(o, Syllable) and closed.get(o) is o]


#: the closed-set wire tokens
WIRE_TOKENS = sorted(format_syllable(s) for s in iter_syllables())


@st.composite
def cut_tokens(draw):
    """Three tokens whose "|"-join is a closed-set wire token, cut at any two of its separators."""
    parts = draw(st.sampled_from(WIRE_TOKENS)).split("|")
    i, j = sorted(draw(st.lists(st.integers(0, 5), min_size=2, max_size=2)))
    return "|".join(parts[:i]), "|".join(parts[i:j]), "|".join(parts[j:])


class TestClosedSetLookup:
    def test_lookup_keeps_token_boundaries(self):
        # "b|∅" + "a|∅" + "Flat" joins to the wire token of "ba"; by the rules
        # the two-part rhyme token does not unpack
        glued = Vocabulary(CONTROL_TOKENS + ("b|∅",), CONTROL_TOKENS + ("a|∅",), CONTROL_TOKENS + ("Flat",))
        with pytest.raises(ValueError, match="not enough values to unpack"):
            glued.decode((3, 3, 3))

    def test_every_id_triple_decodes_as_by_rule(self, vocab):
        triples = _every_id_triple(vocab)
        with_table = [_outcome(vocab.decode, ids) for ids in triples]
        assert len(_hits(with_table)) == len(WIRE_TOKENS)  # each closed-set triple is a hit
        with _rule_path():
            assert [_outcome(vocab.decode, ids) for ids in triples] == with_table

    def test_missing_rhyme_token_decodes_the_rest_as_by_rule(self, vocab):
        dropped = "∅|a|∅"
        partial = Vocabulary(vocab.initial_tokens, tuple(t for t in vocab.rhyme_tokens if t != dropped),
                             vocab.tone_tokens)
        triples = _every_id_triple(partial)
        with_table = [_outcome(partial.decode, ids) for ids in triples]
        hits = _hits(with_table)
        assert len(hits) == sum(rhyme_token(*s.rhyme) != dropped for s in closed_syllables().values())
        assert all(rhyme_token(*s.rhyme) != dropped for s in hits)
        with _rule_path():
            assert [_outcome(partial.decode, ids) for ids in triples] == with_table

    def test_first_decode_calls_no_counted_function(self, vocab):
        ba = closed_syllables()["ba"]
        ids = vocab.encode(ba)
        fresh = Vocabulary(vocab.initial_tokens, vocab.rhyme_tokens, vocab.tone_tokens)
        counted = AssertionError("a counted function ran")
        with mock.patch.object(Vocabulary, "encode", side_effect=counted), \
                mock.patch.object(vocab_module, "parse_syllable", side_effect=counted), \
                mock.patch.object(tokenizer, "parse_syllable", side_effect=counted), \
                mock.patch.object(tokenizer, "render_syllable", side_effect=counted), \
                mock.patch.object(phonology, "validate", side_effect=counted):
            assert fresh.decode(ids) is ba

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(cut_tokens(), st.tuples(*[st.text(max_size=4)] * 3)))
    def test_any_three_tokens_decode_as_by_rule(self, tokens):
        vocab = Vocabulary(*(CONTROL_TOKENS + (token,) for token in tokens))
        ids = (len(CONTROL_TOKENS),) * 3
        with_table = _outcome(vocab.decode, ids)
        with _rule_path():
            assert _outcome(vocab.decode, ids) == with_table


def _reference_decode(vocab, ids):
    """decode with every range check ahead of the closed-set lookup: the error contract's oracle."""
    init_id, rhyme_id, tone_id = ids
    spaces = (
        ("initial", init_id, vocab.initial_tokens),
        ("rhyme", rhyme_id, vocab.rhyme_tokens),
        ("tone", tone_id, vocab.tone_tokens),
    )
    for space, token_id, tokens in spaces:
        if not 0 <= token_id < len(tokens):
            raise IdOutOfRange(space, token_id, len(tokens))
    syllable = vocab._syllables_by_ids.get((init_id, rhyme_id, tone_id))
    if syllable is not None:
        return syllable
    for space, token_id, tokens in spaces:
        if tokens[token_id] in CONTROL_TOKENS:
            raise UnknownComponent(space, tokens[token_id])
    glide, vowel, final = vocab.rhyme_tokens[rhyme_id].split("|")
    return syllable_from_tokens(vocab.initial_tokens[init_id], glide, vowel, final, vocab.tone_tokens[tone_id])


class TestSyllableIds:
    def test_encode_is_the_three_lookups(self, vocab, component_syllables):
        def lookup(space, ids, token):
            try:
                return ids[token]
            except KeyError:
                raise UnknownComponent(space, token) from None

        initial_ids, rhyme_ids, tone_ids = vocab._token_ids

        def by_rule(s):
            initial, rhyme, tone = syllable_tokens(s)
            return (lookup("initial", initial_ids, initial),
                    lookup("rhyme", rhyme_ids, rhyme),
                    lookup("tone", tone_ids, tone))

        outcomes = [(_outcome(vocab.encode, s), _outcome(by_rule, s)) for s in component_syllables]
        assert all(got == want for got, want in outcomes)
        raised = [want[0] for _, want in outcomes if isinstance(want[0], type)]
        assert set(raised) == {UnknownComponent} and 0 < len(raised) < len(outcomes)

    def test_decode_returns_the_closed_set_syllable_itself(self, vocab):
        for s in closed_syllables().values():
            assert vocab.decode(vocab.encode(s)) is s

    def test_decode_takes_any_integer_triple(self, vocab):
        ba = closed_syllables()["ba"]
        ids = vocab.encode(ba)
        argmaxes = tuple(np.argmax(np.eye(len(tokens))[i]) for (_, tokens), i in zip(vocab.spaces, ids))
        assert all(isinstance(i, np.integer) for i in argmaxes)
        assert vocab.decode(argmaxes) is ba
        by_rule = vocab.decode(list(ids))  # unhashable: the rule path
        assert by_rule == ba and by_rule is not ba
        for wrong_length in (ids[:2], ids + (3,)):
            with pytest.raises(ValueError):
                vocab.decode(wrong_length)

    def test_plain_tuples_take_the_syllables_path(self, vocab, component_syllables):
        # a Syllable equals and hashes as its plain tuple, so the lookups take both alike; so must the rules
        for fn in (render_syllable, format_syllable, vocab.encode):
            by_syllable = [_outcome(fn, s) for s in component_syllables]
            assert [_outcome(fn, tuple(s)) for s in component_syllables] == by_syllable

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_decode_keeps_the_error_contract(self, vocab, data):
        ids = data.draw(st.tuples(*(st.integers(-2, len(tokens) + 1) for _, tokens in vocab.spaces)))
        got, want = _outcome(vocab.decode, ids), _outcome(_reference_decode, vocab, ids)
        assert got == want and type(got) is type(want)


class TestDeterminism:
    def test_stable_ids_across_builds(self, lexicon):
        first = build_vocab(lexicon)
        second = build_vocab(list(reversed(lexicon)))
        assert first == second

    def test_save_load_bit_exact(self, tmp_path, capsys):
        # the bundled lexicon's table, pinned byte for byte: written, rewritten and piped
        golden = (DATA / "cli" / "vocab_bundled" / "vocab.tsv").read_bytes()
        path = tmp_path / "vocab.tsv"
        assert main(["vocab", "-o", str(path)]) == 0
        assert path.read_bytes() == golden
        assert main(["vocab", "-o", str(path)]) == 0
        assert path.read_bytes() == golden
        capsys.readouterr()
        assert main(["vocab", "-o", "-"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden


class TestReport:
    def test_report_contents(self, vocab):
        report = vocab_report(vocab)
        assert report["computed"]["tones"] == 6
        assert report["computed"]["initials"] == 22
        assert report["computed"]["initials_with_empty"] == 23
        assert report["computed"]["rhymes"] == len(RHYMES)
        assert report["design"] == DESIGN_COUNTS
        assert any("173" in note for note in report["notes"])

    def test_design_counts_disagreement_documented(self):
        total = sum(DESIGN_COUNTS[k] for k in ("initials", "rhymes", "tones"))
        assert total == 173 != DESIGN_COUNTS["total"]

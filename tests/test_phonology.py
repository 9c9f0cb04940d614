import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vietphon.phonology import (
    FINAL_IPAS,
    GLIDE_IPAS,
    INITIAL_IPAS,
    VOWEL_IPAS,
    GraphemeRule,
    PhonemeClass,
    RHYMES,
    Syllable,
    Tone,
    TONE_BY_MARK,
    inventory,
    rules_text,
    validate,
)


class TestTone:
    def test_six_values(self):
        assert len(Tone) == 6

    def test_flat_has_no_mark(self):
        assert Tone.FLAT.mark == ""

    def test_mark_bijection_over_marked_tones(self):
        marked = [t for t in Tone if t.mark]
        assert len(marked) == 5
        assert len(TONE_BY_MARK) == 5
        for tone in marked:
            assert TONE_BY_MARK[tone.mark] is tone

    def test_expected_marks(self):
        assert Tone.LOW_FALLING.mark == "̀"
        assert Tone.MID_RAISING.mark == "́"
        assert Tone.MID_FALLING.mark == "̉"
        assert Tone.MID_GLOTTALIZED_FALLING.mark == "̃"
        assert Tone.MID_GLOTTALIZED_RAISING.mark == "̣"

    def test_from_label_roundtrip(self):
        for tone in Tone:
            assert Tone.from_label(tone.label) is tone
        with pytest.raises(ValueError):
            Tone.from_label("Rising")


def _table_rows(phoneme_class):
    """The shipped TSV rows of one class, as column -> value dicts (kind and tag included)."""
    columns = ("class", "kind", "written_form", "ipa", "context", "tag", "note")
    rows = [dict(zip(columns, line.split("\t"))) for line in rules_text().splitlines()
            if line and not line.startswith("#")]
    return [row for row in rows if row["class"] == phoneme_class.value]


class TestInventories:
    def test_inventory_counts(self):
        # written-form and phoneme counts per class
        def forms(rules):
            return {r.written_form for r in rules}

        def phonemes(rules):
            return {r.ipa for r in rules}

        initials = inventory(PhonemeClass.INITIAL)
        assert len(forms(initials)) == 26
        assert len(phonemes(initials)) == 22
        glides = inventory(PhonemeClass.GLIDE)
        assert forms(glides) == {"u", "o"}
        assert phonemes(glides) == {"u̯"}
        vowels = _table_rows(PhonemeClass.VOWEL)
        diphthongs = [row for row in vowels if row["kind"] == "diphthong"]
        assert len({row["written_form"] for row in diphthongs}) == 8
        assert len({row["ipa"] for row in diphthongs}) == 3
        monophthongs = [row for row in vowels if row["kind"] == "monophthong"]
        assert len({row["written_form"] for row in monophthongs}) == 13
        assert len({row["ipa"] for row in monophthongs}) == 12
        assert len(monophthongs) + len(diphthongs) == len(inventory(PhonemeClass.VOWEL))
        finals = inventory(PhonemeClass.FINAL)
        assert len(forms(finals)) == 12
        assert len(phonemes(finals)) == 10

    def test_sorted_longest_first(self):
        for cls in PhonemeClass:
            lengths = [len(r.written_form) for r in inventory(cls)]
            assert lengths == sorted(lengths, reverse=True)

    def test_glide_has_two_rules(self):
        rules = inventory(PhonemeClass.GLIDE)
        assert [(r.written_form, r.ipa) for r in rules] == [("o", "u̯"), ("u", "u̯")]

    def test_context_row_precedes_plain_row(self):
        # a matcher tries the rows of one written form in inventory order
        for cls in PhonemeClass:
            rules = inventory(cls)
            for i, rule in enumerate(rules):
                later = [r for r in rules[i + 1:] if r.written_form == rule.written_form]
                assert rule.context or not any(r.context for r in later), rule

    def test_no_duplicate_form_context_pairs(self):
        for cls in PhonemeClass:
            seen = [(r.written_form, r.context) for r in inventory(cls)]
            assert len(seen) == len(set(seen))

    def test_forms_carry_no_tone_marks_or_combining_chars(self):
        import unicodedata

        for rule in inventory(PhonemeClass.INITIAL) + inventory(PhonemeClass.VOWEL):
            decomposed = unicodedata.normalize("NFD", rule.written_form)
            for ch in decomposed:
                assert not unicodedata.combining(ch) or ch in "̛̆̂", rule
                assert ch not in TONE_BY_MARK, rule

    def test_added_initials_are_flagged(self):
        extensions = [row for row in _table_rows(PhonemeClass.INITIAL) if row["tag"] == "ext"]
        assert [row["written_form"] for row in extensions] == ["h"]

    def test_rules_text_is_versioned(self):
        assert "# version: 1" in rules_text()


#: each field's rule-table set; None is in the sets of the three optional components
FIELD_SETS = {"vowel": VOWEL_IPAS, "initial": INITIAL_IPAS | {None}, "glide": GLIDE_IPAS | {None},
              "final": FINAL_IPAS | {None}, "tone": frozenset(Tone)}
#: values from every set, so that a field also draws the other fields' members
_ANY_VALUE = st.one_of(
    *(st.sampled_from(sorted(ipas - {None})) for name, ipas in FIELD_SETS.items() if name != "tone"),
    st.sampled_from(list(Tone)), st.sampled_from([t.label for t in Tone]), st.none(), st.text(max_size=2),
    st.just(["k"]),
)
#: per field: mostly its own set's members, else any value
FIELD_VALUES = {name: st.one_of(st.sampled_from(sorted(values, key=repr)), _ANY_VALUE)
                for name, values in FIELD_SETS.items()}


def _in_table(name, value):
    try:
        return value in FIELD_SETS[name]
    except TypeError:  # unhashable
        return False


class TestSyllable:
    def test_construction_without_vowel_rejected(self):
        with pytest.raises(ValueError, match="nucleus"):
            Syllable(vowel="", initial="b")
        with pytest.raises(ValueError, match="nucleus"):
            Syllable(vowel=None)
        with pytest.raises(ValueError, match="nucleus"):
            Syllable(vowel="a")._replace(vowel="")

    def test_equals_and_hashes_as_its_plain_tuple(self, component_syllables):
        for s in component_syllables:
            plain = (s.vowel, s.initial, s.glide, s.final, s.tone)
            assert s == plain and hash(s) == hash(plain)

    def test_valid_kiem(self):
        s = Syllable(initial="k", vowel="ie", final="m", tone=Tone.MID_GLOTTALIZED_RAISING)
        assert validate(s) == []

    def test_stop_final_tone_strict_only(self):
        s = Syllable(vowel="a", final="p", tone=Tone.LOW_FALLING)
        problems = validate(s)
        assert len(problems) == 1 and "stop-final tone" in problems[0]

    def test_stop_final_allowed_tones(self):
        for tone in (Tone.MID_RAISING, Tone.MID_GLOTTALIZED_RAISING):
            assert validate(Syllable(vowel="a", final="t", tone=tone)) == []

    def test_unknown_components_named(self):
        with pytest.raises(ValueError, match="^unknown initial: 'w'; unknown tone: 'Flat'$"):
            Syllable(vowel="a", initial="w", tone="Flat")

    @pytest.mark.parametrize("component", ["vowel", "glide", "final"])
    def test_each_unknown_component_is_named(self, component):
        with pytest.raises(ValueError, match=f"^unknown {component}: 'w'$"):
            Syllable(**{"vowel": "a", component: "w"})

    @settings(max_examples=500, deadline=None)
    @given(fields=st.fixed_dictionaries(FIELD_VALUES))
    @example(fields={"vowel": "u̯", "initial": "b", "glide": "; ", "final": "u̯", "tone": "u̯"})
    def test_construction_checks_each_field_against_the_rule_table(self, fields):
        bad = [name for name in Syllable._fields if not _in_table(name, fields[name])]  # in message order
        for build in (lambda: Syllable(**fields), lambda: Syllable(vowel="a")._replace(**fields)):
            if not bad:
                assert build() == tuple(fields[name] for name in Syllable._fields)
                continue
            with pytest.raises(ValueError) as raised:
                build()
            # a drawn text field may itself hold "; ", so the whole message is compared
            assert str(raised.value) == "; ".join(
                "missing nucleus: a syllable requires a vowel" if name == "vowel" and not fields["vowel"]
                else f"unknown {name}: {fields[name]!r}" for name in bad)



class TestRhymeTable:
    def test_unique_triples(self):
        assert len(RHYMES) == len(set(RHYMES))

    def test_all_components_known(self):
        from vietphon.phonology import FINAL_IPAS, GLIDE_IPAS, VOWEL_IPAS

        for glide, vowel, final in RHYMES:
            assert glide is None or glide in GLIDE_IPAS
            assert vowel in VOWEL_IPAS
            assert final is None or final in FINAL_IPAS

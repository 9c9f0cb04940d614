import json
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietphon import cli, corpus, tokenizer
from vietphon.corpus import (
    MalformedManifestLine,
    clean_words,
    filter_manifest,
    is_vietnamese_word,
    load_manifest,
    offending_words,
)

MANIFEST = pathlib.Path(__file__).parent / "data" / "cli" / "in" / "manifest.jsonl"


class TestCleanWords:
    def test_strips_punctuation(self):
        assert clean_words("Kiệm,") == ["kiệm"]

    def test_casefolds(self):
        assert clean_words("BA") == ["ba"]

    def test_hyphen_splits(self):
        assert clean_words("đậm-đà") == ["đậm", "đà"]

    def test_composes(self):
        import unicodedata

        decomposed = unicodedata.normalize("NFD", "kiệm")
        assert clean_words(decomposed) == ["kiệm"]

    def test_drops_empty(self):
        assert clean_words("...") == []


class TestIsVietnamese:
    def test_que(self):
        assert is_vietnamese_word("quê")

    def test_hello(self):
        assert not is_vietnamese_word("hello")

    def test_digits(self):
        assert not is_vietnamese_word("ba3")
        assert not is_vietnamese_word("3")

    def test_double_tone_mark(self):
        assert not is_vietnamese_word("bàá")

    def test_pseudo_parse_rejected_by_roundtrip(self):
        # parses as (k, ɛ) but the canonical spelling is "ke"
        assert not is_vietnamese_word("ce")

    def test_whole_lexicon(self, lexicon):
        assert all(is_vietnamese_word(w) for w in lexicon)

    def test_every_component_form_gets_the_rule_path_verdict(self, component_forms):
        verdicts = [is_vietnamese_word(w) for w in component_forms]
        with mock.patch.object(corpus, "closed_syllables", dict):
            assert [is_vietnamese_word(w) for w in component_forms] == verdicts

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_table_hit_gives_the_rule_path_verdict(self, candidate_words, data):
        word = data.draw(candidate_words)
        verdict = is_vietnamese_word(word)
        with mock.patch.object(corpus, "closed_syllables", dict):
            assert is_vietnamese_word(word) == verdict


class TestLaxWordsBuildNoRenderIndex:
    """A word outside the closed set renders by rule: no path builds detokenize's written-form index."""

    @pytest.fixture(autouse=True)
    def unbuilt_index(self):
        tokenizer._written_forms.cache_clear()

    @staticmethod
    def built():
        return tokenizer._written_forms.cache_info().currsize != 0

    def test_filter_manifest(self):
        line = json.dumps({"id": "u1", "transcript": "bat ba", "split": "train"})
        kept, discarded, _ = filter_manifest(load_manifest([line]))
        assert len(kept) == 1 and not discarded
        assert not self.built()

    def test_is_vietnamese_word(self):
        assert is_vietnamese_word("bat")
        assert not self.built()

    def test_roundtrip(self, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("bat\nba\n", "utf-8")
        assert cli.main(["roundtrip", str(words)]) == 0
        assert capsys.readouterr().out == "2 words, 0 mismatches\n"
        assert not self.built()


class TestManifest:
    def _lines(self, transcripts, split="train"):
        return [
            json.dumps({"id": f"utt{i}", "transcript": t, "split": split}, ensure_ascii=False)
            for i, t in enumerate(transcripts)
        ]

    def test_load_keeps_extras(self):
        line = json.dumps({"id": "u1", "transcript": "ba mẹ", "split": "dev",
                           "audio": "u1.wav", "duration": 2.5})
        record = load_manifest([line])[0]
        assert record.extras == {"audio": "u1.wav", "duration": 2.5}
        assert json.loads(record.to_json())["audio"] == "u1.wav"

    def test_malformed_line_number(self):
        with pytest.raises(MalformedManifestLine) as exc:
            load_manifest(['{"id": "a", "transcript": "ba"}', "{broken"])
        assert exc.value.line_number == 2

    def test_missing_field(self):
        with pytest.raises(MalformedManifestLine):
            load_manifest(['{"id": "a"}'])

    @pytest.mark.parametrize("record, name", [
        ({"id": 1, "transcript": "ba"}, "id"),
        ({"id": "a", "transcript": ["ba"]}, "transcript"),
        ({"id": "a", "transcript": None}, "transcript"),
        ({"id": "a", "transcript": "ba", "split": None}, "split"),
        ({"id": "a", "transcript": "ba", "split": 2}, "split"),
    ])
    def test_mistyped_field_is_named(self, record, name):
        with pytest.raises(MalformedManifestLine, match=f"'{name}'") as exc:
            load_manifest(['{"id": "a", "transcript": "ba"}', json.dumps(record)])
        assert exc.value.line_number == 2

    def test_string_fields_written_back_as_read(self):
        line = json.dumps({"id": "1", "transcript": "ba mẹ", "split": "dev"}, ensure_ascii=False)
        assert load_manifest([line])[0].to_json() == line

    def test_empty_split_kept_apart_from_absent(self):
        lines = ['{"id": "a", "transcript": "ba", "split": ""}', '{"id": "b", "transcript": "ba"}']
        records = load_manifest(lines)
        assert [record.to_json() for record in records] == lines
        _, _, stats = filter_manifest(records)
        assert stats["splits"] == {"(unsplit)": {"total": 2, "flagged": 0, "percent": 0.0}}

    def test_all_vietnamese_discards_nothing(self, lexicon):
        records = load_manifest(self._lines([" ".join(lexicon[:5])] * 4))
        kept, discarded, stats = filter_manifest(records)
        assert len(kept) == 4 and not discarded
        assert stats["overall"]["percent"] == 0.0

    def test_one_in_ten_contaminated(self):
        transcripts = ["ba mẹ ăn cơm"] * 9 + ["ba mẹ okay"]
        kept, discarded, stats = filter_manifest(load_manifest(self._lines(transcripts)))
        assert len(kept) == 9 and len(discarded) == 1
        assert stats["overall"]["percent"] == pytest.approx(10.0)
        assert discarded[0].offending == ["okay"]

    def test_discarded_iff_offending_nonempty(self):
        # clean, foreign and lax-only ("bat": level tone on a stop final, outside the lexicon)
        records = load_manifest(self._lines(["ba mẹ", "ba xyz", "bat but boach"]))
        kept, discarded, _ = filter_manifest(records)
        assert [r.utterance_id for r in kept] == ["utt0", "utt2"]
        assert all(not r.offending for r in kept)
        assert all(r.offending for r in discarded)
        for record in records:
            assert ("non_vietnamese_words" in json.loads(record.to_json())) == (record in discarded)

    def test_stale_offending_list_is_not_copied_through(self):
        line = '{"id": "u1", "transcript": "ba mẹ", "split": "train", "non_vietnamese_words": ["okay"]}'
        kept, discarded, stats = filter_manifest(load_manifest([line]))
        assert len(kept) == 1 and not discarded and stats["overall"]["flagged"] == 0
        assert json.loads(kept[0].to_json()) == {"id": "u1", "transcript": "ba mẹ", "split": "train"}

    def test_still_foreign_record_gets_its_new_list_last(self):
        line = '{"id": "u2", "transcript": "ba okay", "non_vietnamese_words": ["old"], "audio": "a.wav"}'
        _, (record,), _ = filter_manifest(load_manifest([line]))
        assert record.to_json() == (
            '{"id": "u2", "transcript": "ba okay", "audio": "a.wav", "non_vietnamese_words": ["okay"]}'
        )

    def test_idempotent(self):
        transcripts = ["ba mẹ"] * 7 + ["hello ba", "ba 123", "đi chơi"]
        kept, _, _ = filter_manifest(load_manifest(self._lines(transcripts)))
        kept_again, discarded_again, stats = filter_manifest(kept)
        assert kept_again == kept and not discarded_again
        assert stats["overall"]["flagged"] == 0

    def test_per_split_stats(self):
        lines = (
            self._lines(["ba", "hello"], split="train")
            + self._lines(["ba mẹ"], split="dev")
            + self._lines(["ba", "ba", "okay ba"], split="test")
        )
        _, _, table = filter_manifest(load_manifest(lines))
        assert table["splits"]["train"] == {"total": 2, "flagged": 1, "percent": 50.0}
        assert table["splits"]["dev"]["flagged"] == 0
        assert table["splits"]["test"]["percent"] == pytest.approx(100 / 3)
        assert table["overall"] == {"total": 6, "flagged": 2, "percent": pytest.approx(100 / 3)}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([None, "", "train", "dev", "test"]), st.booleans()), min_size=1))
    def test_split_rows_add_up_to_the_overall_row(self, drawn):
        """Each record is (split, foreign); a None split is absent from its manifest line."""
        transcripts = {False: "ba mẹ ăn cơm", True: "ba mẹ okay"}
        lines = [json.dumps({"id": f"u{i}", "transcript": transcripts[foreign]}
                            | ({} if split is None else {"split": split}), ensure_ascii=False)
                 for i, (split, foreign) in enumerate(drawn)]
        _, _, stats = filter_manifest(load_manifest(lines))
        keys = ["(unsplit)" if split in (None, "") else split for split, _ in drawn]
        rows = stats["splits"]
        assert list(rows) == sorted(set(keys))
        for name, row in rows.items():
            assert row["total"] == keys.count(name)
            assert row["flagged"] == sum(foreign for key, (_, foreign) in zip(keys, drawn) if key == name)
        overall = stats["overall"]
        assert overall["total"] == sum(row["total"] for row in rows.values())
        assert overall["flagged"] == sum(row["flagged"] for row in rows.values())
        for row in (*rows.values(), overall):
            assert row["percent"] == 100.0 * row["flagged"] / row["total"]

    def test_overall_is_record_weighted_aggregate(self):
        lines = self._lines(["ba"] * 3 + ["zz"], split="train") + self._lines(["zz"], split="test")
        _, _, stats = filter_manifest(load_manifest(lines))
        total = sum(row["total"] for row in stats["splits"].values())
        flagged = sum(row["flagged"] for row in stats["splits"].values())
        assert stats["overall"]["total"] == total
        assert stats["overall"]["flagged"] == flagged
        assert stats["overall"]["percent"] == 100.0 * flagged / total

    def test_cli_prints_the_stats_filter_manifest_returns(self, capsys):
        _, _, stats = filter_manifest(load_manifest(MANIFEST.read_text("utf-8").splitlines()))
        assert cli.main(["filter", str(MANIFEST)]) == 0
        assert json.loads(capsys.readouterr().out) == stats
        assert cli.main(["filter", str(MANIFEST), "--expected-stats", "vivos"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("reference")["dataset"] == "vivos"
        assert printed == stats

    def test_verdict_order_independent(self):
        words = ["ba", "hello", "mẹ", "ăn"]
        import itertools

        verdicts = set()
        for perm in itertools.permutations(words):
            verdicts.add(bool(offending_words(" ".join(perm))))
        assert verdicts == {True}

import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vietphon
from vietphon.cli import build_parser, main
from vietphon.head import HeadConfig, init_params, write_params

#: a device whose every write fails with ENOSPC (Linux)
FULL = "/dev/full"
#: the golden case directories of tools/cli_goldens.py, and the parameter file its demo-head cases read
GOLDEN = pathlib.Path(__file__).parent / "data" / "cli"
PARAMS = GOLDEN / "in" / "demo_head_params.txt"
#: the bundled word list, passed by path; its first line is a "#" comment
LEXICON = pathlib.Path(vietphon.__file__).parent / "data" / "lexicon.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTokenize:
    def test_hoang(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hoàng\n", "utf-8")
        code, out, _ = run(capsys, "tokenize", str(src))
        assert code == 0
        assert out == "h|u̯|a|ŋ|LowFalling\n"

    def test_cleans_case_and_punctuation(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("Ba, mẹ!\n", "utf-8")
        code, out, _ = run(capsys, "tokenize", str(src))
        assert code == 0
        assert len(out.strip().split()) == 2

    def test_data_error_exit_code(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("qwrtz\n", "utf-8")
        code, _, err = run(capsys, "tokenize", str(src))
        assert code == 1
        assert "in.txt:1" in err

    def test_strict_flag_rejects_stop_final_tone(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("gàp\n", "utf-8")  # grave tone on a p-final: phonotactically bad
        assert run(capsys, "tokenize", str(src))[0] == 0  # lax by default
        assert run(capsys, "tokenize", "--strict", str(src))[0] == 1
        src.write_text("gáp\n", "utf-8")
        assert run(capsys, "tokenize", "--strict", str(src))[0] == 0

    def test_output_file_is_complete(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hoàng\nba mẹ\n", "utf-8")
        _, expected, _ = run(capsys, "tokenize", str(src))
        dest = tmp_path / "out.txt"
        code, out, _ = run(capsys, "tokenize", str(src), "-o", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text("utf-8") == expected
        assert len(expected.splitlines()) == 2

    def test_nfd_rejected_when_disabled(self, capsys, tmp_path):
        import unicodedata

        src = tmp_path / "in.txt"
        src.write_text(unicodedata.normalize("NFD", "hoàng") + "\n", "utf-8")
        assert run(capsys, "tokenize", str(src))[0] == 0
        assert run(capsys, "tokenize", "--no-nfd-ok", str(src))[0] == 1


class TestDetokenize:
    def test_inverse(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("hoàng đế\n", "utf-8")
        _, tokens, _ = run(capsys, "tokenize", str(src))
        mid = tmp_path / "phonemes.txt"
        mid.write_text(tokens, "utf-8")
        code, out, _ = run(capsys, "detokenize", str(mid))
        assert code == 0
        assert out == "hoàng đế\n"

    def test_bad_token_line(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("b|a\n", "utf-8")
        code, _, err = run(capsys, "detokenize", str(src))
        assert code == 1 and "in.txt:1" in err

    def test_unknown_component_fails_as_the_line_is_read(self, capsys, tmp_path):
        # parse_phonemes builds the Syllable, so the error carries no syllable index
        src = tmp_path / "in.txt"
        src.write_text("b|∅|a|∅|Flat\nb|∅|a|∅|Flat w|∅|a|∅|Flat\n", "utf-8")
        assert run(capsys, "detokenize", str(src)) == (1, "ba\n", f"error: {src}:2: unknown initial: 'w'\n")


class TestRoundtrip:
    def test_bundled_lexicon(self, capsys):
        code, out, _ = run(capsys, "roundtrip")
        assert code == 0
        assert out.endswith("0 mismatches\n")

    def test_mismatching_input(self, capsys, tmp_path):
        src = tmp_path / "words.txt"
        src.write_text("ba hòa xyz\n", "utf-8")  # hòa renders hoà; xyz fails
        code, out, err = run(capsys, "roundtrip", str(src))
        assert code == 1
        assert "2 mismatches" in out

    def test_bundled_lexicon_by_path(self, capsys):
        assert run(capsys, "roundtrip", str(LEXICON)) == (0, "15574 words, 0 mismatches\n", "")


class TestVocab:
    def test_report_and_dump(self, capsys, tmp_path):
        table = tmp_path / "vocab.tsv"
        code, out, _ = run(capsys, "vocab", "-o", str(table))
        assert code == 0
        report = json.loads(out)
        assert report["computed"]["tones"] == 6
        assert report["design"]["total"] == 163
        assert table.exists()

    def test_table_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "vocab.tsv"
        run(capsys, "vocab", "-o", str(table))
        code, out, err = run(capsys, "vocab", "-o", "-")
        assert code == 0
        assert not (tmp_path / "-").exists()
        assert out.encode("utf-8") == table.read_bytes()
        assert json.loads(err)["design"]["total"] == 163

    def test_bundled_lexicon_by_path(self, capsys, tmp_path):
        table = tmp_path / "vocab.tsv"
        code, out, _ = run(capsys, "vocab", "--lexicon", str(LEXICON), "-o", str(table))
        assert code == 0
        assert out == (GOLDEN / "vocab_bundled" / "stdout").read_text("utf-8")
        assert table.read_bytes() == (GOLDEN / "vocab_bundled" / "vocab.tsv").read_bytes()


class TestRules:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "rules")
        assert code == 0
        assert "# version: 1" in out
        assert "initial\t-\tngh" in out


class TestScore:
    def test_identical_files(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("ba mẹ\năn cơm\n", "utf-8")
        hyp.write_text("ba mẹ\năn cơm\n", "utf-8")
        code, out, _ = run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        report = json.loads(out)
        assert report["cer"]["rate"] == 0
        assert report["wer"]["rate"] == 0
        assert report["per"]["rate"] == 0

    def test_pairs_file(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"ref": "ba", "hyp": "bà"}\n', "utf-8")
        code, out, _ = run(capsys, "score", "--pairs", str(pairs))
        assert code == 0
        assert json.loads(out)["per_t"]["substitutions"] == 1

    def test_requires_inputs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [["--ref", "r.txt", "--hyp", "h.txt"], ["--ref", "r.txt"], ["--hyp", "h.txt"]])
    def test_pairs_with_ref_or_hyp_is_usage_error(self, extra, capsys, tmp_path, monkeypatch):
        # all three inputs are valid: scoring the pairs alone would drop --ref/--hyp unread
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.jsonl").write_text('{"ref": "ba", "hyp": "bà"}\n', "utf-8")
        (tmp_path / "r.txt").write_text("ba\n", "utf-8")
        (tmp_path / "h.txt").write_text("mẹ\n", "utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["score", "--pairs", "p.jsonl", *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_line_count_mismatch(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("ba\nba\n", "utf-8")
        hyp.write_text("ba\n", "utf-8")
        assert run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))[0] == 1


class TestFilter:
    def test_filter_pipeline(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        rows = [{"id": f"u{i}", "transcript": "ba mẹ", "split": "train"} for i in range(9)]
        rows.append({"id": "u9", "transcript": "ba okay", "split": "train"})
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        kept = tmp_path / "kept.jsonl"
        bad = tmp_path / "bad.jsonl"
        code, out, _ = run(capsys, "filter", str(manifest), "-o", str(kept),
                           "--discard-file", str(bad))
        assert code == 0
        stats = json.loads(out)
        assert stats["overall"]["percent"] == 10.0
        assert len(kept.read_text("utf-8").splitlines()) == 9
        assert "okay" in bad.read_text("utf-8")

    def test_kept_records_to_stdout(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "transcript": "ba", "split": "train"}\n', "utf-8")
        code, out, err = run(capsys, "filter", str(manifest), "-o", "-")
        assert code == 0, err
        record_line, stats_text = out.split("\n", 1)
        assert json.loads(record_line)["id"] == "a"
        assert json.loads(stats_text)["overall"]["percent"] == 0.0

    def test_reference_comparison(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "transcript": "ba"}\n', "utf-8")
        code, out, _ = run(capsys, "filter", str(manifest), "--expected-stats", "vivos")
        assert code == 0
        assert json.loads(out)["reference"]["percent"]["overall"] == 0.70

    def test_malformed_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("not json\n", "utf-8")
        code, _, err = run(capsys, "filter", str(manifest))
        assert code == 1 and "line 1" in err

    def test_unsplit_split_name_is_an_error(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "transcript": "ba"}\n{"id": "b", "transcript": "ba", "split": "(unsplit)"}\n',
                            "utf-8")
        code, out, err = run(capsys, "filter", str(manifest))
        assert (code, out) == (1, "")
        assert err == f"error: {manifest}: manifest line 2: split '(unsplit)' is reserved for records without a split\n"

    @pytest.mark.parametrize("discard", ["kept.jsonl", "sub/../kept.jsonl"])
    def test_one_file_for_both_outputs_is_usage_error(self, discard, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "transcript": "ba"}\n', "utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["filter", str(manifest), "-o", str(tmp_path / "kept.jsonl"), "--discard-file", discard])
        assert exc.value.code == 2
        assert "--discard-file" in capsys.readouterr().err
        assert not (tmp_path / "kept.jsonl").exists()

    def test_both_outputs_to_stdout(self, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "a", "transcript": "ba"}\n{"id": "b", "transcript": "okay"}\n', "utf-8")
        code, out, err = run(capsys, "filter", str(manifest), "-o", "-", "--discard-file", "-")
        assert code == 0, err
        kept, discarded, stats_text = out.split("\n", 2)
        assert json.loads(kept)["id"] == "a" and json.loads(discarded)["id"] == "b"
        assert json.loads(stats_text)["overall"]["flagged"] == 1


class TestDemoHead:
    def test_small_suite(self, capsys):
        code, out, _ = run(capsys, "demo-head", "--configs", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["configs"] == 3

    def test_params_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "params.txt"
        run(capsys, "demo-head", "--configs", "0", "--dump-params", str(path))
        code, out, err = run(capsys, "demo-head", "--configs", "0", "--dump-params", "-")
        assert code == 0
        assert not (tmp_path / "-").exists()
        assert out == path.read_text("utf-8")
        assert json.loads(err)["configs"] == 0

    def test_negative_configs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo-head", "--configs", "-3"])
        assert exc.value.code == 2
        assert "--configs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--configs", "1", "--seed", "-1"],
                                      ["--configs", "0", "--seed", "-5", "--dump-params", "-"]])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["demo-head", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed must be 0 or more, got" in captured.err

    def test_params_dump_and_check(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        code, _, _ = run(capsys, "demo-head", "--configs", "0", "--dump-params", str(path))
        assert path.exists()
        code, out, _ = run(capsys, "demo-head", "--load-params", str(path))
        assert code == 0
        assert json.loads(out)["passed"]

    def test_params_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(PARAMS.read_bytes()), encoding="utf-8"))
        code, out, _ = run(capsys, "demo-head", "--load-params", "-")
        assert code == 0
        assert out == (GOLDEN / "demo_head_load_params" / "stdout").read_text("utf-8")

    def test_missing_params_file_reads_like_other_inputs(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.txt")
        load_err = run(capsys, "demo-head", "--load-params", missing)[2]
        assert load_err == run(capsys, "tokenize", missing)[2] == f"error: {missing}: No such file or directory\n"


class TestDefaults:
    def test_flag_defaults_snapshot(self):
        parser = build_parser()
        tok = parser.parse_args(["tokenize", "x"])
        score = parser.parse_args(["score", "--pairs", "p"])
        demo = parser.parse_args(["demo-head"])
        assert {
            "strict": tok.strict,
            "cer_include_spaces": score.cer_include_spaces,
            "per_alignment": score.per_alignment,
            "residual": demo.residual,
            "nfd_ok": tok.nfd_ok,
        } == {
            "strict": False,
            "cer_include_spaces": False,
            "per_alignment": "tuple",
            "residual": "normalized",
            "nfd_ok": True,
        }

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_argument_has_a_mutable_default(self):
        # the cached parser would hand one such default to every main call
        parsers, defaults = [build_parser()], []
        for parser in parsers:
            defaults += [action.default for action in parser._actions] + list(parser._defaults.values())
            parsers += [sub for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction) for sub in action.choices.values()]
        assert len(parsers) == 9
        assert not [default for default in defaults if isinstance(default, (list, dict, set))]

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tokenize", "--frobnicate"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("giếng nước\nba mẹ\n", "utf-8")
        outputs = {run(capsys, "tokenize", str(src))[1] for _ in range(3)}
        assert len(outputs) == 1


def _param_text(config):
    """The parameter file text of init_params(config)."""
    out = io.StringIO()
    write_params(init_params(config), out)
    return out.getvalue()


def _files(tmp_path):
    """Inputs for the error cases: good files, bad files and an unwritable path."""

    def write(name, data):
        path = tmp_path / name
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        return str(path)

    text = _param_text(HeadConfig(dim=4, v_init=8, v_rhyme=10))
    lines = text.splitlines(keepends=True)
    sizes = {"init": 8, "rhyme": 10, "tone": 6}
    dim_zero = "".join([  # by hand: init_params refuses dim=0
        "# vietphon head parameters v1 dim=0 v_init=8 v_rhyme=10 v_tone=6\n",
        *(f"embed.{h}\t{v},0\t\n" for h, v in sizes.items()), "fuse\t0,0\t\n",
        *(f"{h}.ln_gain\t0\t\n{h}.ln_bias\t0\t\n{h}.w_up\t0,0\t\n{h}.w_down\t0,0\t\n"
          f"{h}.w_out\t0,{v}\t\n{h}.b_out\t{v}\t{' '.join(['0.0'] * v)}\n" for h, v in sizes.items()),
    ])
    return SimpleNamespace(
        out=str(tmp_path / "missing" / "out.txt"),
        kept=str(tmp_path / "kept.jsonl"),
        text=write("in.txt", "ba\n"),
        tokens=write("tokens.txt", "b|∅|a|∅|Flat\n"),
        manifest=write("m.jsonl", '{"id": "a", "transcript": "ba okay"}\n'),
        bad=write("bad.txt", b"ba\n\xff\n"),
        bad_manifest=write("bad.jsonl", b'{"id": "a", "transcript": "ba"}\n\xff\n'),
        bad_pairs=write("bad_pairs.jsonl", b'{"ref": "ba", "hyp": "ba"}\n\xff\n'),
        ref_int=write("ref_int.jsonl", '{"ref": 1, "hyp": "ba"}\n'),
        hyp_null=write("hyp_null.jsonl", '{"ref": "ba", "hyp": null}\n'),
        header_only=write("header.txt", "# vietphon head parameters v1\n"),
        no_array=write("partial.txt", "".join(l for l in lines if not l.startswith("rhyme.w_up\t"))),
        nan_array=write("nan.txt", "".join(re.sub(r"^(fuse\t\S+\t)\S+", r"\1nan", l) for l in lines)),
        no_init_id=write("v_init0.txt", _param_text(HeadConfig(dim=4, v_init=0, v_rhyme=10))),  # no initial id 0
        dim_zero=write("dim0.txt", dim_zero),
        unknown_array=write("unknown.txt", text + "bogus\t2\t1.0 2.0\n"),
        repeated_array=write("repeated.txt", text + lines[1]),
        header_extra=write("header_extra.txt", text.replace(" v_tone=6", " v_tone=6 foo=3", 1)),
        header_twice=write("header_twice.txt", text.replace("dim=4", "dim=4 dim=5", 1)),
        header_junk=write("header_junk.txt", text.replace(" v_tone=6", " v_tone=6 junk", 1)),
        header_float=write("header_float.txt", text.replace("dim=4", "dim=4.0", 1)),
        header_bare=write("header_bare.txt", text.replace("dim=4", "dim", 1)),
        name_alone=write("name_alone.txt", text.replace(lines[1], "fuse\n")),
        empty_line=write("empty_line.txt", text + "\n"),
        bad_shape=write("bad_shape.txt", text.replace("fuse\t12,4", "fuse\t12,x")),
        negative_shape=write("negative_shape.txt", text.replace("fuse\t12,4", "fuse\t-1,4")),
        unfilled_shape=write("unfilled_shape.txt", text.replace("fuse\t12,4", "fuse\t4,4")),
        bad_value=write("bad_value.txt", re.sub(r"(?m)^(fuse\t\S+\t)\S+", r"\1abc", text)),
        inf_value=write("inf_value.txt", re.sub(r"(?m)^(fuse\t\S+\t)\S+", r"\g<1>1e999", text)),
        huge_value=write("huge_value.txt", re.sub(r"(?m)^(fuse\t\S+\t)\S+", r"\g<1>1e300", text)),
        transposed=write("transposed.txt", text.replace("fuse\t12,4", "fuse\t4,12")),
        bad_params=write("bad_params.txt", text.encode("utf-8").replace(b"embed.init", b"embed.\xff")),
        id_int=write("id_int.jsonl", '{"id": "a", "transcript": "ba"}\n{"id": 1, "transcript": ["ba"]}\n'),
        kept_manifest=write("kept_m.jsonl", '{"id": "a", "transcript": "ba"}\n'),
        deep=write("deep.jsonl", "[" * 100_000 + "\n"),
        long_id=write("long_id.jsonl", '{"id": ' + "1" * 5000 + ', "transcript": "ba"}\n'),
        long_ref=write("long_ref.jsonl", '{"ref": ' + "1" * 5000 + ', "hyp": "ba"}\n'),
        bad_word=write("bad_word.txt", "ba\nmẹ xyz\n"),
        comment_word=write("comment_word.txt", "# xyz\nba\nmẹ xyz\n"),
        not_object=write("not_object.jsonl", '{"id": "a", "transcript": "ba"}\n["a", "ba"]\n'),
        per_pairs=write("per_pairs.jsonl", '{"ref": "ba", "hyp": "ba"}\n{"ref": "ba", "hyp": "ba xyz"}\n'),
        two=write("two.txt", "ba\nba mẹ\n"),
    )


@pytest.fixture
def files(tmp_path):
    return _files(tmp_path)


#: case -> files -> (argv, strings the error line names, stdin bytes or None)
ERROR_CASES = {
    "tokenize -o": lambda f: (["tokenize", f.text, "-o", f.out], [f.out], None),
    "detokenize -o": lambda f: (["detokenize", f.tokens, "-o", f.out], [f.out], None),
    "filter -o": lambda f: (["filter", f.manifest, "-o", f.out], [f.out], None),
    "filter --discard-file": lambda f: (
        ["filter", f.manifest, "-o", f.kept, "--discard-file", f.out], [f.out], None),
    "vocab -o": lambda f: (["vocab", "-o", f.out], [f.out], None),
    "demo-head --dump-params": lambda f: (
        ["demo-head", "--configs", "0", "--dump-params", f.out], [f.out], None),
    "tokenize utf-8": lambda f: (["tokenize", f.bad], [f"{f.bad}:2"], None),
    "tokenize stdin utf-8": lambda f: (["tokenize", "-"], ["<stdin>:2"], b"ba\n\xff\n"),
    "tokenize stdin parse": lambda f: (["tokenize", "-"], ["<stdin>:1"], b"qwrtz\n"),
    "detokenize utf-8": lambda f: (["detokenize", f.bad], [f"{f.bad}:2"], None),
    "roundtrip utf-8": lambda f: (["roundtrip", f.bad], [f"{f.bad}:2"], None),
    "vocab --lexicon utf-8": lambda f: (["vocab", "--lexicon", f.bad], [f"{f.bad}:2"], None),
    "filter utf-8": lambda f: (["filter", f.bad_manifest], [f"{f.bad_manifest}:2"], None),
    "score --pairs utf-8": lambda f: (["score", "--pairs", f.bad_pairs], [f"{f.bad_pairs}:2"], None),
    "score --ref utf-8": lambda f: (["score", "--ref", f.bad, "--hyp", f.text], [f"{f.bad}:2"], None),
    "score ref not a string": lambda f: (["score", "--pairs", f.ref_int], [f"{f.ref_int}:1"], None),
    "score hyp null": lambda f: (["score", "--pairs", f.hyp_null], [f"{f.hyp_null}:1"], None),
    "demo-head header field missing": lambda f: (
        ["demo-head", "--load-params", f.header_only], [f.header_only, "dim"], None),
    "demo-head array missing": lambda f: (
        ["demo-head", "--load-params", f.no_array], [f.no_array, "rhyme.w_up"], None),
    "demo-head non-finite": lambda f: (
        ["demo-head", "--load-params", f.nan_array], [f"{f.nan_array}:2: fuse: non-finite"], None),
    "demo-head empty space": lambda f: (["demo-head", "--load-params", f.no_init_id], [f.no_init_id], None),
    "demo-head dim zero": lambda f: (["demo-head", "--load-params", f.dim_zero], [f.dim_zero, "dim"], None),
    "demo-head unknown array": lambda f: (
        ["demo-head", "--load-params", f.unknown_array], [f"{f.unknown_array}:24: bogus: unknown"], None),
    "demo-head shape transposed": lambda f: (
        ["demo-head", "--load-params", f.transposed], [f"{f.transposed}:2: fuse:", "(12, 4)", "(4, 12)"], None),
    "demo-head repeated array": lambda f: (
        ["demo-head", "--load-params", f.repeated_array], [f"{f.repeated_array}:24", "fuse"], None),
    "demo-head header field unknown": lambda f: (
        ["demo-head", "--load-params", f.header_extra], [f"{f.header_extra}:1", "'foo'"], None),
    "demo-head header field twice": lambda f: (
        ["demo-head", "--load-params", f.header_twice], [f"{f.header_twice}:1", "'dim'", "twice"], None),
    "demo-head header word": lambda f: (
        ["demo-head", "--load-params", f.header_junk], [f"{f.header_junk}:1", "'junk'"], None),
    "demo-head header field not an integer": lambda f: (
        ["demo-head", "--load-params", f.header_float], [f"{f.header_float}:1", "'dim'", "'4.0'"], None),
    "demo-head header field without value": lambda f: (
        ["demo-head", "--load-params", f.header_bare], [f"{f.header_bare}:1", "'dim'"], None),
    "demo-head array name alone": lambda f: (
        ["demo-head", "--load-params", f.name_alone], [f"{f.name_alone}:2: fuse:"], None),
    "demo-head empty line": lambda f: (["demo-head", "--load-params", f.empty_line], [f"{f.empty_line}:24:"], None),
    "demo-head shape not integers": lambda f: (
        ["demo-head", "--load-params", f.bad_shape], [f"{f.bad_shape}:2: fuse:", "'12,x'"], None),
    "demo-head shape negative": lambda f: (
        ["demo-head", "--load-params", f.negative_shape], [f"{f.negative_shape}:2: fuse:", "'-1,4'"], None),
    "demo-head shape not filled": lambda f: (
        ["demo-head", "--load-params", f.unfilled_shape], [f"{f.unfilled_shape}:2: fuse:", "(4,4)"], None),
    "demo-head value not a number": lambda f: (
        ["demo-head", "--load-params", f.bad_value], [f"{f.bad_value}:2: fuse:", "'abc'"], None),
    "demo-head value overflows": lambda f: (
        ["demo-head", "--load-params", f.inf_value], [f"{f.inf_value}:2: fuse: non-finite"], None),
    "demo-head value overflows the check": lambda f: (
        ["demo-head", "--load-params", f.huge_value], [f"{f.huge_value}: ", "overflow"], None),
    "demo-head utf-8": lambda f: (["demo-head", "--load-params", f.bad_params], [f"{f.bad_params}:3"], None),
    "demo-head stdin": lambda f: (["demo-head", "--load-params", "-"], ["<stdin>:1", "'foo'"],
                                  pathlib.Path(f.header_extra).read_bytes()),
    "filter id not a string": lambda f: (["filter", f.id_int], [f.id_int, "line 2", "'id'"], None),
    "tokenize -o full": lambda f: (["tokenize", f.text, "-o", FULL], [FULL], None),
    "detokenize -o full": lambda f: (["detokenize", f.tokens, "-o", FULL], [FULL], None),
    "filter -o full": lambda f: (["filter", f.kept_manifest, "-o", FULL], [FULL], None),
    "filter --discard-file full": lambda f: (
        ["filter", f.manifest, "-o", f.kept, "--discard-file", FULL], [FULL], None),
    "vocab -o full": lambda f: (["vocab", "-o", FULL], [FULL], None),
    "vocab --lexicon parse": lambda f: (["vocab", "--lexicon", f.bad_word], [f"{f.bad_word}:2", "xyz"], None),
    "vocab --lexicon comment": lambda f: (
        ["vocab", "--lexicon", f.comment_word], [f"{f.comment_word}:3", "xyz"], None),
    "filter not an object": lambda f: (["filter", f.not_object], [f.not_object, "line 2", "JSON object"], None),
    "filter deep JSON": lambda f: (["filter", f.deep], [f.deep, "line 1"], None),
    "filter long integer": lambda f: (["filter", f.long_id], [f.long_id, "line 1"], None),
    "score deep JSON": lambda f: (["score", "--pairs", f.deep], [f"{f.deep}:1"], None),
    "score long integer": lambda f: (["score", "--pairs", f.long_ref], [f"{f.long_ref}:1"], None),
    "score --pairs PER": lambda f: (["score", "--pairs", f.per_pairs], [f"{f.per_pairs}:2", "xyz"], None),
    "score --hyp PER": lambda f: (["score", "--ref", f.two, "--hyp", f.bad_word], [f"{f.bad_word}:2"], None),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_is_one_error_line(case, files, capsys, monkeypatch):
    argv, names, stdin = ERROR_CASES[case](files)
    if FULL in argv and not os.path.exists(FULL):
        pytest.skip(f"no {FULL} here")
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    with warnings.catch_warnings(record=True) as caught:  # a warning would reach stderr
        warnings.simplefilter("always")
        code = main(argv)  # an exception escaping main fails the test here
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for name in names:
        assert name in lines[0]
    assert not sys.stdout.closed


#: characters str.splitlines() ends a line at besides "\n" and "\r"
LINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
#: the ones JSON carries raw inside a string (the others it must escape)
RAW_IN_JSON = ["\u2028", "\u2029", "\x85"]


class TestLineEnds:
    @pytest.mark.parametrize("sep", RAW_IN_JSON)
    def test_filter_reads_what_it_wrote(self, sep, capsys, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "a", "transcript": f"ba{sep}mẹ"}) + "\n", "utf-8")
        kept = tmp_path / "kept.jsonl"
        assert run(capsys, "filter", str(manifest), "-o", str(kept))[0] == 0
        assert sep in kept.read_text("utf-8")  # written raw
        code, out, err = run(capsys, "filter", str(kept))
        assert code == 0, err
        assert json.loads(out)["overall"] == {"total": 1, "flagged": 0, "percent": 0.0}

    @pytest.mark.parametrize("sep", RAW_IN_JSON)
    def test_score_pairs_hold_raw_breaks(self, sep, capsys, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(f'{{"ref": "ba{sep}mẹ", "hyp": "ba mẹ"}}\n', "utf-8")
        code, out, err = run(capsys, "score", "--pairs", str(pairs))
        assert code == 0, err
        assert json.loads(out)["utterances"] == 1

    @pytest.mark.parametrize("sep", LINE_BREAKS)
    def test_tokenize_gives_a_line_per_line(self, sep, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text(f"ba{sep}mẹ\năn\n", "utf-8")
        code, out, _ = run(capsys, "tokenize", str(src))
        assert code == 0
        src.write_text("ba mẹ\năn\n", "utf-8")
        assert out == run(capsys, "tokenize", str(src))[1]
        assert len(out.splitlines()) == 2

    def test_crlf_reads_as_lf(self, capsys, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes("ba mẹ\năn cơm\n".encode("utf-8"))
        crlf.write_bytes("ba mẹ\r\năn cơm\r\n".encode("utf-8"))
        for argv in (["tokenize"], ["roundtrip"], ["vocab", "--lexicon"], ["score", "--ref", str(lf), "--hyp"]):
            assert run(capsys, *argv, str(crlf)) == run(capsys, *argv, str(lf))
        tokens = tmp_path / "tokens.txt"
        tokens.write_text(run(capsys, "tokenize", str(lf))[1].replace("\n", "\r\n"), "utf-8")
        assert run(capsys, "detokenize", str(tokens))[1] == "ba mẹ\năn cơm\n"


def _cli_env():
    """The environment for a `python -m vietphon.cli` child that imports this checkout."""
    package_root = str(pathlib.Path(vietphon.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("stdout", ["closed pipe", FULL])
def test_failed_stdout_is_one_error_line(stdout, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("ba mẹ\n", "utf-8")
    if stdout == FULL:
        if not os.path.exists(FULL):
            pytest.skip(f"no {FULL} here")
        sink = os.open(FULL, os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    else:
        read_end, sink = os.pipe()
        os.close(read_end)  # closed before anything is read
        reason = os.strerror(errno.EPIPE)
    try:
        proc = subprocess.run([sys.executable, "-m", "vietphon.cli", "tokenize", str(src)], stdout=sink,
                              stderr=subprocess.PIPE, env=_cli_env(), timeout=120)
    finally:
        os.close(sink)
    assert proc.returncode == 1
    assert proc.stderr.decode("utf-8") == f"error: <stdout>: {reason}\n"


#: a child that records, in order, whether numpy is loaded after importing the
#: cli, after the text pipelines of argv[1], and after demo-head
_IMPORT_BOUNDARY = """
import contextlib, io, json, sys
from vietphon import cli
seen = {"numpy after import": "numpy" in sys.modules, "head after import": "vietphon.head" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    seen["codes"] = [cli.main(argv) for argv in json.loads(sys.argv[1])]
seen["numpy after text"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    seen["demo-head code"] = cli.main(["demo-head", "--configs", "1"])
seen["head.np is numpy"] = sys.modules["vietphon.head"].np is sys.modules.get("numpy")
print(json.dumps(seen))
"""


def test_only_demo_head_imports_numpy(tmp_path):
    inputs, out = GOLDEN / "in", str(tmp_path / "out")
    text_runs = [
        ["tokenize", str(inputs / "text.txt"), "-o", out],
        ["detokenize", str(inputs / "phonemes.txt"), "-o", out],
        ["roundtrip", str(inputs / "words.txt")],
        ["vocab", "--lexicon", str(inputs / "lexicon.txt"), "-o", out],
        ["rules"],
        ["score", "--pairs", str(inputs / "pairs.jsonl")],
        ["filter", str(inputs / "manifest.jsonl"), "-o", out, "--discard-file", str(tmp_path / "discarded")],
    ]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, json.dumps(text_runs)],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "numpy after import": False,
        "head after import": True,  # perfbench's tracer patches it from sys.modules
        "codes": [0, 0, 1, 0, 0, 0, 0],  # roundtrip: words.txt holds variant spellings
        "numpy after text": False,
        "demo-head code": 0,
        "head.np is numpy": True,
    }


def test_overflow_is_one_error_line_in_a_fresh_process(tmp_path):
    """demo-head --load-params reads np.errstate through head's lazy numpy in a fresh process."""
    huge = tmp_path / "huge.txt"
    params = PARAMS.read_text("utf-8")
    huge.write_text(re.sub(r"(?m)^(fuse\t\S+\t)\S+", r"\g<1>1e300", params, count=1), "utf-8")
    proc = subprocess.run([sys.executable, "-m", "vietphon.cli", "demo-head", "--load-params", str(huge)],
                          capture_output=True, text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.fullmatch(f"error: {re.escape(str(huge))}: values too large for the gradient check: .*\n",
                        proc.stderr)


# ---------------------------------------------------------------------------
# The error contract as a property: one test per subcommand that reads a file
# ("rules" reads none).  Each draws a file content, an output place and an
# argv shape; the ERROR_CASES of the subcommand are its explicit examples.
# ---------------------------------------------------------------------------

def _param_lines():
    """Lines of a small head parameter file, and variants a bad file may hold."""
    header, *arrays = _param_text(HeadConfig(dim=2, v_init=3, v_rhyme=3)).splitlines()
    return [header, header.replace("v_init=3", "v_init=0"), header.replace("dim=2", "dim=-1"),
            *arrays, *(re.sub(r"\t\S+", "\tnan", line, count=1) for line in arrays)]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_WORDS = st.sampled_from(["ba", "mẹ", "hoàng", "xyz", "bàá", "okay", "b|∅|a|∅|Flat", "b|a", "∅|∅|a|∅|Nope"])
_LINE = st.one_of(
    _JSON.map(json.dumps),  # JSON of the wrong shape
    st.dictionaries(st.sampled_from(["id", "transcript", "split", "ref", "hyp"]),  # fields missing or mistyped
                    _JSON | _WORDS, max_size=4).map(lambda record: json.dumps(record, ensure_ascii=False)),
    st.lists(_WORDS | st.text(max_size=5), max_size=4).map(" ".join),
    st.sampled_from(_param_lines()),
)
#: contents of a generated input file: raw bytes or lines of the kinds above
CONTENTS = st.binary(max_size=48) | st.lists(_LINE, max_size=4).map(lambda lines: "\n".join(lines).encode("utf-8"))
#: where a generated output goes: a new file, a missing directory, a directory, stdout or a full device
DESTS = st.sampled_from(["new", "missing", "dir", "-"] + ([FULL] if os.path.exists(FULL) else []))

#: subcommand -> argv shapes over the files namespace: f.gen holds the drawn content (so does stdin), f.dest is
#: the drawn output; each gives (argv, strings the error line names, stdin bytes) like ERROR_CASES
SHAPES = {
    "tokenize": [lambda f: (["tokenize", f.gen, "-o", f.dest], [], None),
                 lambda f: (["tokenize", "--strict", "--no-nfd-ok", "-", "-o", f.dest], [], f.content)],
    "detokenize": [lambda f: (["detokenize", f.gen, "-o", f.dest], [], None),
                   lambda f: (["detokenize", "-"], [], f.content)],
    "roundtrip": [lambda f: (["roundtrip", f.gen], [], None),
                  lambda f: (["roundtrip", "-"], [], f.content)],
    "vocab": [lambda f: (["vocab", "--lexicon", f.gen, "-o", f.dest], [], None),
              lambda f: (["vocab", "--lexicon", "-"], [], f.content)],
    "score": [lambda f: (["score", "--pairs", f.gen], [], None),
              lambda f: (["score", "--pairs", "-", "--per-alignment", "flat"], [], f.content),
              lambda f: (["score", "--ref", f.gen, "--hyp", f.two], [], None),
              lambda f: (["score", "--ref", f.two, "--hyp", f.gen], [], None)],
    "filter": [lambda f: (["filter", f.gen, "-o", f.dest], [], None),
               lambda f: (["filter", "-", "-o", f.kept, "--discard-file", f.dest], [], f.content)],
    "demo-head": [lambda f: (["demo-head", "--load-params", f.gen], [], None),
                  lambda f: (["demo-head", "--configs", "0", "--dump-params", f.dest], [], None)],
}


def _is_verdict(command, out, err):
    """An exit 1 that is a verdict, not an error: roundtrip mismatches, a failed gradient check."""
    if command == "roundtrip":
        return re.fullmatch(r"\d+ words, [1-9]\d* mismatches\n", out) is not None
    return command == "demo-head" and not err.startswith("error:") and json.loads(out)["passed"] is False


def _check_contract(command, case, content, dest):
    with tempfile.TemporaryDirectory() as tmp:
        f = _files(pathlib.Path(tmp))
        f.content, f.gen = content, str(pathlib.Path(tmp) / "gen.txt")
        pathlib.Path(f.gen).write_bytes(content)
        f.dest = {"new": str(pathlib.Path(tmp) / "dest.txt"), "missing": f.out, "dir": tmp}.get(dest, dest)
        argv, names, stdin = case(f)
        if FULL in argv and not os.path.exists(FULL):
            return
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)  # "-" is stdout: a file of that name must not appear
        try:
            with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)  # an exception escaping main fails the property
            assert not os.path.exists("-")
        finally:
            os.chdir(cwd)
        files_named = [a for a in argv if a.startswith(tmp) or a == FULL] + ["<stdin>"]
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    assert not out.closed
    if code == 1 and not _is_verdict(command, out.getvalue(), err.getvalue()):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
        assert any(name in lines[0] for name in files_named), lines[0]
        assert all(name in lines[0] for name in names), lines[0]


def _contract_property(command):
    """The property test of one subcommand, with its ERROR_CASES as explicit examples."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(SHAPES[command]), content=CONTENTS, dest=DESTS)
    def test(case, content, dest):
        _check_contract(command, case, content, dest)

    for name, case in ERROR_CASES.items():
        if name.split()[0] == command:
            test = example(case=case, content=b"", dest="new")(test)
    return test


test_tokenize_error_contract = _contract_property("tokenize")
test_detokenize_error_contract = _contract_property("detokenize")
test_roundtrip_error_contract = _contract_property("roundtrip")
test_vocab_error_contract = _contract_property("vocab")
test_score_error_contract = _contract_property("score")
test_filter_error_contract = _contract_property("filter")
test_demo_head_error_contract = _contract_property("demo-head")

import io
import json
import sys
from types import SimpleNamespace

import pytest

from vietphon.cli import FLAG_DEFAULTS, build_parser, main
from vietphon.head import HeadConfig, init_params, save_params
from vietphon.vocab import load_vocab


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
        assert out == table.read_text("utf-8")
        piped = tmp_path / "piped.tsv"
        piped.write_text(out, "utf-8")
        assert load_vocab(piped) == load_vocab(table)
        assert json.loads(err)["design"]["total"] == 163


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


class TestDemoHead:
    def test_small_suite(self, capsys):
        code, out, _ = run(capsys, "demo-head", "--configs", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["configs"] == 3

    def test_params_dump_and_check(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        code, _, _ = run(capsys, "demo-head", "--configs", "0", "--dump-params", str(path))
        assert path.exists()
        code, out, _ = run(capsys, "demo-head", "--load-params", str(path))
        assert code == 0
        assert json.loads(out)["passed"]


class TestDefaults:
    def test_flag_defaults_snapshot(self):
        parser = build_parser()
        tok = parser.parse_args(["tokenize", "x"])
        assert tok.strict == FLAG_DEFAULTS["strict"]
        assert tok.nfd_ok == FLAG_DEFAULTS["nfd_ok"]
        score = parser.parse_args(["score", "--pairs", "p"])
        assert score.cer_include_spaces == FLAG_DEFAULTS["cer_include_spaces"]
        assert score.per_alignment == FLAG_DEFAULTS["per_alignment"]
        demo = parser.parse_args(["demo-head"])
        assert demo.residual == FLAG_DEFAULTS["residual"]
        assert FLAG_DEFAULTS == {
            "strict": False,
            "cer_include_spaces": False,
            "per_alignment": "tuple",
            "residual": "normalized",
            "nfd_ok": True,
        }

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tokenize", "--frobnicate"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("giếng nước\nba mẹ\n", "utf-8")
        outputs = {run(capsys, "tokenize", str(src))[1] for _ in range(3)}
        assert len(outputs) == 1


@pytest.fixture
def files(tmp_path):
    """Inputs for the error cases: good files, bad files and an unwritable path."""

    def write(name, data):
        path = tmp_path / name
        path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        return str(path)

    params = tmp_path / "params.txt"
    save_params(init_params(HeadConfig(dim=4, v_init=8, v_rhyme=10)), params)
    lines = params.read_text("utf-8").splitlines(keepends=True)
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
    )


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
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_is_one_error_line(case, files, capsys, monkeypatch):
    argv, names, stdin = ERROR_CASES[case](files)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    code = main(argv)  # an exception escaping main fails the test here
    err = capsys.readouterr().err
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for name in names:
        assert name in lines[0]
    assert not sys.stdout.closed

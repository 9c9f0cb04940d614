import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from vietphon import cli, corpus, metrics, tokenizer, vocab

ROOT = Path(__file__).resolve().parents[2]


def _originals():
    return {(id(owner), attr): original for owner, attr, original, _, _ in spans.patch_sites()}


def test_every_lookup_site_is_patched_then_restored():
    before = _originals()
    assert len(before) > len(spans.TRACED)  # names imported into other modules count too
    tracer = spans.Tracer()
    with tracer.installed():
        assert corpus.parse_syllable.__wrapped__ is before[(id(corpus), "parse_syllable")]
        assert metrics.tokenize.__wrapped__ is before[(id(metrics), "tokenize")]
        assert tokenizer.validate.__wrapped__ is before[(id(tokenizer), "validate")]
        assert vocab.Vocabulary.encode.__wrapped__ is before[(id(vocab.Vocabulary), "encode")]
    for owner, attr, original, _, _ in spans.patch_sites():
        assert getattr(owner, attr) is original
    assert _originals() == before


def test_restored_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert _originals() == before
    assert not hasattr(cli.main, "__wrapped__")


def test_counts_repeat_and_self_time_excludes_children():
    pairs = [("ba mẹ ăn cơm", "ba mẹ ăn"), ("hoàng đế", "hoàng đề")]

    def traced_counts():
        tracer = spans.Tracer()
        with tracer.installed():
            metrics.score_pairs(pairs)
            corpus.offending_words("ba mẹ wifi 2024")
        return tracer.layers()

    first, second = traced_counts(), traced_counts()
    assert {k: (v.calls, v.fail, v.value) for k, v in first.items()} == \
           {k: (v.calls, v.fail, v.value) for k, v in second.items()}
    assert first["metrics.align"].calls == 6
    chars = lambda text: text.replace(" ", "")  # noqa: E731
    cells = sum((len(chars(r)) + 1) * (len(chars(h)) + 1) + 2 * (len(r.split()) + 1) * (len(h.split()) + 1)
                for r, h in pairs)  # CER over characters; WER and PER over words
    assert first["metrics.align"].value == cells
    assert first["corpus.is_vietnamese_word"].calls == 4 and first["corpus.is_vietnamese_word"].value == 2
    assert first["tokenizer.parse_syllable"].fail == 2

    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer()
    layers = tracer.layers()
    assert layers["inner"].self_s >= 0.02
    assert layers["outer"].self_s < 0.01
    assert [s[3] for s in tracer.spans] == [-1, 0]  # each span records its parent


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    traced = {f"{module}.{name}" for module, name, _ in spans.TRACED}
    assert set(run.LAYER_STATS) <= traced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "filter", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

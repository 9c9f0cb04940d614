"""Each oracle passes the program's real outputs and flags a corrupted one."""

import contextlib
import copy
import io
import json
import unicodedata

import pytest

import gen
import oracle
import worker
from vietphon import cli


@pytest.mark.parametrize("a, b", [("", ""), ("abc", ""), ("", "ab"), ("kitten", "sitting"),
                                  ("flaw", "lawn"), (["x", "y"], ["y", "x"])])
def test_distance_matches_brute_force(a, b):
    def brute(a, b):
        if not a or not b:
            return len(a) + len(b)
        return min(brute(a[1:], b[1:]) + (a[0] != b[0]), brute(a[1:], b) + 1, brute(a, b[1:]) + 1)

    assert oracle.distance(list(a), list(b)) == brute(list(a), list(b))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _small(workload, seed=5):
    inputs = gen.generate(workload, seed, gen.Path(__file__).resolve().parents[2])
    return inputs.shards[0]


def test_filter_oracle(tmp_path):
    shard = _small("filter")
    manifest, kept, disc = tmp_path / "m.jsonl", tmp_path / "kept", tmp_path / "disc"
    manifest.write_text(shard.text, "utf-8")
    code, stats = _run_cli(["filter", str(manifest), "-o", str(kept), "--discard-file", str(disc)])
    kept_text, disc_text = kept.read_text("utf-8"), disc.read_text("utf-8")
    assert code == 0
    assert oracle.check_filter(shard.truth, shard.text, kept_text, disc_text, stats).failed == 0

    def flagged(delta):
        payload = json.loads(stats)
        payload["overall"]["flagged"] += delta
        return json.dumps(payload)

    kinds = dict(shard.truth)
    clean = next(line for line in kept_text.splitlines() if kinds[json.loads(line)["id"]] == "clean")
    moved = oracle.check_filter(shard.truth, shard.text, kept_text.replace(clean + "\n", ""),
                                disc_text + clean + "\n", flagged(+1))
    assert moved.failed == 1 and moved.known == 0
    foreign = next(line for line in disc_text.splitlines() if kinds[json.loads(line)["id"]] == "foreign")
    leaked = oracle.check_filter(shard.truth, shard.text, kept_text + foreign + "\n",
                                 disc_text.replace(foreign + "\n", ""), flagged(-1))
    assert leaked.failed == 1
    assert oracle.check_filter(shard.truth, shard.text, kept_text, disc_text,
                               flagged(+1)).failed == shard.items


def test_score_oracle(tmp_path):
    shard = next(s for s in gen.generate("score", 5, gen.Path(__file__).resolve().parents[2]).shards
                 if any(unicodedata.normalize("NFC", p["hyp"]) != p["hyp"] for p in s.truth))
    pairs_path = tmp_path / "p.jsonl"
    pairs_path.write_text(shard.text, "utf-8")
    code, text = _run_cli(["score", "--pairs", str(pairs_path)])
    reports = worker.Score(cli, {}).per_pair(pairs_path)
    verdict = oracle.check_score(shard.truth, reports, text)
    assert code == 0
    nfd = sum(unicodedata.normalize("NFC", p["hyp"]) != p["hyp"] for p in shard.truth)
    assert verdict.failed == verdict.known == nfd  # only the known wer-nfd defect

    clean = next(k for k, p in enumerate(shard.truth) if unicodedata.normalize("NFC", p["hyp"]) == p["hyp"])
    for key in ("cer", "wer", "per_t"):
        corrupted = copy.deepcopy(reports)
        corrupted[clean][key]["insertions"] += 1
        assert oracle.check_score(shard.truth, corrupted, text).failed == shard.items  # totals differ too
    corrupted = copy.deepcopy(reports)
    corrupted[clean]["cer"]["reference_length"] += 1
    report = json.loads(text)
    report["cer"]["reference_length"] += 1
    flagged = oracle.check_score(shard.truth, corrupted, json.dumps(report))
    assert flagged.failed == nfd + 1 and flagged.known == nfd


def test_per_consistency_bounds():
    row = lambda s, d, i, n: {"substitutions": s, "deletions": d, "insertions": i,  # noqa: E731
                              "reference_length": n}
    report = {"per_i": row(1, 1, 0, 3), "per_r": row(0, 1, 0, 3), "per_t": row(1, 1, 0, 3),
              "per": row(2, 3, 0, 9)}
    # ref 3 words, hyp 2 words, word distance 2: one deletion plus one substituted syllable
    assert oracle.per_consistent(report, 3, 2, 2)
    assert not oracle.per_consistent(report, 3, 2, 4)  # implied 3 syllable subs > sum of stream subs
    report["per_r"] = row(0, 0, 0, 3)
    assert not oracle.per_consistent(report, 3, 2, 2)  # streams disagree on deletions


def test_tokenize_oracle():
    lines = ["ba mẹ", "ăn cơm"]
    phonemes = "b|∅|a|∅|Flat x|∅|e|∅|LowFalling\n∅|∅|ă|n|Flat k|∅|ə|m|Flat\n"
    assert oracle.check_tokenize(lines, phonemes, "ba mẹ\năn cơm\n", [0, 0]).failed == 0
    assert oracle.check_tokenize(lines, phonemes, "ba me\năn cơm\n", [0, 0]).failed == 1
    assert oracle.check_tokenize(lines, phonemes, "ba mẹ\năn cơm\n", [0, 1]).failed == 1
    assert oracle.check_tokenize(lines, phonemes, "ba mẹ\n", [0, 0]).failed == 2


def test_gradcheck_oracle():
    code, text = _run_cli(["demo-head", "--configs", "1", "--seed", "3"])
    assert oracle.check_gradcheck(code, text).failed == 0
    summary = json.loads(text)
    summary["passed"] = False
    assert oracle.check_gradcheck(code, json.dumps(summary)).failed == 1
    assert oracle.check_gradcheck(1, text).failed == 1
    assert oracle.check_gradcheck(0, "not json").failed == 1


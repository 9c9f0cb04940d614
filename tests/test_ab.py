"""tools/ab.py's parser and summariser, on canned perfbench/run.py output; nothing is run or timed."""

import importlib.util
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"items_per_s": "higher", "op_ms_p50": "lower"}


def run_output(workload, scaled, unscaled, failed=0, attempted=100, seed=1, lines=1808, failures=()):
    """The lines run.py prints for one untraced workload run."""
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "u"} for name, value in scaled.items()}}
    return "\n".join([
        f"# {workload} seed={seed} trace=0 ops=120",
        '#   inputs: {"shards": 4}',
        f"#   src_nonblank_lines: {lines}",
        f"#   failures: {json.dumps(list(failures))}",
        "#   calibration_ms_median: 3.5",
        f"#   unscaled: {json.dumps(unscaled)}",
        f"#   failed_frac: {failed / attempted:.6f} ratio ({failed} of {attempted} items)",
        *(f"#   {name}: {value} u" for name, value in scaled.items()),
        json.dumps(result),
    ])


def side(items, op_ms, failed=0, lines=1808, failures=()):
    """parse_output of a two-workload run whose gradcheck reads the given figures."""
    text = "\n".join([
        run_output("score", {"items_per_s": 400.0, "op_ms_p50": 60.0}, {"items_per_s": 300.0, "op_ms_p50": 80.0},
                   lines=lines),
        run_output("gradcheck", {"items_per_s": items, "op_ms_p50": op_ms},
                   {"items_per_s": items / 2, "op_ms_p50": op_ms * 2}, failed=failed, lines=lines,
                   failures=failures),
    ])
    return ab.parse_output(text)


def row(rows, workload, scale, metric):
    (found,) = [r for r in rows if (r["workload"], r["scale"], r["metric"]) == (workload, scale, metric)]
    return found


def test_parse_output_reads_each_workload_block():
    runs = side(200.0, 5.0)
    assert list(runs) == ["score", "gradcheck"]
    gradcheck = runs["gradcheck"]
    assert gradcheck["summary"]["unscaled"] == {"items_per_s": 100.0, "op_ms_p50": 10.0}
    assert gradcheck["summary"]["src_nonblank_lines"] == 1808
    assert "failed_frac" not in gradcheck["summary"] and "items_per_s" not in gradcheck["summary"]
    assert ab.metric_values(gradcheck, "scaled") == {"items_per_s": 200.0, "op_ms_p50": 5.0}
    assert ab.metric_values(gradcheck, "unscaled") == {"items_per_s": 100.0, "op_ms_p50": 10.0}


def test_parse_output_ignores_lines_outside_a_block():
    text = "warming up\n" + run_output("filter", {"items_per_s": 1.0}, {"items_per_s": 2.0}) + "\n{}"
    assert list(ab.parse_output(text)) == ["filter"]


def test_summary_gives_medians_quartiles_and_wins_in_each_direction():
    base = [(190.0, 5.0), (200.0, 4.8), (210.0, 4.6), (195.0, 5.2), (205.0, 4.9)]
    head = [(220.0, 4.3), (199.0, 4.2), (230.0, 4.6), (225.0, 4.0), (215.0, 4.1)]
    pairs = [{"seed": 101 + p, "base": side(*b), "head": side(*h)} for p, (b, h) in enumerate(zip(base, head))]
    rows = ab.summarise(pairs, BETTER)

    items = row(rows, "gradcheck", "scaled", "items_per_s")
    assert items["base_median"] == 200.0 and items["head_median"] == 220.0
    assert items["base_quartiles"] == (195.0, 205.0)
    assert items["head_better"] == 4 and items["equal"] == 0 and items["pairs"] == 5

    op_ms = row(rows, "gradcheck", "scaled", "op_ms_p50")
    assert op_ms["better"] == "lower"
    assert op_ms["head_better"] == 4 and op_ms["equal"] == 1  # 4.6 against 4.6

    raw = row(rows, "gradcheck", "unscaled", "items_per_s")
    assert raw["base_median"] == 100.0 and raw["head_median"] == 110.0

    unmoved = row(rows, "score", "scaled", "items_per_s")
    assert unmoved["head_better"] == 0 and unmoved["equal"] == 5


def test_summary_compares_the_failed_share_pair_by_pair():
    pairs = [{"base": side(200.0, 5.0), "head": side(210.0, 4.9, failed=failed)} for failed in (0, 3)]
    failed = row(ab.summarise(pairs, BETTER), "gradcheck", "-", "failed_frac")
    assert failed["base"] == [0.0, 0.0] and failed["head"] == [0.0, 0.03]
    assert failed["equal"] == 1


def test_failed_share_counts_the_pairs_where_the_head_failed_more_and_why():
    changed, wrong = "shard-2: output changed between ops", "shard-0: wer-nfd: 3 of 10 pairs differ"
    counts = [(3, 0, ()), (0, 0, ()), (0, 5, (changed,)), (2, 4, (wrong, changed))]
    pairs = [{"base": side(200.0, 5.0, failed=b), "head": side(210.0, 4.9, failed=h, failures=reasons)}
             for b, h, reasons in counts]
    rows = ab.summarise(pairs, BETTER)
    failed = row(rows, "gradcheck", "-", "failed_frac")
    assert failed["equal"] == 1 and failed["head_more"] == 2
    assert failed["head_failures"] == [changed, wrong]
    lines = ab.format_rows(rows)
    (at,) = [i for i, line in enumerate(lines) if line.startswith("gradcheck  -        failed_frac")]
    assert lines[at].endswith("equal in 1/4 pairs, head more in 2/4 pairs")
    assert lines[at + 1].split(maxsplit=2)[:2] == ["head", "failures:"]
    assert json.loads(lines[at + 1].split("failures: ", 1)[1]) == [changed, wrong]
    unmoved = [line for line in lines if line.startswith("score      -        failed_frac")]
    assert unmoved[0].endswith("equal in 4/4 pairs, head more in 0/4 pairs") and len(lines) == len(rows) + 1


def test_summary_keeps_only_workloads_every_run_has():
    one = ab.parse_output(run_output("gradcheck", {"items_per_s": 1.0, "op_ms_p50": 1.0},
                                     {"items_per_s": 1.0, "op_ms_p50": 1.0}))
    pairs = [{"base": side(200.0, 5.0), "head": one}]
    assert {r["workload"] for r in ab.summarise(pairs, BETTER)} == {"gradcheck"}


@pytest.mark.parametrize("values, want", [([3.0], (3.0, 3.0)), ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 4.0))])
def test_quartiles(values, want):
    assert ab.quartiles(values) == want


def test_format_rows_prints_one_line_a_row():
    pairs = [{"base": side(200.0, 5.0), "head": side(220.0, 4.0)}]
    rows = ab.summarise(pairs, BETTER)
    lines = ab.format_rows(rows)
    assert len(lines) == len(rows)
    (line,) = [line for line in lines if line.startswith("gradcheck  scaled   items_per_s")]
    assert "+10.0 %" in line and "head better in 1/1" in line
    assert any(line.startswith("gradcheck  -        failed_frac") for line in lines)


def test_line_counts_name_each_side_and_the_change():
    pairs = [{"base": side(200.0, 5.0, lines=1833), "head": side(210.0, 4.9, lines=1823)}]
    assert ab.format_line_counts(pairs) == "# src_nonblank_lines: base 1833  head 1823 (-10)"


def test_directions_come_from_the_benchmark_declaration():
    better = ab.better_directions()
    assert better["items_per_s"] == "higher" and better["op_ms_p50"] == "lower"
    assert set(better) == {"setup_s", "items_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}


def traced_output(workload, layers, seed=1):
    """The lines run.py prints for one traced workload run."""
    result = {"correct": True, "attempted": 8, "failed": 0,
              "metrics": {name: {"value": value, "unit": "u"} for name, value in layers.items()}}
    return "\n".join([
        f"# {workload} seed={seed} trace=1 ops=8",
        "#   src_nonblank_lines: 1808",
        "#   failed_frac: 0.000000 ratio (0 of 8 items)",
        *(f"#   {name}: {value} u" for name, value in layers.items()),
        json.dumps(result),
    ])


def traced_side(align_calls, accept, self_s):
    return ab.parse_output("\n".join([
        traced_output("filter", {"corpus.is_vietnamese_word.calls": 900, "corpus.is_vietnamese_word.self_s": self_s,
                                 "corpus.is_vietnamese_word.accept_ratio": accept, "trace.overhead_frac": self_s}),
        traced_output("score", {"metrics.align.calls": align_calls, "metrics.align.self_s": self_s,
                                "metrics.align.cells": 1000, "tokenizer.parse_syllable.fail": 0}),
    ]))


def test_traced_diff_lists_only_counts_that_differ():
    base, head = traced_side(576, 0.996, 0.8), traced_side(577, 0.996, 0.05)
    diff = ab.traced_diff(base, head)
    assert diff == [{"workload": "score", "metric": "metrics.align.calls", "base": 576, "head": 577}]
    assert ab.traced_diff(base, traced_side(576, 0.996, 0.05)) == []  # times differ, counts do not


def test_traced_diff_reads_ratios_and_figures_one_side_lacks():
    base = traced_side(576, 0.996, 0.8)
    head = traced_side(576, 0.5, 0.8)
    del head["score"]["result"]["metrics"]["tokenizer.parse_syllable.fail"]
    head["score"]["result"]["metrics"]["vocab.Vocabulary.decode.calls"] = {"value": 3, "unit": "count"}
    assert [(r["workload"], r["metric"], r["base"], r["head"]) for r in ab.traced_diff(base, head)] == [
        ("filter", "corpus.is_vietnamese_word.accept_ratio", 0.996, 0.5),
        ("score", "tokenizer.parse_syllable.fail", 0, None),
        ("score", "vocab.Vocabulary.decode.calls", None, 3),
    ]


def test_format_traced_prints_a_line_per_differing_count():
    diff = ab.traced_diff(traced_side(576, 0.996, 0.8), traced_side(577, 0.9, 0.8))
    lines = ab.format_traced(7, diff)
    assert lines[0] == "# traced pair (--trace 1, seed 7): 2 per-layer counts differ"
    assert lines[1].split() == ["filter", "corpus.is_vietnamese_word.accept_ratio", "base", "0.996", "head", "0.9"]
    assert lines[2].split() == ["score", "metrics.align.calls", "base", "576", "head", "577"]
    assert ab.format_traced(7, []) == ["# traced pair (--trace 1, seed 7): no per-layer counts differ"]

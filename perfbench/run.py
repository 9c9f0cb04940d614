"""Benchmark of the four vietphon CLI pipelines: filter, score, tokenize, gradcheck.

Run from the root of a checkout::

    python3 perfbench/run.py --workload filter --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; ``--workload all`` runs the four workloads
one after the other.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See NOTES.md.

Inputs come from the seeded generator (gen.py), are written to files in a
temporary directory inside the checkout, and are processed by worker.py in a
fresh interpreter with one BLAS thread.  Op times are scaled to a reference
machine speed by a calibration loop timed between ops (scaled_seconds).
Every output is checked by the independent oracles in oracle.py.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("filter", "score", "tokenize", "gradcheck")
#: fresh interpreters started before and after the timed one in an untraced
#: run; setup_s is the median over all of them, spread over the run's length
SETUP_REPS_AROUND = 3
#: ops in each of the untraced and traced passes of a traced run
TRACE_OPS = {"filter": 8, "score": 8, "tokenize": 8, "gradcheck": 20}
#: the calibration loop's time on the reference machine (worker.calibrate)
CAL_REF_S = 0.0025
READY_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: traced function -> the statistics reported for it
LAYER_STATS = {
    "tokenizer.parse_syllable": ("calls", "self_s", "fail"),
    "tokenizer.strip_tone": ("self_s",),
    "tokenizer.render_syllable": ("calls", "self_s"),
    "tokenizer.tokenize": ("self_s",),
    "tokenizer.detokenize": ("self_s",),
    "tokenizer.format_phonemes": ("self_s",),
    "tokenizer.parse_phonemes": ("self_s",),
    "phonology.validate": ("calls", "self_s"),
    "corpus.clean_words": ("calls", "self_s"),
    "corpus.load_manifest": ("self_s",),
    "corpus.is_vietnamese_word": ("calls", "self_s", "accept_ratio"),
    "corpus.filter_manifest": ("self_s",),
    "metrics.align": ("calls", "self_s", "cells"),
    "metrics.cer": ("self_s",),
    "metrics.wer": ("self_s",),
    "metrics.per_components": ("self_s",),
    "metrics.score_pairs": ("self_s",),
    "vocab.Vocabulary.encode": ("calls", "self_s"),
    "vocab.Vocabulary.decode": ("calls", "self_s"),
    "vocab.build_vocab": ("self_s",),
    "head.sequence_loss": ("calls", "self_s"),
    "head.finite_difference_grads": ("self_s",),
    "head.sequence_grads": ("calls", "self_s"),
    "head.toy_batch": ("self_s",),
    "head.run_grad_suite": ("self_s",),
    "lexicon.load_lexicon": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "fail": "count", "cells": "count", "accept_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in LAYER_STATS.items() for stat in stats}
    units["trace.overhead_frac"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def src_lines(root: Path) -> int:
    """Non-blank lines of the Python files under src/ (informational)."""
    return sum(1 for path in (root / "src").rglob("*.py")
               for line in path.read_text("utf-8").splitlines() if line.strip())


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(root: Path, job_path: Path) -> tuple[subprocess.Popen, list[float]]:
    """Start a worker; return it and its set-up time (spawn to ready), unscaled
    and scaled by the calibration loop the worker times right after it."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=root,
                            env=_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        loop = float(proc.stdout.readline())
    except ValueError:
        _stop(proc)
        raise BenchError(f"worker did not become ready (exit {proc.returncode})") from None
    return proc, [setup, setup * CAL_REF_S / loop]


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream:
            stream.close()


def _finish(proc: subprocess.Popen, command: str) -> None:
    try:
        proc.communicate(command + "\n", timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"worker did not finish within {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def _set_up_only(root: Path, job_path: Path) -> list[float]:
    proc, setup = _start_worker(root, job_path)
    _finish(proc, "quit")
    return setup


def _verdicts(inputs: gen.Inputs, result: dict) -> dict[int, oracle.Verdict]:
    """One oracle verdict per shard that ran."""
    verdicts = {}
    for key, outputs in result["first"].items():
        index = int(key)
        shard = inputs.shards[index]
        if outputs[0] == "error":
            verdicts[index] = oracle.Verdict(shard.items, 0, (f"{shard.name}: {outputs[1]}",))
            continue
        workload = inputs.workload
        if workload == "filter":
            code, stats, kept, discarded = outputs
            verdict = oracle.check_filter(shard.truth, shard.text, kept, discarded, stats)
        elif workload == "score":
            code, text = outputs
            verdict = oracle.check_score(shard.truth, result["per_pair"][key], text)
        elif workload == "tokenize":
            code1, code2, phonemes, back, mismatches = outputs
            code = code1 or code2
            verdict = oracle.check_tokenize(shard.truth, phonemes, back, mismatches)
        else:
            code, text = outputs
            verdict = oracle.check_gradcheck(code, text)
        if code != 0:
            verdict = oracle.Verdict(shard.items, 0, (f"{shard.name}: exit code {code}",))
        verdicts[index] = verdict
    return verdicts


def _tally(inputs: gen.Inputs, result: dict, ops: list) -> tuple[int, int, int, list]:
    """(attempted, failed, failed by known defects, reasons) over the ops."""
    verdicts = _verdicts(inputs, result)
    changed = set(result["changed"])
    attempted = failed = known = 0
    reasons = []
    for number, (index, _) in enumerate(ops):
        items = inputs.shards[index].items
        verdict = verdicts[index]
        attempted += items
        if number in changed:
            failed += items
            reasons.append(f"{inputs.shards[index].name}: output changed between ops")
        else:
            failed += verdict.failed
            known += verdict.known
            reasons.extend(verdict.reasons)
    return attempted, failed, known, list(dict.fromkeys(reasons))[:5]


def _write_inputs(inputs: gen.Inputs, workdir: Path) -> list[dict]:
    shards = []
    for shard in inputs.shards:
        if shard.text is None:
            shards.append({"config": shard.truth[0], "items": shard.items})
            continue
        path = workdir / shard.name
        path.write_text(shard.text, "utf-8")
        shards.append({"path": str(path), "items": shard.items})
    return shards


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (root / "src" / "vietphon" / "cli.py").is_file() or not (root / gen.LEXICON).is_file():
        raise BenchError(f"no vietphon sources under {root / 'src'}; run from the root of a checkout")
    inputs = gen.generate(workload, seed, root)
    scratch = root / ".perfbench_tmp"
    workdir = scratch / f"{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        job_path = workdir / "job.json"
        job = {"workload": workload, "seconds": seconds, "trace": trace, "dir": str(workdir),
               "src": str(root / "src"), "result": str(workdir / "result.json"),
               "trace_ops": TRACE_OPS[workload], "shards": _write_inputs(inputs, workdir)}
        job_path.write_text(json.dumps(job), "utf-8")
        around = 0 if trace else SETUP_REPS_AROUND
        setups = [_set_up_only(root, job_path) for _ in range(around)]
        proc, setup = _start_worker(root, job_path)
        setups.append(setup)
        _finish(proc, "run")
        setups += [_set_up_only(root, job_path) for _ in range(around)]
        result = json.loads((workdir / "result.json").read_text("utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    ops = result.get("untraced_ops", []) + result["ops"]  # run order
    attempted, failed, known, reasons = _tally(inputs, result, ops)
    scaled = scaled_seconds([seconds for _, seconds in ops], result["calibration"])
    summary = {"workload": workload, "seed": seed, "trace": int(trace), "ops": len(result["ops"]),
               "inputs": inputs.properties, "src_nonblank_lines": src_lines(root),
               "failed_frac": failed / attempted, "failed_by_known_defects": known,
               "known_defects": oracle.KNOWN_DEFECTS if known else {}, "failures": reasons,
               "calibration_ms_median": statistics.median(result["calibration"]) * 1000.0}
    if trace:
        untraced = sum(scaled[:len(result["untraced_ops"])])
        metrics = _layer_metrics(result["layers"], 1.0 - untraced / sum(scaled[len(result["untraced_ops"]):]))
        units = per_layer_units()
    else:
        items = [inputs.shards[index].items for index, _ in ops]
        metrics = _end_to_end(items, scaled, [s for _, s in setups], result["peak_rss_mb"])
        summary["unscaled"] = _end_to_end(items, [seconds for _, seconds in ops],
                                          [s for s, _ in setups], result["peak_rss_mb"])
        units = END_TO_END
    return {
        "summary": summary,
        "result": {
            "correct": failed == known,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def scaled_seconds(seconds: list[float], calibration: list[float]) -> list[float]:
    """Op times scaled to the reference machine speed.

    ``calibration[k]`` is the calibration loop's time just before op k.  Each
    op's time is multiplied by CAL_REF_S over the median of the six loop times
    around it, so that the host's speed changing during a run, or from run to
    run, cancels out.
    """
    return [took * CAL_REF_S / statistics.median(calibration[max(0, k - 2):k + 4])
            for k, took in enumerate(seconds)]


def _end_to_end(items: list[int], seconds: list[float], setups: list[float], peak_rss_mb: float) -> dict:
    op_ms = [took * 1000.0 for took in seconds]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": sum(items) / sum(seconds),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(layers: dict, overhead_frac: float) -> dict:
    metrics = {}
    for fn, stats in LAYER_STATS.items():
        row = layers.get(fn, {"calls": 0, "fail": 0, "self_s": 0.0, "value": 0.0})
        for stat in stats:
            if stat == "cells":
                value = int(row["value"])
            elif stat == "accept_ratio":
                value = row["value"] / row["calls"] if row["calls"] else 0.0
            else:
                value = row[stat]
            metrics[f"{fn}.{stat}"] = value
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            outcome = run(root, workload, args.seed, args.seconds, bool(args.trace))
            _print(outcome)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


def _print(outcome: dict) -> None:
    summary, result = outcome["summary"], outcome["result"]
    print(f"# {summary['workload']} seed={summary['seed']} trace={summary['trace']} ops={summary['ops']}")
    for key in ("inputs", "src_nonblank_lines", "failed_by_known_defects", "known_defects", "failures",
                "calibration_ms_median", "unscaled"):
        if key in summary:
            print(f"#   {key}: {json.dumps(summary[key], ensure_ascii=False)}")
    print(f"#   failed_frac: {summary['failed_frac']:.6f} ratio "
          f"({result['failed']} of {result['attempted']} items)")
    for name, metric in result["metrics"].items():
        print(f"#   {name}: {metric['value']} {metric['unit']}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())

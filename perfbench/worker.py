"""One benchmark process: set up, report ready, run the ops, write the results.

run.py starts it in a fresh interpreter with ``PYTHONPATH=src`` and BLAS
pinned to one thread::

    python3 perfbench/worker.py JOB.json

It prints ``ready`` once the first op could start, then the time of a
calibration loop (below), then reads one command from stdin: ``run`` runs the
ops, anything else exits.  An op is one
``cli.main([...])`` call on one shard, plus the library calls named for the
workload; each op is timed alone, and its outputs are read back from the
files afterwards, outside the timed part.  Outputs of a shard are kept the
first time; a later op on the same shard must reproduce them exactly.
Before the first op and after each op a fixed calibration loop is timed;
run.py uses those times to scale the op times to a reference machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import unicodedata
from pathlib import Path

#: at least this many ops per timed run, so the p90 has ten samples beyond it
MIN_OPS = 100


def _cli(cli, argv):
    """(exit code, stdout text) of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Filter:
    def __init__(self, cli, job):
        self.cli = cli
        self.kept = str(Path(job["dir"]) / "kept.jsonl")
        self.discarded = str(Path(job["dir"]) / "discarded.jsonl")

    def op(self, shard):
        return _cli(self.cli, ["filter", shard["path"], "-o", self.kept, "--discard-file", self.discarded])

    def outputs(self, result):
        code, stats = result
        return [code, stats, Path(self.kept).read_text("utf-8"), Path(self.discarded).read_text("utf-8")]


class Score:
    def __init__(self, cli, job):
        from vietphon import metrics

        self.cli, self.metrics = cli, metrics

    def op(self, shard):
        return _cli(self.cli, ["score", "--pairs", shard["path"]])

    def outputs(self, result):
        return list(result)

    def per_pair(self, path):
        """The library's own per-pair reports, for the oracle (not timed)."""
        m = self.metrics
        reports = []
        for line in Path(path).read_text("utf-8").splitlines():
            pair = json.loads(line)
            ref, hyp = pair["ref"], pair["hyp"]
            try:
                report = {"cer": m.cer(ref, hyp).as_dict(), "wer": m.wer(ref, hyp).as_dict()}
                report.update(m.per_components(ref, hyp).as_dict())
                nfc = [unicodedata.normalize("NFC", text) for text in (ref, hyp)]
                report["wer_nfc"] = m.wer(*nfc).as_dict()  # classifies the known wer-nfd defect
            except Exception as exc:  # reported as a failed shard
                report = {"error": repr(exc)}
            reports.append(report)
        return reports


class Tokenize:
    def __init__(self, cli, job):
        from vietphon import lexicon, tokenizer, vocab

        self.cli, self.tokenizer = cli, tokenizer
        self.vocab = vocab.build_vocab(lexicon.load_lexicon())
        self.phonemes = str(Path(job["dir"]) / "phonemes.txt")
        self.back = str(Path(job["dir"]) / "back.txt")

    def op(self, shard):
        code1, _ = _cli(self.cli, ["tokenize", shard["path"], "-o", self.phonemes])
        code2, _ = _cli(self.cli, ["detokenize", self.phonemes, "-o", self.back])
        encode, decode = self.vocab.encode, self.vocab.decode
        mismatches = []
        with open(self.phonemes, encoding="utf-8") as fh:
            for line in fh:
                syllables = self.tokenizer.parse_phonemes(line)
                mismatches.append(sum(decode(encode(s)) != s for s in syllables))
        return code1, code2, mismatches

    def outputs(self, result):
        code1, code2, mismatches = result
        return [code1, code2, Path(self.phonemes).read_text("utf-8"),
                Path(self.back).read_text("utf-8"), mismatches]


class Gradcheck:
    def __init__(self, cli, job):
        self.cli = cli

    def op(self, shard):
        return _cli(self.cli, ["demo-head", "--configs", "1", "--seed", str(shard["config"])])

    def outputs(self, result):
        return list(result)


WORKLOADS = {"filter": Filter, "score": Score, "tokenize": Tokenize, "gradcheck": Gradcheck}


_CAL_REF, _CAL_HYP = "calibration of the machine", "calibrating the machines"


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop (edit-distance table, dict and str
    work), run between ops to measure how fast the machine is right now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(12):
        prev = list(range(len(_CAL_HYP) + 1))
        for i, x in enumerate(_CAL_REF, start=1):
            row = [i]
            for j, y in enumerate(_CAL_HYP, start=1):
                row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
            prev = row
        for word in (_CAL_REF + " " + _CAL_HYP).upper().split():
            counts[word.lower()] = counts.get(word.lower(), 0) + prev[-1]
    return time.perf_counter() - start


class Runner:
    def __init__(self, workload, shards):
        self.workload, self.shards = workload, shards
        self.first: dict[int, list] = {}
        self.changed: list[int] = []  # ops, in run order, whose outputs differ from the shard's first
        self.done = 0
        self.calibration = [calibrate()]  # before the first op and after each op

    def run_op(self, index: int) -> list:
        """[shard index, seconds] of one op; its outputs are kept or compared."""
        shard = self.shards[index]
        start = time.perf_counter()
        try:
            result = self.workload.op(shard)
        except Exception as exc:  # a crash is a failed op, reported with the items
            result = exc
        seconds = time.perf_counter() - start
        try:
            outputs = (["error", repr(result)] if isinstance(result, Exception)
                       else self.workload.outputs(result))
        except OSError as exc:  # an output file was not written
            outputs = ["error", repr(exc)]
        if index not in self.first:
            self.first[index] = outputs
        elif outputs != self.first[index]:
            self.changed.append(self.done)
        self.done += 1
        self.calibration.append(calibrate())
        return [index, seconds]

    def timed(self, seconds: float) -> list[list]:
        """Whole passes over the shards until `seconds` of op time and MIN_OPS ops.

        Whole passes keep the mix of shards, and so the cost per item, the
        same in every run."""
        ops, spent = [], 0.0
        while spent < seconds or len(ops) < MIN_OPS or len(ops) % len(self.shards):
            ops.append(self.run_op(len(ops) % len(self.shards)))
            spent += ops[-1][1]
        return ops

    def one_pass(self, count: int) -> list[list]:
        return [self.run_op(k % len(self.shards)) for k in range(count)]


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text("utf-8"))
    from vietphon import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"vietphon imported from {cli.__file__}, not from {job['src']}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            workload = WORKLOADS[job["workload"]](cli, job)
    else:
        workload = WORKLOADS[job["workload"]](cli, job)
    print("ready", flush=True)
    # after the set-up clock stopped: how fast the machine ran for this process
    print(sorted(calibrate() for _ in range(3))[1], flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    runner = Runner(workload, job["shards"])
    result = {}
    if tracer is None:
        result["ops"] = runner.timed(job["seconds"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        count = job["trace_ops"]
        result["untraced_ops"] = runner.one_pass(count)
        with tracer.installed():
            result["ops"] = runner.one_pass(count)
        result["layers"] = {name: vars(row) for name, row in tracer.layers().items()}
    result["calibration"] = runner.calibration
    result["first"] = {str(k): v for k, v in runner.first.items()}
    result["changed"] = runner.changed
    if isinstance(workload, Score):
        result["per_pair"] = {str(k): workload.per_pair(runner.shards[k]["path"]) for k in runner.first}
    Path(job["result"]).write_text(json.dumps(result, ensure_ascii=False), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

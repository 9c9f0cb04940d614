"""Trace spans around the program's public functions, from outside the program.

``Tracer.installed()`` replaces each traced function with a wrapper at every
place a caller looks it up: the defining module and every ``vietphon`` module
that imported the name (``corpus.parse_syllable``, ``metrics.tokenize``,
``tokenizer.validate``, ...), or the class for a method.  Spans are kept in
memory, each with the index of its parent span; self time is a span's
duration minus the time its child spans cover.  Leaving the context restores
every original function.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


def _cells(args, result):
    ref, hyp = args[0], args[1]
    return (len(ref) + 1) * (len(hyp) + 1)


def _accepted(args, result):
    return 1 if result else 0


#: (module, qualified name, optional per-call value recorded on the span)
TRACED = (
    ("tokenizer", "strip_tone", None),
    ("tokenizer", "parse_syllable", None),
    ("tokenizer", "render_syllable", None),
    ("tokenizer", "tokenize", None),
    ("tokenizer", "detokenize", None),
    ("tokenizer", "format_phonemes", None),
    ("tokenizer", "parse_phonemes", None),
    ("phonology", "validate", None),
    ("corpus", "clean_words", None),
    ("corpus", "load_manifest", None),
    ("corpus", "is_vietnamese_word", _accepted),
    ("corpus", "filter_manifest", None),
    ("metrics", "align", _cells),
    ("metrics", "cer", None),
    ("metrics", "wer", None),
    ("metrics", "per_components", None),
    ("metrics", "score_pairs", None),
    ("vocab", "Vocabulary.encode", None),
    ("vocab", "Vocabulary.decode", None),
    ("vocab", "build_vocab", None),
    ("lexicon", "load_lexicon", None),
    ("head", "sequence_loss", None),
    ("head", "sequence_grads", None),
    ("head", "finite_difference_grads", None),
    ("head", "toy_batch", None),
    ("head", "run_grad_suite", None),
    ("cli", "main", None),
)

PACKAGE = "vietphon"


@dataclass
class LayerStats:
    calls: int = 0
    fail: int = 0
    self_s: float = 0.0
    value: float = 0.0  # sum of the per-call values (cells, accepted words)


@dataclass
class Tracer:
    #: (name, start, end, parent index, raised, value); None while still open
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                value = 0 if raised or note is None else note(args, result)
                spans[index] = (name, start, end, parent, raised, value)

        return traced

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for owner, attr, original, name, note in patch_sites():
                setattr(owner, attr, self.wrap(name, original, note))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layers(self) -> dict[str, LayerStats]:
        """Per traced function: calls, raised calls, self time and value sum."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, LayerStats] = {}
        for (name, start, end, _, raised, value), child_time in zip(self.spans, covered):
            row = stats.setdefault(name, LayerStats())
            row.calls += 1
            row.fail += raised
            row.self_s += (end - start) - child_time
            row.value += value
        return stats


def patch_sites():
    """(owner, attribute, original, span name, note) for every lookup site."""
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    sites = []
    for module_name, qualname, note in TRACED:
        defining = sys.modules[f"{PACKAGE}.{module_name}"]
        name = f"{module_name}.{qualname}"
        if "." in qualname:
            cls_name, method = qualname.split(".")
            cls = getattr(defining, cls_name)
            sites.append((cls, method, cls.__dict__[method], name, note))
            continue
        original = getattr(defining, qualname)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    sites.append((module, attr, original, name, note))
    return sites

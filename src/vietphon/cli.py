"""Command-line entry point for all pipelines.

Exit codes: 0 success, 1 data error (reported on stderr with context),
2 usage error.  All I/O is UTF-8; decomposed input is accepted unless
--no-nfd-ok is given, output is always canonically composed.  Input lines
end at "\n" alone (one "\r" before it is dropped), so a JSON string may hold
any other line separator raw.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import unicodedata

from . import corpus, head, lexicon, metrics, phonology, tokenizer, vocab

class DataError(Exception):
    """Wraps data-level failures with file/line context for stderr."""


@contextlib.contextmanager
def _os_errors(path: str):
    """Report an OSError on path as one DataError line: "path: reason"."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def _source(path: str) -> str:
    """The name an error gives an input path: "<stdin>" for "-"."""
    return "<stdin>" if path == "-" else path


def _read_lines(path: str):
    """Lines of a UTF-8 file, or of stdin for "-"; bad bytes raise DataError with file:line.

    A line ends at "\n" alone, less one "\r" before it, so CRLF reads as LF.
    """
    source = _source(path)
    with _os_errors(source):
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{source}:{lineno}: invalid UTF-8 ({exc.reason})") from None
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # the text is empty or ends with "\n"
    return [line.removesuffix("\r") for line in lines]


@contextlib.contextmanager
def _open_out(path: str | None):
    """Context for output: sys.stdout, left open, for None or "-"; else a file closed on exit.

    An OSError while the file is opened, written or closed is one DataError
    naming it; an error on stdout goes on to main.
    """
    if path in (None, "-"):
        yield sys.stdout
    else:
        with _os_errors(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_records(outputs) -> None:
    """Write each (path, records) output; all are open before any is written.

    The last output is written first, inside every other's context, so an
    error names its own file.
    """
    if outputs:
        (path, records), *rest = outputs
        with _open_out(path) as fh:
            _write_records(rest)
            for record in records:
                print(record.to_json(), file=fh)


def _cmd_tokenize(args) -> int:
    source = _source(args.input)
    with _open_out(args.output) as out:
        for lineno, line in enumerate(_read_lines(args.input), start=1):
            if not args.nfd_ok and unicodedata.normalize("NFC", line) != line:
                raise DataError(f"{source}:{lineno}: input is not canonically composed (--no-nfd-ok)")
            try:
                syllables = tokenizer.tokenize(" ".join(corpus.clean_words(line)))
            except tokenizer.TokenizeError as exc:
                raise DataError(f"{source}:{lineno}: {exc}") from None
            if args.strict:
                for index, syllable in enumerate(syllables):
                    problems = phonology.validate(syllable)
                    if problems:
                        raise DataError(f"{source}:{lineno}: word {index}: {'; '.join(problems)}")
            print(tokenizer.format_phonemes(syllables), file=out)
    return 0


def _cmd_detokenize(args) -> int:
    with _open_out(args.output) as out:
        for lineno, line in enumerate(_read_lines(args.input), start=1):
            try:
                print(tokenizer.detokenize(tokenizer.parse_phonemes(line)), file=out)
            except ValueError as exc:
                raise DataError(f"{_source(args.input)}:{lineno}: {exc}") from None
    return 0


def _cmd_roundtrip(args) -> int:
    words = lexicon.load_lexicon() if args.input is None else lexicon.read_words(_read_lines(args.input))
    mismatches = []
    for word in words:
        try:
            rendered = tokenizer.render_syllable(tokenizer.parse_syllable(word).syllable)
        except tokenizer.TokenizeError as exc:
            mismatches.append(f"{word}\t{exc}")
            continue
        if rendered != unicodedata.normalize("NFC", word):
            mismatches.append(f"{word}\t{rendered}")
    for line in mismatches:
        print(line, file=sys.stderr)
    print(f"{len(words)} words, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def _cmd_vocab(args) -> int:
    lines = None if args.lexicon is None else _read_lines(args.lexicon)
    words = lexicon.load_lexicon() if lines is None else lexicon.read_words(lines)
    try:
        built = vocab.build_vocab(words)
    except tokenizer.TokenizeError as exc:  # the bundled lexicon parses; this is a --lexicon word
        lineno = next(n for n, line in enumerate(lines, start=1) if exc.word in lexicon.read_words([line]))
        raise DataError(f"{_source(args.lexicon)}:{lineno}: {exc}") from None
    if args.output:
        with _open_out(args.output) as out:
            vocab.write_vocab(built, out)
    # with -o - stdout holds the table alone
    report_to = sys.stderr if args.output == "-" else sys.stdout
    print(json.dumps(vocab.vocab_report(built), ensure_ascii=False, indent=2), file=report_to)
    return 0


def _cmd_rules(args) -> int:
    print(phonology.rules_text(), end="")
    return 0


def _cmd_score(args) -> int:
    pairs, places = [], []  # places: the file:line of each pair's ref and hyp
    if args.pairs:
        for lineno, line in enumerate(_read_lines(args.pairs), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                pair = (payload["ref"], payload["hyp"])
                if not all(isinstance(text, str) for text in pair):
                    raise TypeError("ref and hyp must be strings")
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise DataError(f"{_source(args.pairs)}:{lineno}: bad pair line ({exc})") from None
            pairs.append(pair)
            places.append((f"{_source(args.pairs)}:{lineno}",) * 2)
    else:
        refs = _read_lines(args.ref)
        hyps = _read_lines(args.hyp)
        if len(refs) != len(hyps):
            raise DataError(f"{_source(args.ref)}: {len(refs)} lines vs "
                            f"{_source(args.hyp)}: {len(hyps)} lines")
        pairs = list(zip(refs, hyps))
        places = [(f"{_source(args.ref)}:{n}", f"{_source(args.hyp)}:{n}") for n in range(1, len(pairs) + 1)]
    try:
        report = metrics.score_pairs(
            pairs,
            include_spaces=args.cer_include_spaces,
            alignment=args.per_alignment,
            with_per=not args.no_per,
        )
    except tokenizer.TokenizeError as exc:
        # the first text holding the word failed first: ref before hyp, pair by pair
        place = next(where for pair, pair_places in zip(pairs, places)
                     for text, where in zip(pair, pair_places) if exc.word in text.split())
        raise DataError(f"{place}: PER tokenization failed: {exc} (use --no-per to skip)") from None
    print(json.dumps(report, ensure_ascii=False, indent=2))
    return 0


def _cmd_filter(args) -> int:
    try:
        records = corpus.load_manifest(_read_lines(args.manifest))
    except corpus.MalformedManifestLine as exc:
        raise DataError(f"{_source(args.manifest)}: {exc}") from None
    kept, discarded, stats = corpus.filter_manifest(records)
    # kept is listed last so that it is written first: on one shared stdout it leads
    _write_records([(path, chosen) for path, chosen in ((args.discard_file, discarded), (args.output, kept))
                    if path])
    if args.expected_stats:
        stats["reference"] = {
            "dataset": args.expected_stats,
            "percent": corpus.REFERENCE_CONTAMINATION[args.expected_stats],
            "note": "informative comparison only; verdicts here are parse-based",
        }
    print(json.dumps(stats, ensure_ascii=False, indent=2))
    return 0


def _cmd_demo_head(args) -> int:
    # with --dump-params - stdout holds the parameter file alone
    report_to = sys.stderr if args.dump_params == "-" else sys.stdout
    if args.dump_params:
        params = head.init_params(head.HeadConfig(dim=4, v_init=8, v_rhyme=10), seed=args.seed)
        with _open_out(args.dump_params) as out:
            head.write_params(params, out)
    if args.load_params:
        try:
            params = head.load_params(_read_lines(args.load_params))
            # finite values can still overflow the check: an error, not a warning and a verdict
            with head.np.errstate(over="raise", divide="raise", invalid="raise"):
                report = head.grad_check(params, [[0, 0, 0]], {h: [0] for h in head.HEADS}, residual=args.residual)
        except head.MalformedParamLine as exc:
            raise DataError(f"{_source(args.load_params)}:{exc.line_number}: {exc}") from None
        except (ValueError, IndexError) as exc:  # IndexError: a space with no id 0
            raise DataError(f"{_source(args.load_params)}: {exc}") from None
        except FloatingPointError as exc:
            raise DataError(f"{_source(args.load_params)}: values too large for the gradient check: {exc}") from None
        print(json.dumps(report, indent=2), file=report_to)
        return 0 if report["passed"] else 1
    summary = head.run_grad_suite(
        n_configs=args.configs, base_seed=args.seed, residual=args.residual
    )
    print(json.dumps(summary, indent=2), file=report_to)
    return 0 if summary["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; no argument has a mutable default."""
    parser = argparse.ArgumentParser(prog="vietphon",
                                     description="Vietnamese phonemic analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="text to phoneme lines (init|glide|vowel|final|tone)")
    p.add_argument("input", nargs="?", default="-", help="text file, one utterance per line")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--strict", action="store_true", default=False,
                   help="also enforce the stop-final tone restriction")
    p.add_argument("--nfd-ok", action=argparse.BooleanOptionalAction,
                   default=True, help="accept decomposed input")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="phoneme lines back to text")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("roundtrip", help="parse+render self-check over a word list")
    p.add_argument("input", nargs="?", default=None,
                   help="word list file (default: bundled lexicon)")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("vocab", help="build the token spaces, report counts")
    p.add_argument("--lexicon", default=None, help="word list (default: bundled lexicon)")
    p.add_argument("-o", "--output", default=None,
                   help='write the token table here ("-": stdout, report to stderr)')
    p.set_defaults(func=_cmd_vocab)

    p = sub.add_parser("rules", help="dump the grapheme rule table for audit")
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("score", help="CER/WER/PER report for reference vs hypothesis")
    p.add_argument("--ref", help="reference transcript file")
    p.add_argument("--hyp", help="hypothesis transcript file")
    p.add_argument("--pairs", help='JSONL file of {"ref": ..., "hyp": ...} lines')
    p.add_argument("--cer-include-spaces", action="store_true", default=False)
    p.add_argument("--per-alignment", choices=("tuple", "flat"), default="tuple")
    p.add_argument("--no-per", action="store_true", help="skip PER (unparseable transcripts)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("filter", help="drop manifest records with non-Vietnamese words")
    p.add_argument("manifest", help="JSONL manifest with id/transcript/split fields")
    p.add_argument("-o", "--output", default=None, help="kept records (JSONL)")
    p.add_argument("--discard-file", default=None, help="rejected records (JSONL)")
    p.add_argument("--expected-stats", choices=sorted(corpus.REFERENCE_CONTAMINATION),
                   default=None, help="also print published reference percentages")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("demo-head", help="run the gradient verification suite")
    p.add_argument("--configs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--residual", choices=("normalized", "input"), default="normalized")
    p.add_argument("--dump-params", default=None,
                   help='write a seeded toy parameter file ("-": stdout, report to stderr)')
    p.add_argument("--load-params", default=None, help='gradient-check a parameter file ("-": stdin)')
    p.set_defaults(func=_cmd_demo_head)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "score" and not args.pairs and not (args.ref and args.hyp):
        parser.error("score requires --pairs or both --ref and --hyp")
    if args.command == "score" and args.pairs and (args.ref or args.hyp):
        parser.error("score takes --pairs or --ref and --hyp, not both")
    if (args.command == "filter" and args.output and args.discard_file
            and "-" not in (args.output, args.discard_file)
            and os.path.realpath(args.output) == os.path.realpath(args.discard_file)):
        parser.error(f"filter -o and --discard-file name the same file: {args.output}")
    if args.command == "demo-head" and args.configs < 0:
        parser.error(f"demo-head --configs must be 0 or more, got {args.configs}")
    if args.command == "demo-head" and args.seed < 0:
        parser.error(f"demo-head --seed must be 0 or more, got {args.seed}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write to stdout is reported here, not at exit
        return code
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # _os_errors names every file; this one is stdout
        # the interpreter flushes stdout again at exit: give it nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: <stdout>: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

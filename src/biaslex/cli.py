"""Command-line entry point.

Exit codes: 0 success, 1 validation error, 2 backend failure, 3 I/O error.
Errors are printed to stderr as one-line JSON diagnostics.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import generation as gen
from . import report as report_mod
from . import scoring
from .artifacts import write_jsonl
from .identities import Language, PromptMethod
from .lexicon import (
    DEFAULT_SIMILARITY_THRESHOLD,
    LexiconError,
    TableSimilarityOracle,
    TableSynonymProvider,
    expand_lexicon,
    load_lexicon,
    save_lexicon,
    seed_lexicon_path,
)
from .pipeline import (
    DETECTORS,
    RunConfig,
    StageError,
    aggregate_stage,
    generate_stage,
    ingest_stage,
    load_config,
    pipeline_run,
    report_stage,
    score_stage,
)
from .preprocess import load_stopwords
from .prompts import (
    PromptError,
    prompt_record,
    render_debias_prompt,
    iter_prompt_matrix,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2
EXIT_IO = 3


def _diagnostic(error: Exception) -> None:
    print(
        json.dumps(
            {"error": type(error).__name__, "message": str(error)},
            ensure_ascii=False,
        ),
        file=sys.stderr,
    )


def _parse_language(name: str) -> Language:
    try:
        return Language(name.lower())
    except ValueError:
        raise ValueError(
            f"unknown language {name!r}; expected one of "
            f"{', '.join(l.value for l in Language)}"
        ) from None


def _parse_methods(raw: str) -> list[PromptMethod]:
    methods = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            method = PromptMethod(token)
        except ValueError:
            raise ValueError(f"unknown method {token!r}") from None
        if method in methods:
            raise ValueError(f"--methods repeats {token!r}")
        methods.append(method)
    if not methods:
        raise ValueError("no methods given")
    return methods


def cmd_prompts_emit(args: argparse.Namespace) -> int:
    language = _parse_language(args.language)
    methods = _parse_methods(args.methods)
    debias_methods = [m for m in methods if m.is_debias]
    originals = {}
    if debias_methods:
        if not args.source_records:
            raise ValueError(
                "debias prompts wrap an original output; pass --source-records"
            )
        for record in corpus_mod.read_records(args.source_records):
            if record.method is PromptMethod.ORIGINAL and record.language is language:
                originals[(record.identity, record.application)] = record.raw_output

    def records():
        for identity, app, prompt in iter_prompt_matrix(language):
            for method in methods:
                if method is PromptMethod.ORIGINAL:
                    text = prompt
                else:
                    source = originals.get((identity, app))
                    if source is None:
                        raise ValueError(
                            f"no original output for {identity} / {app.kind.value}"
                        )
                    text = render_debias_prompt(method, source)
                yield prompt_record(identity, app, language, method, text)

    count = write_jsonl(args.out, records())
    if not args.quiet:
        print(f"wrote {count} prompts to {args.out}")
    return EXIT_OK


def cmd_lexicon_validate(args: argparse.Namespace) -> int:
    lexicon = load_lexicon(args.path)  # a refused row raises, naming its line
    if not args.quiet:
        print(f"ok: {len(lexicon)} entries")
    return EXIT_OK


def cmd_lexicon_expand(args: argparse.Namespace) -> int:
    lexicon = load_lexicon(args.path)
    provider = TableSynonymProvider.from_csv(args.synonyms)
    oracle = TableSimilarityOracle.from_csv(args.similarity)
    expanded = expand_lexicon(lexicon, provider, oracle, args.threshold)
    save_lexicon(expanded, args.out)
    if not args.quiet:
        print(f"expanded {len(lexicon)} -> {len(expanded)} entries at {args.out}")
    return EXIT_OK


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration at ``--config``, with ``--seed`` applied."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_generate_run(args: argparse.Namespace) -> int:
    counts, _ = generate_stage(_run_config(args))
    if not args.quiet:
        print(json.dumps(counts, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    stopwords = load_stopwords(args.stopwords)
    documents, summary = ingest_stage(
        corpus_mod.read_records(args.infile), args.out, args.detector, stopwords
    )
    if not args.quiet:
        print(
            f"kept {summary.kept}/{summary.input_records} records; "
            f"{len(documents)} corpora at {args.out}"
        )
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    corpora = corpus_mod.read_corpus_dir(args.corpus)
    if not corpora:
        raise FileNotFoundError(f"no corpus_*.jsonl files in {args.corpus}")
    lexicon, scope = load_lexicon(args.lexicon), scoring.Scope(args.scope)
    cells = score_stage(corpora, lexicon, scope, args.out, args.overall_out)
    if not args.quiet:
        print(f"scored {len(cells)} documents to {args.out}")
    return EXIT_OK


def cmd_aggregate(args: argparse.Namespace) -> int:
    paths = aggregate_stage(scoring.read_scores(args.scores), Path(args.out))
    if not args.quiet:
        print(f"wrote {len(paths)} averages files to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    cells = scoring.read_scores(args.scores)
    if not cells:
        raise ValueError(f"no score rows in {args.scores}")
    # the languages and methods scored, in canonical order
    languages = {cell.key.language for cell in cells}
    methods = {cell.key.method for cell in cells}
    paths = report_stage(
        cells,
        scoring.read_overall_terms(args.overall),
        [language for language in Language if language in languages],
        [method for method in PromptMethod if method in methods],
        Path(args.out),
    )
    if not args.quiet:
        print(f"wrote {len(paths)} reports to {args.out}")
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    summary = pipeline_run(_run_config(args))
    if not args.quiet:
        print(f"pipeline complete; artifacts under {summary['out_dir']}")
    return EXIT_OK


_SEED_HELP = "replaces the config's seed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslex",
        description="Lexicon-based intersectional bias evaluation pipeline",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    prompts = sub.add_parser("prompts", help="render prompt matrices")
    prompts_sub = prompts.add_subparsers(dest="subcommand", required=True)
    emit = prompts_sub.add_parser("emit", help="write one JSONL record per prompt")
    emit.add_argument("--language", required=True)
    emit.add_argument(
        "--methods",
        default="original",
        help="comma-separated: original,simple,complex",
    )
    emit.add_argument(
        "--source-records",
        default=None,
        help="originals JSONL (required for debias methods)",
    )
    emit.add_argument("--out", required=True)
    emit.set_defaults(func=cmd_prompts_emit)

    lexicon = sub.add_parser("lexicon", help="validate or expand a lexicon file")
    lexicon_sub = lexicon.add_subparsers(dest="subcommand", required=True)
    validate = lexicon_sub.add_parser("validate")
    validate.add_argument("path")
    validate.set_defaults(func=cmd_lexicon_validate)
    expand = lexicon_sub.add_parser("expand")
    expand.add_argument("path")
    expand.add_argument("--threshold", type=float, default=DEFAULT_SIMILARITY_THRESHOLD)
    expand.add_argument("--synonyms", required=True, help="lemma,synonyms CSV")
    expand.add_argument("--similarity", required=True, help="a,b,score CSV")
    expand.add_argument("--out", required=True)
    expand.set_defaults(func=cmd_lexicon_expand)

    generate = sub.add_parser("generate", help="run generation against a backend")
    generate_sub = generate.add_subparsers(dest="subcommand", required=True)
    run = generate_sub.add_parser("run")
    run.add_argument("--config", required=True, help="run configuration")
    run.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    run.set_defaults(func=cmd_generate_run)

    ingest = sub.add_parser("ingest", help="clean records and build corpora")
    ingest.add_argument("--in", dest="infile", required=True)
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--stopwords", default=None)
    ingest.add_argument("--detector", choices=DETECTORS, default="stub")
    ingest.set_defaults(func=cmd_ingest)

    score = sub.add_parser("score", help="compute bias scores over corpora")
    score.add_argument("--corpus", required=True, help="corpus directory")
    score.add_argument("--lexicon", default=str(seed_lexicon_path()))
    score.add_argument(
        "--scope", choices=[s.value for s in scoring.Scope], default="identity"
    )
    score.add_argument("--out", required=True)
    score.add_argument("--overall-out", required=True)
    score.set_defaults(func=cmd_score)

    aggregate = sub.add_parser(
        "aggregate", help="average scores along every axis, per application"
    )
    aggregate.add_argument("--scores", required=True)
    aggregate.add_argument("--out", required=True, help="averages directory")
    aggregate.set_defaults(func=cmd_aggregate)

    report = sub.add_parser("report", help="render every per-identity table")
    report.add_argument("--scores", required=True)
    report.add_argument("--overall", required=True)
    report.add_argument("--out", required=True, help="reports directory")
    report.set_defaults(func=cmd_report)

    pipeline = sub.add_parser("pipeline", help="run generate/ingest/score/aggregate/report")
    pipeline.add_argument("--config", required=True, help="run configuration")
    pipeline.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    pipeline.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map onto the validation code
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (
        StageError,
        gen.BackendError,
        OSError,
        ValueError,  # a ConfigError or RowError among them
        KeyError,
        LexiconError,
        PromptError,
        report_mod.ReportError,
        scoring.EmptyCorpusError,
        gen.PrerequisiteMissingError,
    ) as exc:
        _diagnostic(exc)
        # a stage's error exits as its cause would; a cause not listed is 1
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, gen.BackendError):
            return EXIT_BACKEND
        if isinstance(cause, OSError):
            return EXIT_IO
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

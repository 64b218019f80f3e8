"""Command-line surface: sample, estimate, gate, eval, tune.

Exit codes: 0 success, 2 usage/precondition error, 3 network error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import baselines, client, confidence, dataset, evaluation
from .client import ENDPOINT_ENV, SamplingConfig, SeedMode
from .embeddings import EmbeddingProviderConfig, ProviderKind, prefetch
from .errors import EndpointError, HonestError, ProviderUnavailable
from .gate import DEFAULT_REFUSAL_MESSAGE, decide, decision_to_json
from .model import Language, Origin, Program, SampleSet
from .similarity import SimilarityWeights

T = TypeVar("T")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NETWORK = 3

METHODS = ("honest", "avg-prob", "product-prob", "self-ask-code",
           "self-ask-req", "knn-bm25", "knn-embed")


class CliError(Exception):
    """A usage or precondition error: ``main`` prints it and exits 2."""


def _load_config_file(path: Optional[str]) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8-sig").split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(flag: Optional[str], env_name: Optional[str],
             file_values: dict[str, str], file_key: str) -> Optional[str]:
    # precedence: flags > environment > config file
    if flag is not None:
        return flag
    if env_name and os.environ.get(env_name):
        return os.environ[env_name]
    return file_values.get(file_key)


def _resolved_config(args) -> dict:
    file_values = _load_config_file(args.config)
    return {
        "endpoint": _resolve(getattr(args, "endpoint", None), ENDPOINT_ENV,
                             file_values, "endpoint"),
        "model": _resolve(getattr(args, "model", None), None, file_values, "model"),
        "seed": args.seed,
    }


def _checked(make: Callable[..., T], **fields) -> T:
    """``make(**fields)`` for a config built from flags: the ValueError its
    range checks raise becomes a usage error."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _provider_from_args(args) -> EmbeddingProviderConfig:
    if args.provider == "remote":
        if not args.embed_endpoint or not args.embed_model:
            raise CliError("remote provider needs --embed-endpoint and --embed-model")
        return _checked(EmbeddingProviderConfig, kind=ProviderKind.REMOTE,
                        endpoint=args.embed_endpoint, model_name=args.embed_model,
                        dimension=args.dimension)
    return _checked(EmbeddingProviderConfig, kind=ProviderKind.LOCAL_HASHED,
                    dimension=args.dimension)


def _weights_from_args(args) -> SimilarityWeights:
    path = getattr(args, "weights", None)
    if path and Path(path).exists():
        try:
            return confidence.load_weights(path)
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise CliError(f"bad weights file {path}: "
                           f"{type(exc).__name__}: {exc}") from None
    if path:
        print(f"warning: weights file {path} not found; using defaults",
              file=sys.stderr)
    return SimilarityWeights.uniform()


def _sampling_config(resolved: dict, **fields) -> SamplingConfig:
    endpoint = resolved["endpoint"]
    if not endpoint:
        raise CliError("no endpoint configured (flag, HONEST_ENDPOINT, or config file)")
    model = resolved["model"]
    if not model:
        raise CliError("no model configured")
    return _checked(SamplingConfig, endpoint=endpoint, model=model, **fields)


# ---------------------------------------------------------------------------
# Commands


def cmd_sample(args) -> int:
    config = _sampling_config(
        _resolved_config(args), n=args.n, temperature=args.temperature,
        max_tokens=args.max_tokens, parallelism=args.parallelism,
        seed_mode=(SeedMode.FIXED_SCHEDULE if args.preset == "five-temps"
                   else SeedMode.INDEPENDENT),
        audit_log=args.audit_log)
    language = Language.parse(args.language)

    if args.benchmark:
        samples = dataset.load_benchmark(args.benchmark)
        targets = [(s.id, s.requirement, s.language) for s in samples]
    else:
        if args.requirement_file:
            requirement = Path(args.requirement_file).read_text(encoding="utf-8-sig")
        elif args.requirement:
            requirement = args.requirement
        else:
            raise CliError("one of --requirement/--requirement-file/--benchmark required")
        targets = [(args.id, requirement, language)]

    entries = []
    for rid, requirement, lang in targets:
        records = client.sample_records(requirement, lang, config)
        entries.append(dataset.SampleArchiveEntry(
            id=rid, model=config.model,
            programs=tuple(
                dataset.ArchivedProgram(
                    source=r.program.source,
                    temperature=r.program.origin.temperature or 0.0,  # archives -0.0 as 0.0
                    token_probs=r.program.origin.token_probs,
                ) for r in records),
        ))
    dataset.save_samples(entries, args.out)
    print(f"archived {sum(len(e.programs) for e in entries)} program(s) "
          f"for {len(entries)} requirement(s) to {args.out}")
    return EXIT_OK


def _entry_to_sample_set(entry: dataset.SampleArchiveEntry,
                         requirement: str, language: Language) -> SampleSet:
    programs = tuple(
        Program(source=p.source, language=language,
                origin=Origin(sample_index=i, temperature=p.temperature,
                              token_probs=p.token_probs))
        for i, p in enumerate(entry.programs))
    return SampleSet(requirement_id=entry.id, requirement=requirement,
                     programs=programs)


def _labelled(benchmark: Sequence[dataset.BenchmarkSample],
              entries: Sequence[dataset.SampleArchiveEntry], model: str,
              split: str) -> list[tuple]:
    """Each *split* sample labelled for *model*, paired with its archive entry
    for *model* (None when the archive has none)."""
    by_id = {(e.id, e.model): e for e in entries}
    return [(s, by_id.get((s.id, model))) for s in benchmark
            if s.split == split and model in s.labels]


def cmd_estimate(args) -> int:
    provider = _provider_from_args(args)
    weights = _weights_from_args(args)
    language = Language.parse(args.language)
    entries = dataset.load_samples(args.archive)

    lines = []
    for entry in entries:
        sample_set = _entry_to_sample_set(entry, requirement="", language=language)
        report = confidence.estimate_confidence(sample_set, weights, provider)
        lines.append(json.dumps({
            "id": entry.id,
            "model": entry.model,
            "n": report.n,
            "confidence": report.confidence,
            "weights": asdict(weights),
        }, sort_keys=True))
    dataset.write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} confidence report(s) to {args.out}")
    return EXIT_OK


def cmd_gate(args) -> int:
    if not math.isfinite(args.threshold):
        raise CliError(f"--threshold must be a finite number, got {args.threshold!r}")
    reports: dict[str, list[dict]] = {}
    for number, obj in dataset.read_lines(args.report,
                                          {"id", "model", "n", "confidence", "weights"}):
        value = obj.get("confidence")
        if not (isinstance(obj.get("id"), str)
                and "n" in obj and isinstance(value, (int, float))):
            raise CliError(f"report line {number}: expected an object with a "
                           f"string \"id\", \"n\" and a numeric \"confidence\"")
        if isinstance(value, bool) or not 0.0 <= value <= 1.0:
            raise CliError(f"report line {number}: \"confidence\" must be a "
                           f"number in [0, 1], got {value!r}")
        reports.setdefault(obj["id"], []).append(obj)
    if not reports:
        raise CliError("empty report file")
    rid = args.id if args.id is not None else next(iter(reports))
    if rid not in reports:
        raise CliError(f"id {rid!r} not found in report")
    if len(reports[rid]) > 1:
        raise CliError(f"report has {len(reports[rid])} lines for id {rid!r} (models "
                       f"{[o.get('model') for o in reports[rid]]}); keep the one to gate")
    report_obj = reports[rid][0]

    language = Language.parse(args.language)
    # the report line's (id, model); a line without "model" matches by id alone
    entries = [e for e in dataset.load_samples(args.archive)
               if e.id == rid and report_obj.get("model", e.model) == e.model]
    if len(entries) != 1:
        raise CliError(f"id {rid!r}: {len(entries)} archive entries match the report "
                       f"line (models {[e.model for e in entries]}), not one")
    sample_set = _entry_to_sample_set(entries[0], requirement="", language=language)

    report = confidence.ConfidenceReport(
        requirement_id=rid, n=report_obj["n"], confidence=report_obj["confidence"])
    decision = decide(report, sample_set, args.threshold,
                      refusal_message=args.message)
    print(decision_to_json(decision))
    return EXIT_OK


def _scorer(args, train: Sequence[dataset.BenchmarkSample], queries: Sequence[str],
            provider: EmbeddingProviderConfig,
            weights: SimilarityWeights) -> tuple[Callable, bool, dict]:
    """``(score, reads_programs, extra)`` for ``args.method``; *queries* are the
    requirements it will score.

    ``score(sample, sample_set)`` scores one benchmark sample; *sample_set*
    holds the sample's archived programs when *reads_programs*, else None.
    *extra* joins the result line.
    """
    method = args.method
    if method in ("knn-bm25", "knn-embed"):
        if not train:
            raise CliError("K-NNS needs a labeled train split")
        reqs = [s.requirement for s in train]
        labels = [s.labels[args.model] for s in train]
        if method == "knn-embed":  # the index and every query in one batched path
            prefetch(reqs + list(queries), provider)
        index = (baselines.Bm25Index.build(reqs, labels) if method == "knn-bm25"
                 else baselines.EmbeddingCorpus.build(reqs, labels, provider))
        k = args.k if args.k is not None else baselines.tune_k(reqs, labels, index)
        knn = _checked(baselines.KnnConfig, k=k)
        return (lambda sample, _: baselines.knn_confidence(sample.requirement, index, knn),
                False, {"k": k})
    if method in ("self-ask-code", "self-ask-req"):
        sampling = _sampling_config(_resolved_config(args))
        if method == "self-ask-req":
            return (lambda sample, _: baselines.self_ask_requirement(
                sample.requirement, sampling), False, {})
        return (lambda sample, sample_set: baselines.self_ask_code(
            sample.requirement, sample_set.programs, sampling), True, {})
    if method == "honest":
        return (lambda _, sample_set: confidence.estimate_confidence(
            sample_set, weights, provider).confidence, True, {})
    pool = {"avg-prob": baselines.avg_prob,
            "product-prob": baselines.product_prob}[method]
    return (lambda _, sample_set: pool([p.origin for p in sample_set.programs]),
            True, {})


def cmd_eval(args) -> int:
    benchmark = dataset.load_benchmark(args.benchmark)
    entries = dataset.load_samples(args.archive) if args.archive else []
    provider = _provider_from_args(args)
    weights = _weights_from_args(args)

    select = _labelled(benchmark, entries, args.model, args.split)
    if not select:
        raise CliError(f"no {args.split} samples with labels for model {args.model!r}")
    train = [s for s, _ in _labelled(benchmark, (), args.model, "train")]
    score, reads_programs, extra = _scorer(
        args, train, [s.requirement for s, _ in select], provider, weights)

    scored = []
    for sample, entry in select:
        if entry is None and reads_programs:
            raise CliError(f"archive missing entry for id {sample.id!r}, "
                           f"model {args.model!r}")
        sample_set = (_entry_to_sample_set(entry, sample.requirement, sample.language)
                      if reads_programs else None)
        # program counts only when every archived program has a verdict
        verdicts = [p.verdict for p in entry.programs] if entry else [None]
        counted = None not in verdicts
        scored.append(evaluation.ScoredSample(
            id=sample.id, score=score(sample, sample_set),
            label=sample.labels[args.model],
            programs_correct=sum(verdicts) if counted else None,
            programs_total=len(verdicts) if counted else None))

    result = {
        "method": args.method,
        "model": args.model,
        "split": args.split,
        "n_samples": len(scored),
        "auroc": evaluation.auroc(scored),
        "aucpr": evaluation.aucpr(scored, mode=args.pr_mode),
        "pr_mode": args.pr_mode,
        "seed": args.seed,
    }
    result.update(extra)

    if args.sweep_out:
        sweep = evaluation.threshold_sweep(scored)
        rows = ["threshold,shown_correct,shown_erroneous"]
        rows += [f"{p.threshold!r},{p.shown_correct},{p.shown_erroneous}"
                 for p in sweep]
        dataset.write_text(args.sweep_out, "\n".join(rows) + "\n")

    text = json.dumps(result, sort_keys=True)
    if args.out:
        dataset.write_text(args.out, text + "\n")
    print(text)
    width = max(len(k) for k in result)
    for key in sorted(result):
        print(f"  {key:<{width}}  {result[key]}", file=sys.stderr)
    return EXIT_OK


def cmd_tune(args) -> int:
    benchmark = dataset.load_benchmark(args.benchmark)
    entries = dataset.load_samples(args.archive)
    provider = _provider_from_args(args)
    train = [(_entry_to_sample_set(entry, sample.requirement, sample.language),
              sample.labels[args.model])
             for sample, entry in _labelled(benchmark, entries, args.model, "train")
             if entry is not None]
    if not train:
        raise CliError("no labeled train samples with archived programs")

    result = confidence.tune_weights(train, provider)
    confidence.save_weights(result, args.out)
    print(json.dumps({
        **asdict(result.weights),
        "train_auroc": result.train_auroc,
        "grid_points_evaluated": result.grid_points_evaluated,
    }, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common(p):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved configuration and exit")


def _add_provider(p):
    p.add_argument("--provider", choices=["local", "remote"], default="local")
    p.add_argument("--dimension", type=int, default=256)
    p.add_argument("--embed-endpoint")
    p.add_argument("--embed-model")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="honest",
        description="Selective code generation: sample, estimate confidence, "
                    "gate, and evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample N programs per requirement")
    _add_common(p)
    p.add_argument("--requirement")
    p.add_argument("--requirement-file")
    p.add_argument("--benchmark")
    p.add_argument("--id", default="req-0")
    p.add_argument("--language", default="python")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--preset", choices=["five-temps"])
    p.add_argument("--max-tokens", type=int, default=1024)
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--audit-log")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="estimate confidence from an archive")
    _add_common(p)
    _add_provider(p)
    p.add_argument("--archive", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("gate", help="show or refuse based on confidence")
    _add_common(p)
    p.add_argument("--report", required=True)
    p.add_argument("--archive", required=True)
    p.add_argument("--id")
    p.add_argument("--language", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--message", default=DEFAULT_REFUSAL_MESSAGE)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("eval", help="score an estimator against labels")
    _add_common(p)
    _add_provider(p)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--archive")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--weights")
    p.add_argument("--k", type=int, help="fixed k for K-NNS (default: tuned)")
    p.add_argument("--pr-mode", choices=["average-precision", "trapezoid"],
                   default="average-precision")
    p.add_argument("--endpoint")
    p.add_argument("--sweep-out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="tune hybrid weights on the train split")
    _add_common(p)
    _add_provider(p)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--archive", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.print_config:
            print(json.dumps(_resolved_config(args), sort_keys=True))
            return EXIT_OK
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EndpointError, ProviderUnavailable) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    # a typed error, or an input file that is missing, undecodable or bad gzip
    except (HonestError, OSError, UnicodeDecodeError, EOFError, zlib.error) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

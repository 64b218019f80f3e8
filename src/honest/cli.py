"""Command-line surface: sample, estimate, gate, eval, tune.

Exit codes: 0 success, 2 usage/precondition error, 3 network error,
4 unsupported feature.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from . import baselines, client, confidence, dataset, evaluation
from .client import ENDPOINT_ENV, SamplingConfig, SeedMode
from .embeddings import EmbeddingProviderConfig, ProviderKind
from .errors import (
    EndpointError,
    HonestError,
    ProviderUnavailable,
    TooFewSamples,
)
from .gate import decide, decision_to_json
from .model import Language, Origin, Program, SampleSet
from .similarity import SimilarityWeights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NETWORK = 3
EXIT_UNSUPPORTED = 4

_UNIMPLEMENTED_METHODS = {"code-classifier", "requirement-classifier"}

METHODS = ("honest", "avg-prob", "product-prob", "self-ask-code",
           "self-ask-req", "knn-bm25", "knn-embed") + tuple(_UNIMPLEMENTED_METHODS)


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_file(path: Optional[str]) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(flag: Optional[str], env_name: Optional[str],
             file_values: dict[str, str], file_key: str,
             default: Optional[str] = None) -> Optional[str]:
    # precedence: flags > environment > config file > defaults
    if flag is not None:
        return flag
    if env_name and os.environ.get(env_name):
        return os.environ[env_name]
    if file_key in file_values:
        return file_values[file_key]
    return default


def _resolved_config(args) -> dict:
    file_values = _load_config_file(getattr(args, "config", None))
    endpoint = _resolve(getattr(args, "endpoint", None), ENDPOINT_ENV,
                        file_values, "endpoint")
    return {
        "endpoint": endpoint,
        "model": _resolve(getattr(args, "model", None), None, file_values, "model"),
        "seed": getattr(args, "seed", 42),
    }


def _maybe_print_config(args, resolved: dict) -> bool:
    if getattr(args, "print_config", False):
        print(json.dumps(resolved, sort_keys=True))
        return True
    return False


def _provider_from_args(args) -> EmbeddingProviderConfig:
    if args.provider == "remote":
        if not args.embed_endpoint or not args.embed_model:
            raise CliError("remote provider needs --embed-endpoint and --embed-model")
        return EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                       endpoint=args.embed_endpoint,
                                       model_name=args.embed_model,
                                       dimension=args.dimension)
    return EmbeddingProviderConfig(kind=ProviderKind.LOCAL_HASHED,
                                   dimension=args.dimension)


def _weights_from_args(args) -> SimilarityWeights:
    path = getattr(args, "weights", None)
    if path and Path(path).exists():
        return confidence.load_weights(path)
    if path:
        print(f"warning: weights file {path} not found; using defaults",
              file=sys.stderr)
    return SimilarityWeights.uniform()


def _sampling_config(args, resolved: dict) -> SamplingConfig:
    endpoint = resolved["endpoint"]
    if not endpoint:
        raise CliError("no endpoint configured (flag, HONEST_ENDPOINT, or config file)")
    model = resolved["model"]
    if not model:
        raise CliError("no model configured")
    seed_mode = (SeedMode.FIXED_SCHEDULE if getattr(args, "preset", None) == "five-temps"
                 else SeedMode.INDEPENDENT)
    return SamplingConfig(
        endpoint=endpoint, model=model, n=args.n,
        temperature=args.temperature, max_tokens=args.max_tokens,
        parallelism=args.parallelism, seed_mode=seed_mode,
        audit_log=getattr(args, "audit_log", None),
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_sample(args) -> int:
    resolved = _resolved_config(args)
    if _maybe_print_config(args, resolved):
        return EXIT_OK
    config = _sampling_config(args, resolved)
    language = Language.parse(args.language)

    if args.benchmark:
        samples = dataset.load_benchmark(args.benchmark)
        targets = [(s.id, s.requirement, s.language) for s in samples]
    else:
        if args.requirement_file:
            requirement = Path(args.requirement_file).read_text()
        elif args.requirement:
            requirement = args.requirement
        else:
            raise CliError("one of --requirement/--requirement-file/--benchmark required")
        targets = [(args.id, requirement, language)]

    entries = []
    for rid, requirement, lang in targets:
        records = client.sample_records(requirement, lang, config, rid)
        entries.append(dataset.SampleArchiveEntry(
            id=rid, model=config.model,
            programs=tuple(
                dataset.ArchivedProgram(
                    source=r.program.source,
                    temperature=r.program.origin.temperature or 0.0,
                    token_probs=r.token_probs or None,
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


def cmd_estimate(args) -> int:
    resolved = _resolved_config(args)
    if _maybe_print_config(args, resolved):
        return EXIT_OK
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
            "weights": {"alpha": weights.alpha, "beta": weights.beta,
                        "gamma": weights.gamma, "delta": weights.delta},
        }, sort_keys=True))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} confidence report(s) to {args.out}")
    return EXIT_OK


def cmd_gate(args) -> int:
    reports = {}
    for raw in Path(args.report).read_text().splitlines():
        if raw.strip():
            obj = json.loads(raw)
            reports[obj["id"]] = obj
    if not reports:
        raise CliError("empty report file")
    rid = args.id if args.id is not None else next(iter(reports))
    if rid not in reports:
        raise CliError(f"id {rid!r} not found in report")
    report_obj = reports[rid]

    language = Language.parse(args.language)
    entry = next((e for e in dataset.load_samples(args.archive) if e.id == rid), None)
    if entry is None:
        raise CliError(f"id {rid!r} not found in archive")
    sample_set = _entry_to_sample_set(entry, requirement="", language=language)

    report = confidence.ConfidenceReport(
        requirement_id=rid, n=report_obj["n"], confidence=report_obj["confidence"])
    decision = decide(report, sample_set, args.threshold,
                      refusal_message=args.message)
    print(decision_to_json(decision))
    return EXIT_OK


def _scored_for_method(args, method: str, benchmark, entries, provider,
                       weights, resolved) -> tuple[list, dict]:
    by_id = {(e.id, e.model): e for e in entries}
    model = args.model
    extra: dict = {}

    train = [s for s in benchmark if s.split == "train" and model in s.labels]
    select = [s for s in benchmark if s.split == args.split and model in s.labels]
    if not select:
        raise CliError(f"no {args.split} samples with labels for model {model!r}")

    def entry_for(sample) -> dataset.SampleArchiveEntry:
        entry = by_id.get((sample.id, model))
        if entry is None:
            raise CliError(f"archive missing entry for id {sample.id!r}, "
                           f"model {model!r}")
        return entry

    def program_counts(entry) -> tuple[Optional[int], Optional[int]]:
        verdicts = [p.verdict for p in entry.programs]
        if any(v is None for v in verdicts):
            return None, None
        return sum(1 for v in verdicts if v), len(verdicts)

    def records_for(entry) -> list[client.GenerationRecord]:
        records = []
        for i, p in enumerate(entry.programs):
            program = Program(source=p.source, language=sample_language,
                              origin=Origin(sample_index=i))
            records.append(client.GenerationRecord(
                program=program, raw_response=p.source,
                token_probs=p.token_probs or (), finish_reason=""))
        return records

    scored = []
    for sample in select:
        sample_language = sample.language
        entry = entry_for(sample) if method not in ("knn-bm25", "knn-embed",
                                                    "self-ask-req") else None
        if method == "honest":
            sample_set = _entry_to_sample_set(entry, sample.requirement,
                                              sample.language)
            report = confidence.estimate_confidence(sample_set, weights, provider)
            score = report.confidence
        elif method == "avg-prob":
            score = baselines.avg_prob(records_for(entry))
        elif method == "product-prob":
            score = baselines.product_prob(records_for(entry))
        elif method == "self-ask-code":
            sampling = _sampling_config(args, resolved)
            programs = [r.program for r in records_for(entry)]
            score = baselines.self_ask_code(sample.requirement, programs, sampling)
        elif method == "self-ask-req":
            sampling = _sampling_config(args, resolved)
            score = baselines.self_ask_requirement(sample.requirement, sampling)
        elif method in ("knn-bm25", "knn-embed"):
            score = None  # filled in below, index built once
        else:  # pragma: no cover
            raise CliError(f"unknown method {method!r}")

        correct, total = (program_counts(entry) if entry is not None
                          else (None, None))
        scored.append(evaluation.ScoredSample(
            id=sample.id, score=score if score is not None else 0.0,
            label=sample.labels[model],
            programs_correct=correct, programs_total=total))

    if method in ("knn-bm25", "knn-embed"):
        if not train:
            raise CliError("K-NNS needs a labeled train split")
        reqs = [s.requirement for s in train]
        labels = [s.labels[model] for s in train]
        if method == "knn-bm25":
            index = baselines.Bm25Index.build(reqs, labels)
            metric = baselines.KnnMetric.BM25
        else:
            index = baselines.EmbeddingCorpus.build(reqs, labels, provider)
            metric = baselines.KnnMetric.EMBEDDING
        k = args.k or baselines.tune_k(reqs, labels, index, metric)
        extra["k"] = k
        cfg = baselines.KnnConfig(k=k, metric=metric)
        scored = [
            evaluation.ScoredSample(
                id=s.id,
                score=baselines.knn_confidence(
                    next(b.requirement for b in select if b.id == s.id),
                    index, cfg),
                label=s.label,
                programs_correct=s.programs_correct,
                programs_total=s.programs_total)
            for s in scored
        ]
    return scored, extra


def cmd_eval(args) -> int:
    resolved = _resolved_config(args)
    if _maybe_print_config(args, resolved):
        return EXIT_OK
    if args.method in _UNIMPLEMENTED_METHODS:
        print(f"unimplemented baseline: {args.method}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    benchmark = dataset.load_benchmark(args.benchmark)
    entries = dataset.load_samples(args.archive) if args.archive else []
    provider = _provider_from_args(args)
    weights = _weights_from_args(args)

    scored, extra = _scored_for_method(args, args.method, benchmark, entries,
                                       provider, weights, resolved)
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
        _atomic_write(args.sweep_out, "\n".join(rows) + "\n")

    text = json.dumps(result, sort_keys=True)
    if args.out:
        _atomic_write(args.out, text + "\n")
    print(text)
    width = max(len(k) for k in result)
    for key in sorted(result):
        print(f"  {key:<{width}}  {result[key]}", file=sys.stderr)
    return EXIT_OK


def cmd_tune(args) -> int:
    resolved = _resolved_config(args)
    if _maybe_print_config(args, resolved):
        return EXIT_OK
    benchmark = dataset.load_benchmark(args.benchmark)
    entries = dataset.load_samples(args.archive)
    provider = _provider_from_args(args)
    by_id = {(e.id, e.model): e for e in entries}

    train = []
    for sample in benchmark:
        if sample.split != "train" or args.model not in sample.labels:
            continue
        entry = by_id.get((sample.id, args.model))
        if entry is None:
            continue
        sample_set = _entry_to_sample_set(entry, sample.requirement,
                                          sample.language)
        train.append((sample_set, sample.labels[args.model]))
    if not train:
        raise CliError("no labeled train samples with archived programs")

    result = confidence.tune_weights(train, provider)
    confidence.save_weights(result, args.out)
    w = result.weights
    print(json.dumps({
        "alpha": w.alpha, "beta": w.beta, "gamma": w.gamma, "delta": w.delta,
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
    from .gate import DEFAULT_REFUSAL_MESSAGE
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
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=16)
    p.add_argument("--parallelism", type=int, default=4)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (EndpointError, ProviderUnavailable) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except HonestError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

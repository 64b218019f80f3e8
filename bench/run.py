"""The benchmark of ``honest``: one closed-loop client in one process, one
operation at a time, on one of four seeded workloads.

    python3 bench/run.py --workload estimate-n50 --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; it imports ``honest`` from ``src/`` there.
It prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import (IMPORT_REFERENCE_S, REFERENCE_S, SpeedSampler, calibrate, factor_now,
                   import_probe, probes)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("estimate-n50", "tune-eval-n5", "hostile-n20", "online-gate-n20")
SETUP_REPEATS = 7
BETWEEN_PROBES = 10  # probes after each op, where a workload is not probed in its ops

# Times the import of the package in a fresh interpreter.
IMPORT_HONEST = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import honest, honest.cli\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the honest package.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from this checkout "
                             "(default seed, every workload) and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_honest():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "honest" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'honest'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import honest

    if Path(honest.__file__).resolve().parent != (SRC / "honest").resolve():
        sys.exit(f"error: imported honest from {honest.__file__}, not from {SRC}")


def machine_info() -> dict:
    import numpy
    import pygments
    import requests

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pygments": pygments.__version__,
        "requests": requests.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def setup_seconds(wl, seed: int, workdir: Path) -> dict:
    """Set up ``SETUP_REPEATS`` times, keeping the last set-up, and return
    the median raw and calibrated times.

    One set-up is the import of the package in a fresh interpreter, then
    the workload's inputs (and stub). The import is calibrated with import
    probes on either side of it. Of the inputs, the CPU time of this
    process is calibrated with the lexing probe, and the rest (waiting on
    the stub process to start, which is mostly its imports) with the
    import factor."""
    rows = []
    probe_before = import_probe()
    for rep in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_HONEST, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        import_s = float(out.stdout)
        probe_after = import_probe()
        import_factor = 2 * IMPORT_REFERENCE_S / (probe_before + probe_after)
        probe_before = probe_after
        if rep:
            wl.teardown()
        cpu_before = factor_now()
        t0, c0 = time.perf_counter(), time.process_time()
        wl.setup(seed, workdir)
        inputs_s, inputs_cpu = time.perf_counter() - t0, time.process_time() - c0
        cpu_factor = (cpu_before + factor_now()) / 2
        busy = min(inputs_cpu, inputs_s)
        rows.append((import_s, inputs_s, import_s * import_factor,
                     (inputs_s - busy) * import_factor + busy * cpu_factor))
    med = [statistics.median(column) for column in zip(*rows)]
    return {"import_s": med[0], "inputs_s": med[1], "import_cal": med[2], "inputs_cal": med[3],
            "setup_cal": statistics.median(r[2] + r[3] for r in rows)}


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); None with fewer than 11 samples."""
    if len(values) < 11:
        return None
    i = len(values) - 11
    return 100 * (i + 1) / len(values), sorted(values)[i]


class Loop:
    """Closed loop: the next op starts when the previous one returns.

    Each op is timed on the wall clock and in process CPU time, less the
    time the speed probe took while it ran; its factor comes from the probe
    samples taken during it (see ``speed.py``), or, for a workload that sets
    ``sample_speed_in_op = False``, from all the probes taken between the
    run's ops."""

    def __init__(self, workload):
        self.wl = workload
        # (op, wall s, cpu s, factor, completed, probe s); wall and cpu
        # are less the probe's own time, which is kept apart
        self.records: list[tuple] = []
        self.outputs: dict[int, object] = {}
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}

    @property
    def ops(self) -> list[int]:
        return [r[0] for r in self.records]

    @property
    def attempted(self) -> int:
        return len(self.records)

    def run(self, ops, tracer=None) -> None:
        """Run the ops ``ops``, in order."""
        records = []
        in_op = getattr(self.wl, "sample_speed_in_op", True)
        with SpeedSampler() if in_op else contextlib.nullcontext() as sampler:
            between = [] if in_op else probes(BETWEEN_PROBES)
            for k in ops:
                if tracer is not None:
                    tracer.op = k
                mark = sampler.mark() if in_op else None
                t0, c0 = time.perf_counter(), time.process_time()
                completed = False
                try:
                    out = self.wl.op(k)
                except Exception as exc:  # the benchmark counts failures by type
                    self.failures[type(exc).__name__] += 1
                    self.examples.setdefault(type(exc).__name__, str(exc)[:160])
                else:
                    self.outputs[k] = out
                    completed = True
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                if in_op:
                    factor, overhead = sampler.since(mark)
                else:
                    between += probes(BETWEEN_PROBES)
                    factor, overhead = None, 0.0
                records.append((k, wall - overhead, max(0.0, cpu - overhead), factor,
                                completed, overhead))
        if in_op:  # an op too short to be sampled takes the mean factor of the others
            known = [r[3] for r in records if r[3] is not None]
            fallback = statistics.mean(known) if known else 1.0
        else:  # the mean, like the in-op samples: the speed flips between two levels
            fallback = REFERENCE_S / statistics.mean(between)
        self.records += [(k, wall, cpu, fallback if factor is None else factor, done, probe)
                         for k, wall, cpu, factor, done, probe in records]

    def calibrated(self, completed_only: bool = False) -> list[float]:
        return [calibrate(wall, cpu, factor) for _, wall, cpu, factor, done, _ in self.records
                if done or not completed_only]

    def cpu_calibrated(self) -> float:
        return sum(cpu * factor for _, _, cpu, factor, _, _ in self.records)

    def mean_factor(self) -> float:
        return statistics.mean(r[3] for r in self.records)


def op_count(wl, seconds: float) -> int:
    """How many ops a run of ``seconds`` makes: whole cycles of the
    workload's mix, as many as the seed code fits in ``seconds`` at
    ``wl.op_s`` per op, and at least one cycle. The count depends on
    ``--seconds`` only, never on the speed of the machine, so ``attempted``
    and ``failed`` are the same on every run of a seed."""
    return wl.cycle * max(1, round(seconds / (wl.op_s * wl.cycle)))


def check_outputs(wl, outputs: list[tuple[int, object]]) -> tuple[list[str], Counter]:
    """Compare each (op, output) with golden values where the seed has them;
    recompute the sampled ops, and any op whose golden entry is an
    exception, from the public per-program and per-pair functions."""
    from workloads import same

    wrong = []
    checked: Counter = Counter()
    references: dict = {}
    for k, out in outputs:
        want = wl.golden(k)
        raised_before = isinstance(want, dict) and "raises" in want
        if want is not None and not raised_before:
            checked["golden"] += 1
            if not same(out, want):
                wrong.append(f"op {k}: got {out!r}, golden {want!r}")
        elif raised_before or k in wl.reference_ops:
            checked["reference"] += 1
            if k not in references:
                references[k] = wl.reference(k)
            want = references[k]
            if not wl.matches_reference(out, want):
                wrong.append(f"op {k}: got {out!r}, reference {want!r}")
    return wrong, checked


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run

SIMILARITY = ("sim_text", "sim_syntax", "sim_dataflow", "sim_embed", "sim_hybrid")
LEXING = ("model.tokenize", "embeddings.embed")
PARSING = ("analysis.parse_cst", "analysis.extract_subtrees", "analysis.extract_dataflow")
STAGES = ("confidence.estimate_confidence", "confidence.modality_means")
GRID = "confidence.tune_weights_from_modality_means"
HTTP = ("embeddings.http", "client.http")

# Which part of the traced op time each workload is expected to spend most on.
EXPECTED_DOMINANT = {
    "estimate-n50": ("similarity",),
    "tune-eval-n5": ("lexing", "parsing", "grid"),
    "hostile-n20": ("parsing",),
    "online-gate-n20": ("network",),
}

# Layers whose self time per op is reported as "<name>.self_ms".
SELF_MS = ["similarity." + f for f in SIMILARITY] + list(LEXING) + list(PARSING) + [
    "confidence.modality_means", "evaluation.aucpr", "evaluation.threshold_sweep",
    "baselines.knn_confidence", "baselines.tune_k", "dataset.load_samples",
    "dataset.load_benchmark"]


def layer_metrics(tracer, loop, sizes, stub_delta, overhead):
    """Per-layer metrics of the traced ops, each as (value, unit, base).
    CPU times are calibrated like the end-to-end ones; waits are not."""
    from tracing import union_length

    factor = loop.mean_factor()
    ops = max(1, loop.attempted)
    sets = max(1, sum(s[0] for s in sizes))
    programs = max(1, sum(s[1] for s in sizes))
    python = sum(s[2] for s in sizes)
    self_times = tracer.self_times()
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    children: dict = {}
    for span in tracer.spans:
        self_ms[span[2]] += 1000 * self_times[span[0]]
        total_ms[span[2]] += 1000 * (span[5] - span[4])
        children.setdefault(span[1], []).append(span)

    def descendants(span_id):
        stack, out = list(children.get(span_id, ())), []
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(children.get(span[0], ()))
        return out

    analysis_ms = pair_ms = 0.0
    for span in tracer.spans:
        if span[2] in STAGES:
            covered = union_length([(max(d[4], span[4]), min(d[5], span[5]))
                                    for d in descendants(span[0])
                                    if d[2] in LEXING + PARSING])
            analysis_ms += 1000 * covered
            pair_ms += 1000 * (span[5] - span[4] - covered)

    http = {name: [(s[4], s[5]) for s in tracer.spans if s[2] == name] for name in HTTP}
    calls = tracer.counts
    sim_calls = sum(calls["similarity." + f] for f in SIMILARITY)
    metrics = {}
    for name in SELF_MS:
        metrics[name + ".self_ms"] = (factor * self_ms[name] / ops, "ms/op", f"self time per op, {ops} ops, {calls[name]} calls")
    metrics["similarity.pair_calls"] = (sim_calls / sets, "calls/set", f"calls to the five sim_* functions per set, {sets} sets")
    metrics["confidence.analysis_stage_ms"] = (factor * analysis_ms / sets, "ms/set", f"per set, {sets} sets")
    metrics["confidence.pair_stage_ms"] = (factor * pair_ms / sets, "ms/set", f"per set, {sets} sets")
    metrics["model.tokenize.calls_per_program"] = (calls["model.tokenize"] / programs, "calls/program", f"per program analysed, {programs} programs")
    metrics["analysis.ast_parse_per_py_program"] = (calls["analysis.ast_parse"] / python if python else 0.0, "parses/program", f"ast.parse calls per Python program, {python} programs")
    metrics["confidence.grid_search_ms"] = (factor * total_ms[GRID] / ops, "ms/op", f"per op, {calls[GRID]} grid searches")
    metrics["evaluation.auroc.calls"] = (calls["evaluation.auroc"] / ops, "calls/op", f"per op, {ops} ops")
    for layer, prefix in (("embeddings", "embed"), ("client", "chat")):
        metrics[f"{layer}.requests_per_set"] = (stub_delta.get(f"{prefix}_requests", 0) / sets, "requests/set", f"attempts seen by the stub per set, {sets} sets")
        metrics[f"{layer}.retries"] = (stub_delta.get(f"{prefix}_failures", 0) / sets, "retries/set", f"HTTP 500s sent by the stub per set, {sets} sets")
        metrics[f"{layer}.wait_ms"] = (total_ms[f"{layer}.http"] / sets, "ms/set", f"time in HTTP requests per set, summed over threads, {len(http[layer + '.http'])} requests")
    served = stub_delta.get("embed_items", 0)
    metrics["embeddings.cache_hit_ratio"] = (max(0.0, 1 - served / programs) if stub_delta else 0.0, "ratio", f"programs embedded without a new item at the stub, {programs} programs")
    metrics["trace.overhead_share"] = (overhead, "ratio", "traced over untraced mean calibrated op time, same mix of ops")

    # the spans hold the speed probe's interruptions, so the op time they
    # are shares of does too
    wall_ms = 1000 * sum(r[1] + r[5] for r in loop.records)
    parts = {
        "similarity": sum(self_ms["similarity." + f] for f in SIMILARITY),
        "lexing": sum(self_ms[n] for n in LEXING),
        "parsing": sum(self_ms[n] for n in PARSING),
        "grid": total_ms[GRID],
        "network": 1000 * union_length(http["embeddings.http"] + http["client.http"]),
    }
    parts["other"] = wall_ms - sum(parts.values())
    shares = {k: v / wall_ms for k, v in parts.items()} if wall_ms else {}
    return metrics, shares


def dominance(workload: str, shares: dict) -> tuple[bool, str]:
    expected = EXPECTED_DOMINANT[workload]
    mine = sum(shares.get(p, 0.0) for p in expected)
    others = {p: v for p, v in shares.items() if p not in expected}
    holds = all(mine > v for v in others.values())
    text = ", ".join(f"{p} {100 * v:.1f}%" for p, v in others.items())
    if shares.get("other", 0.0) < 0:
        text += ("; the parts add up to more than the op time because work in "
                 "worker threads is summed over threads")
    return holds, f"{'+'.join(expected)} {100 * mine:.1f}% vs {text}"


# ---------------------------------------------------------------------------
# Main


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def stub_stats(wl) -> dict:
    return wl.stats() if hasattr(wl, "stats") else {}


def run(args, workloads_module) -> int:
    wl = workloads_module.WORKLOADS[args.workload]()
    info = machine_info()
    print("# machine " + json.dumps(info, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = setup_seconds(wl, args.seed, workdir)

        timed = Loop(wl)
        traced = None
        if args.trace:
            from tracing import Tracer

            # the traced half runs the same mix as the untraced one, on the
            # same ops where they can run again, so the two compare
            m = op_count(wl, args.seconds / 2)
            timed.run(range(m))
            first = 0 if wl.repeatable else m
            before = stub_stats(wl)
            tracer = Tracer()
            traced = Loop(wl)
            tracer.install()
            try:
                traced.run(ops=range(first, first + m), tracer=tracer)
            finally:
                tracer.restore()
            after = stub_stats(wl)
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        else:
            timed.run(range(op_count(wl, args.seconds)))
        outputs = list(timed.outputs.items())
        failures = Counter(timed.failures)
        if traced is not None:
            outputs += traced.outputs.items()
            failures.update(traced.failures)
        wrong, checked = check_outputs(wl, outputs)
    finally:
        wl.teardown()
        remove_workdir(workdir)

    attempted = timed.attempted + (traced.attempted if traced else 0)
    failed = sum(failures.values()) + len(wrong)
    for line in wrong:
        print("# WRONG " + line)
    print(f"correctness          {'ok' if not wrong else 'WRONG'}: {checked['golden']} op(s) "
          f"against golden values, {checked['reference']} op(s) against the reference")
    failure_text = ", ".join(f"{name}={n}" for name, n in sorted(failures.items())) or "none"
    print(f"failed_ops_share     {failed / attempted:.4f} ({failed}/{attempted} ops; raised: "
          f"{failure_text}; wrong output: {len(wrong)})")
    examples = {**timed.examples, **(traced.examples if traced else {})}
    for name, message in sorted(examples.items()):
        print(f"# first {name}: {message}")

    if not args.trace:
        factor = timed.mean_factor()
        print(f"speed factor         {factor:.4f} (reference probe time over measured); "
              f"timings below are calibrated")
        correct_ops = sum(1 for r in timed.records if r[4]) - len(wrong)
        lat_ms = [1000 * t for t in timed.calibrated(completed_only=True)]
        busy_s = sum(timed.calibrated())
        raw_ms = [1000 * r[1] for r in timed.records if r[4]]
        metrics = {
            "setup_s": (setup["setup_cal"], "s",
                        f"median of {SETUP_REPEATS}; calibrated import {setup['import_cal']:.3f} s "
                        f"(raw {setup['import_s']:.3f} s) in a fresh interpreter + inputs/stub "
                        f"{setup['inputs_cal']:.3f} s (raw {setup['inputs_s']:.3f} s)"),
            "ops_per_s": (correct_ops / busy_s, "1/s", f"{correct_ops} correct ops in {busy_s:.2f} s of ops"),
            "op_ms_p50": (statistics.median(lat_ms) if lat_ms else 1000 * busy_s, "ms",
                          f"median of {len(lat_ms)} completed ops; raw "
                          f"{statistics.median(raw_ms) if raw_ms else float('nan'):.1f} ms"),
            "cpu_ms_per_op": (1000 * timed.cpu_calibrated() / timed.attempted, "ms",
                              f"process CPU over {timed.attempted} ops; raw "
                              f"{1000 * sum(r[2] for r in timed.records) / timed.attempted:.1f} ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "ru_maxrss of this process"),
        }
        for name, (value, unit, base) in metrics.items():
            print(f"{name:<20} {value:.6g} {unit}  ({base})")
        t = tail(lat_ms)
        print("op_ms_tail           " + (f"{t[1]:.6g} ms at p{t[0]:.1f} ({len(lat_ms)} ops, 10 beyond)"
                                         if t else f"n/a (needs more than 10 completed ops, have {len(lat_ms)})"))
        if getattr(wl, "phase_s", None):
            for i, name in enumerate(("tune_s", "eval_s")):
                value = statistics.median(p[i] for p in wl.phase_s) * factor
                what = "tune runs" if i == 0 else "runs of three evals"
                print(f"{name:<20} {value:.6g} s  (median of {len(wl.phase_s)} {what})")
    else:
        sizes = [wl.sizes(k) for k in traced.ops]
        overhead = statistics.mean(traced.calibrated()) / statistics.mean(timed.calibrated())
        metrics, shares = layer_metrics(tracer, traced, sizes, delta, overhead)
        for name, (value, unit, base) in sorted(metrics.items()):
            print(f"{name:<40} {value:.6g} {unit}  ({base})")
        holds, text = dominance(args.workload, shares)
        print(f"dominant-layer check {'holds' if holds else 'DOES NOT HOLD'}: {text}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }, sort_keys=True))
    return 0


def record_golden(workloads_module) -> int:
    """Record every workload's outputs on the default seed, after checking
    each against the reference."""
    from workloads import same

    golden = {}
    workdir = ROOT / ".bench_work" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            wl = workloads_module.WORKLOADS[name]()
            wl.setup(workloads_module.DEFAULT_SEED, workdir)
            try:
                recorded = wl.record()
                entries = recorded if isinstance(recorded, list) else [recorded]
                for k, entry in enumerate(entries):
                    if isinstance(entry, dict) and "raises" in entry:
                        continue
                    want = wl.reference(k)
                    if not wl.matches_reference(entry, want):
                        sys.exit(f"error: {name} op {k}: {entry!r} != reference {want!r}")
                golden[name] = recorded
            finally:
                wl.teardown()
            print(f"recorded {name}", file=sys.stderr)
    finally:
        remove_workdir(workdir)
    workloads_module.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_honest()
    import workloads

    if args.record_golden:
        return record_golden(workloads)
    return run(args, workloads)


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import gzip
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import PYTHON_CORPUS
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_baselines import per_call_knn, per_k_tune_k
from test_replies import obj

from honest import baselines, client, confidence, evaluation
from honest.cli import _entry_to_sample_set, main
from honest.confidence import estimate_confidence
from honest.dataset import (
    ArchivedProgram,
    BenchmarkSample,
    SampleArchiveEntry,
    load_benchmark,
    load_samples,
    save_benchmark,
    save_samples,
)
from honest.embeddings import EmbeddingProviderConfig, ProviderKind
from honest.model import Language, Program, SampleSet
from honest.similarity import SimilarityWeights

MODEL = "m"


def build_fixture(tmp_path):
    """Benchmark + archive where passed requirements got consistent samples
    with high token probabilities and failed ones got scattered low ones."""
    benchmark, entries = [], []
    for i in range(8):
        split = "train" if i < 4 else "test"
        passed = i % 2 == 0
        benchmark.append(BenchmarkSample(
            id=f"s{i}", language=Language.PYTHON,
            requirement=("sort a list of numbers" if passed
                         else "solve the halting problem"),
            labels={MODEL: passed}, split=split))
        if passed:
            sources = [PYTHON_CORPUS[0]] * 3
            probs = (0.95, 0.9)
        else:
            sources = [PYTHON_CORPUS[(3 * i + j) % 20] for j in range(3)]
            probs = (0.3, 0.2)
        entries.append(SampleArchiveEntry(
            id=f"s{i}", model=MODEL,
            programs=tuple(ArchivedProgram(src, 1.0, token_probs=probs,
                                           verdict=passed)
                           for src in sources)))
    bench_path = tmp_path / "bench.jsonl"
    arch_path = tmp_path / "arch.jsonl"
    save_benchmark(benchmark, bench_path)
    save_samples(entries, arch_path)
    return bench_path, arch_path


def assert_usage_error(code, err):
    """Exit 2 with one ``error:`` line on stderr and no traceback."""
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestSampleCommand:
    def test_single_requirement(self, mock_server, tmp_path, capsys):
        out = tmp_path / "arch.jsonl"
        code = main(["sample", "--requirement", "STABLE sort a list",
                     "--endpoint", mock_server.endpoint, "--model", MODEL,
                     "--n", "4", "--out", str(out)])
        assert code == 0
        entries = load_samples(out)
        assert len(entries) == 1
        assert len(entries[0].programs) == 4
        assert "archived 4 program(s)" in capsys.readouterr().out

    def test_fixed_schedule_preset(self, mock_server, tmp_path):
        out = tmp_path / "arch.jsonl"
        code = main(["sample", "--requirement", "sort", "--preset", "five-temps",
                     "--endpoint", mock_server.endpoint, "--model", MODEL,
                     "--out", str(out)])
        assert code == 0
        temps = [p.temperature for p in load_samples(out)[0].programs]
        assert temps == [0.0, 0.2, 0.6, 0.8, 1.0]

    def test_negative_zero_temperature_is_archived_as_zero(self, mock_server, tmp_path):
        out = tmp_path / "arch.jsonl"
        code = main(["sample", "--requirement", "STABLE sort", "--temperature", "-0.0",
                     "--endpoint", mock_server.endpoint, "--model", MODEL,
                     "--n", "1", "--out", str(out)])
        assert code == 0
        assert '"temperature": 0.0,' in out.read_text()

    def test_benchmark_input(self, mock_server, tmp_path):
        bench_path, _ = build_fixture(tmp_path)
        out = tmp_path / "sampled.jsonl"
        code = main(["sample", "--benchmark", str(bench_path),
                     "--endpoint", mock_server.endpoint, "--model", MODEL,
                     "--n", "3", "--out", str(out)])
        assert code == 0
        assert len(load_samples(out)) == 8

    def test_requirement_file(self, mock_server, tmp_path):
        req = tmp_path / "req.txt"
        req.write_text("STABLE reverse a string")
        out = tmp_path / "arch.jsonl"
        code = main(["sample", "--requirement-file", str(req),
                     "--endpoint", mock_server.endpoint, "--model", MODEL,
                     "--n", "2", "--out", str(out)])
        assert code == 0

    def test_missing_endpoint_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--requirement", "x", "--model", MODEL,
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err

    def test_missing_model_is_usage_error(self, tmp_path, capsys):
        # the endpoint is never contacted: the missing model is rejected first
        code = main(["sample", "--requirement", "x",
                     "--endpoint", "http://127.0.0.1:9/v1",
                     "--out", str(tmp_path / "a.jsonl")])
        err = capsys.readouterr().err
        assert_usage_error(code, err)
        assert "no model configured" in err

    def test_missing_requirement_is_usage_error(self, mock_server, tmp_path):
        code = main(["sample", "--endpoint", mock_server.endpoint,
                     "--model", MODEL, "--out", str(tmp_path / "a.jsonl")])
        assert code == 2

    def test_unreachable_endpoint_is_network_error(self, tmp_path):
        code = main(["sample", "--requirement", "x",
                     "--endpoint", "http://127.0.0.1:9/v1", "--model", MODEL,
                     "--n", "1", "--out", str(tmp_path / "a.jsonl")])
        assert code == 3

    def test_endpoint_from_environment(self, mock_server, tmp_path, monkeypatch):
        monkeypatch.setenv("HONEST_ENDPOINT", mock_server.endpoint)
        out = tmp_path / "arch.jsonl"
        code = main(["sample", "--requirement", "sort", "--model", MODEL,
                     "--n", "2", "--out", str(out)])
        assert code == 0

    def test_flag_beats_environment(self, mock_server, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HONEST_ENDPOINT", "http://example.invalid")
        code = main(["sample", "--requirement", "x", "--model", MODEL,
                     "--endpoint", mock_server.endpoint, "--print-config",
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["endpoint"] == mock_server.endpoint

    def test_config_file_below_environment(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("endpoint = http://from-file\nmodel = file-model\n")
        monkeypatch.setenv("HONEST_ENDPOINT", "http://from-env")
        code = main(["sample", "--requirement", "x", "--config", str(cfg),
                     "--print-config", "--out", str(tmp_path / "a.jsonl")])
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["endpoint"] == "http://from-env"
        assert resolved["model"] == "file-model"

    def test_config_file_is_read_as_utf8(self, tmp_path):
        """The file is read as UTF-8: a read in the locale's encoding would warn
        under -X warn_default_encoding, and the warning is an error here."""
        cfg = tmp_path / "cfg"
        cfg.write_text("endpoint = http://127.0.0.1:9/v1\nmodel = modèle-ü\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONIOENCODING": "utf-8",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "honest.cli", "sample", "--requirement", "x", "--config", str(cfg),
             "--print-config", "--out", str(tmp_path / "a.jsonl")],
            capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["model"] == "modèle-ü"

    def test_byte_order_mark_is_not_read(self, tmp_path, monkeypatch, capsys):
        """A config or requirement file saved with a UTF-8 byte-order mark reads
        as without it: the mark is neither in the first config key nor in the
        prompt."""
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xef\xbb\xbfendpoint = http://127.0.0.1:9/v1\nmodel = m\n")
        req = tmp_path / "req.txt"
        req.write_bytes(b"\xef\xbb\xbfsort a list")
        code = main(["sample", "--config", str(cfg), "--print-config",
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["endpoint"] == "http://127.0.0.1:9/v1"
        prompts = []
        monkeypatch.setattr(client, "sample_records",
                            lambda requirement, language, config: prompts.append(requirement) or [])
        code = main(["sample", "--config", str(cfg), "--requirement-file", str(req),
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 0
        assert prompts == ["sort a list"]


class TestEstimateCommand:
    def test_writes_report_lines(self, tmp_path, capsys):
        _, arch_path = build_fixture(tmp_path)
        out = tmp_path / "report.jsonl"
        code = main(["estimate", "--archive", str(arch_path),
                     "--language", "python", "--dimension", "128",
                     "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 8
        by_id = {l["id"]: l for l in lines}
        assert by_id["s0"]["confidence"] == pytest.approx(1.0)
        assert by_id["s1"]["confidence"] < 1.0
        assert by_id["s0"]["n"] == 3
        assert by_id["s0"]["weights"]["alpha"] == 0.25

    def test_missing_weights_file_warns_and_defaults(self, tmp_path, capsys):
        _, arch_path = build_fixture(tmp_path)
        out = tmp_path / "report.jsonl"
        code = main(["estimate", "--archive", str(arch_path),
                     "--language", "python", "--weights",
                     str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 0
        assert "using defaults" in capsys.readouterr().err

    def test_unknown_language_is_usage_error(self, tmp_path):
        _, arch_path = build_fixture(tmp_path)
        code = main(["estimate", "--archive", str(arch_path),
                     "--language", "cobol", "--out", str(tmp_path / "r.jsonl")])
        assert code == 2


    @pytest.mark.parametrize("field,value", [("token_probs", [0.5, 0.0]),
                                             ("temperature", 3.0)])
    def test_out_of_range_archive_value_is_usage_error(self, tmp_path, capsys,
                                                       field, value):
        arch_path = tmp_path / "arch.jsonl"
        programs = [{"source": "x = 1", "temperature": 1.0},
                    {"source": "x = 2", "temperature": 1.0, field: value}]
        arch_path.write_text(json.dumps({"id": "s0", "model": MODEL,
                                         "programs": programs}) + "\n")
        code = main(["estimate", "--archive", str(arch_path),
                     "--language", "python", "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "MalformedLine" in capsys.readouterr().err

class TestGateCommand:
    def run_gate(self, tmp_path, threshold, rid="s0"):
        _, arch_path = build_fixture(tmp_path)
        report = tmp_path / "report.jsonl"
        main(["estimate", "--archive", str(arch_path), "--language", "python",
              "--out", str(report)])
        return main(["gate", "--report", str(report), "--archive", str(arch_path),
                     "--id", rid, "--language", "python",
                     "--threshold", str(threshold)])

    def test_show(self, tmp_path, capsys):
        assert self.run_gate(tmp_path, 0.5) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["verdict"] == "show"
        assert len(payload["programs"]) == 3

    def test_refuse(self, tmp_path, capsys):
        assert self.run_gate(tmp_path, 0.99, rid="s1") == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["verdict"] == "refuse"
        assert payload["message"] == "Sorry, I cannot solve this requirement."

    def test_unknown_id_is_usage_error(self, tmp_path):
        assert self.run_gate(tmp_path, 0.5, rid="missing") == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1e400"])
    def test_non_finite_threshold_is_usage_error(self, threshold, tmp_path, capsys):
        code = self.run_gate(tmp_path, threshold)
        err = capsys.readouterr().err
        assert_usage_error(code, err)
        assert "--threshold" in err

    def test_matches_the_report_line_model(self, tmp_path, capsys):
        """One id archived for two models: each report line is gated with its
        own model's programs, and an ambiguous report or archive exits 2."""
        arch = tmp_path / "arch.jsonl"
        save_samples([
            SampleArchiveEntry("t0", "A", tuple(ArchivedProgram("x = 1", 1.0)
                                                for _ in range(2))),
            SampleArchiveEntry("t0", "B", tuple(ArchivedProgram(src, 1.0)
                                                for src in PYTHON_CORPUS[:2])),
        ], arch)
        report = tmp_path / "report.jsonl"
        assert main(["estimate", "--archive", str(arch), "--language", "python",
                     "--out", str(report)]) == 0
        lines = {json.loads(line)["model"]: line for line in report.read_text().splitlines()}

        def gate(text):
            path = tmp_path / "one.jsonl"
            path.write_text(text + "\n")
            capsys.readouterr()
            code = main(["gate", "--report", str(path), "--archive", str(arch),
                         "--id", "t0", "--language", "python", "--threshold", "0.05"])
            out, err = capsys.readouterr()
            return code, (json.loads(out) if code == 0 else err)

        code, err = gate(report.read_text().strip())
        assert code == 2 and "'A'" in err and "'B'" in err
        for model, sources in (("A", ["x = 1"] * 2), ("B", list(PYTHON_CORPUS[:2]))):
            code, payload = gate(lines[model])
            assert code == 0
            assert payload["programs"] == sources
            assert payload["confidence"] == json.loads(lines[model])["confidence"]
        anonymous = json.loads(lines["B"])
        del anonymous["model"]
        code, err = gate(json.dumps(anonymous))
        assert code == 2 and "2 archive entries" in err

    def test_report_line_with_a_raw_line_separator(self, tmp_path, capsys):
        """U+2028 is no line break in JSON Lines: a model name holding it, as
        ``json.dumps(..., ensure_ascii=False)`` writes it, stays one report line."""
        model = "m\u2028x"
        arch = tmp_path / "arch.jsonl"
        save_samples([SampleArchiveEntry("t0", model, tuple(
            ArchivedProgram("x = 1", 1.0) for _ in range(2)))], arch)
        report = tmp_path / "report.jsonl"
        report.write_text(json.dumps({"id": "t0", "model": model, "n": 2,
                                      "confidence": 0.9}, ensure_ascii=False) + "\n")
        assert "\u2028" in report.read_text()
        code = main(["gate", "--report", str(report), "--archive", str(arch),
                     "--id", "t0", "--language", "python", "--threshold", "0.5"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "show"

    def test_print_config_prints_and_does_not_gate(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("HONEST_ENDPOINT", "http://from-env")
        missing = str(tmp_path / "missing.jsonl")  # never read
        code = main(["gate", "--report", missing, "--archive", missing,
                     "--language", "python", "--threshold", "0.5",
                     "--print-config", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"endpoint": "http://from-env", "model": None,
                                   "seed": 7}


class TestEvalCommand:
    def test_honest_method(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        out = tmp_path / "metrics.json"
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "honest", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["auroc"] == 1.0
        assert result["aucpr"] == 1.0
        assert result["n_samples"] == 4

    def test_avg_prob_method(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "avg-prob"])
        assert code == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["auroc"] == 1.0

    def test_product_prob_method(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "product-prob"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        labels = {s.id: s.labels[MODEL] for s in load_benchmark(bench_path)
                  if s.split == "test"}
        scored = [evaluation.ScoredSample(
            id=e.id, label=labels[e.id], score=baselines.product_prob(e.programs))
            for e in load_samples(arch_path) if e.id in labels]
        assert (result["auroc"], result["aucpr"], result["n_samples"]) == (
            evaluation.auroc(scored), evaluation.aucpr(scored), 4)

    @pytest.mark.parametrize("method", ["avg-prob", "product-prob"])
    def test_program_without_token_probs_is_usage_error(self, method, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        entries = load_samples(arch_path)
        bare = ArchivedProgram(entries[5].programs[0].source, 1.0)
        entries[5] = SampleArchiveEntry(entries[5].id, MODEL,
                                        entries[5].programs[:2] + (bare,))
        save_samples(entries, arch_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL, "--method", method])
        assert_usage_error(code, capsys.readouterr().err)

    def test_knn_bm25_reports_tuned_k(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "knn-bm25"])
        assert code == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["k"] in (1, 3, 5, 10, 20)
        assert result["auroc"] == 1.0  # disjoint train phrasings separate cleanly

    def test_self_ask_req_method(self, mock_server, tmp_path, capsys):
        mock_server.judge_alternatives = [("Yes", math.log(0.7)),
                                          ("No", math.log(0.2))]
        bench_path, arch_path = build_fixture(tmp_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "self-ask-req",
                     "--endpoint", mock_server.endpoint])
        assert code == 0

    def test_self_ask_code_method(self, mock_server, tmp_path, capsys):
        mock_server.judge_alternatives = [("Yes", math.log(0.7)),
                                          ("No", math.log(0.2))]
        bench_path, arch_path = build_fixture(tmp_path)
        before = mock_server.request_count
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "self-ask-code",
                     "--endpoint", mock_server.endpoint])
        assert code == 0
        # one judgment per archived program: 4 test samples of 3 programs
        assert mock_server.request_count - before == 12
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["n_samples"] == 4
        # the mock judges every program alike, so every score ties
        assert result["auroc"] == 0.5
        assert 0.0 < result["aucpr"] <= 1.0

    def test_knn_without_a_train_split_is_usage_error(self, tmp_path, capsys):
        bench_path = tmp_path / "bench.jsonl"
        save_benchmark([BenchmarkSample(
            id=f"s{i}", language=Language.PYTHON, requirement="sort a list",
            labels={MODEL: i % 2 == 0}, split="test") for i in range(4)], bench_path)
        code = main(["eval", "--benchmark", str(bench_path), "--model", MODEL,
                     "--method", "knn-bm25"])
        err = capsys.readouterr().err
        assert_usage_error(code, err)
        assert "train split" in err

    def test_sweep_csv(self, tmp_path):
        bench_path, arch_path = build_fixture(tmp_path)
        sweep_out = tmp_path / "sweep.csv"
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", "honest", "--sweep-out", str(sweep_out)])
        assert code == 0
        rows = sweep_out.read_text().splitlines()
        assert rows[0] == "threshold,shown_correct,shown_erroneous"
        assert len(rows) == 101

    @pytest.mark.parametrize("method", ["knn-bm25", "knn-embed"])
    def test_sweep_csv_for_methods_that_ignore_programs(self, tmp_path, method):
        # program counts come from the archive's verdicts, not from the scorer
        bench_path, arch_path = build_fixture(tmp_path)
        sweep_out = tmp_path / "sweep.csv"
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--method", method, "--sweep-out", str(sweep_out)])
        assert code == 0
        rows = sweep_out.read_text().splitlines()
        assert rows[0] == "threshold,shown_correct,shown_erroneous"
        assert len(rows) == 101

    def test_classifier_method_is_rejected(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--benchmark", str(bench_path),
                  "--archive", str(arch_path), "--model", MODEL,
                  "--method", "code-classifier"])
        assert exc.value.code == 2
        assert "invalid choice: 'code-classifier'" in capsys.readouterr().err

    def test_unknown_model_is_usage_error(self, tmp_path):
        bench_path, arch_path = build_fixture(tmp_path)
        code = main(["eval", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", "other",
                     "--method", "honest"])
        assert code == 2


class TestTuneCommand:
    def test_writes_weights(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        out = tmp_path / "weights.json"
        code = main(["tune", "--benchmark", str(bench_path),
                     "--archive", str(arch_path), "--model", MODEL,
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        total = data["alpha"] + data["beta"] + data["gamma"] + data["delta"]
        assert total == pytest.approx(1.0, abs=1e-9)
        assert data["train_auroc"] == 1.0
        echoed = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert echoed["grid_points_evaluated"] == 1771


class TestBlankCompletions:
    """A blank completion is archived but is no program: every command that
    reads an archive skips it, as sampling does online."""

    def estimate(self, tmp_path, name, sources):
        arch = tmp_path / f"{name}.jsonl"
        save_samples([SampleArchiveEntry("r0", MODEL, tuple(
            ArchivedProgram(src, 1.0) for src in sources))], arch)
        report = tmp_path / f"{name}-report.jsonl"
        code = main(["estimate", "--archive", str(arch), "--language", "python",
                     "--out", str(report)])
        return code, arch, report

    @pytest.mark.parametrize("sources, error", [
        (["", "   ", "  \n"], "EmptyCompletion"),
        (["", PYTHON_CORPUS[0], "\t"], "TooFewUsable"),
    ], ids=["all-blank", "one-program"])
    def test_too_few_programs_is_usage_error(self, sources, error, tmp_path, capsys):
        code, _, _ = self.estimate(tmp_path, "arch", sources)
        err = capsys.readouterr().err
        assert_usage_error(code, err)
        assert error in err and "'r0'" in err

    def test_blanks_leave_the_confidence_alone(self, tmp_path, capsys):
        programs = PYTHON_CORPUS[:2]
        reports = [self.estimate(tmp_path, name, sources)[2] for name, sources in (
            ("plain", programs), ("mixed", ["", programs[0], " ", programs[1], "\n"]))]
        plain, mixed = (json.loads(r.read_text()) for r in reports)
        assert mixed["n"] == plain["n"] == 2
        assert mixed["confidence"].hex() == plain["confidence"].hex()

    def test_archive_position_is_kept(self):
        entry = SampleArchiveEntry("r0", MODEL, tuple(
            ArchivedProgram(src, 1.0) for src in ["", "x = 1", " ", "y = 2"]))
        sample_set = _entry_to_sample_set(entry, "req", Language.PYTHON)
        assert [p.source for p in sample_set.programs] == ["x = 1", "y = 2"]
        assert [p.origin.sample_index for p in sample_set.programs] == [1, 3]

    def test_gate_prints_no_blank_program(self, tmp_path, capsys):
        sources = ["", PYTHON_CORPUS[0], "  \n", PYTHON_CORPUS[1], ""]
        _, arch, report = self.estimate(tmp_path, "mixed", sources)
        assert main(["gate", "--report", str(report), "--archive", str(arch),
                     "--language", "python", "--threshold", "0"]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["verdict"] == "show"
        assert payload["programs"] == PYTHON_CORPUS[:2]

        blank = tmp_path / "blank.jsonl"
        save_samples([SampleArchiveEntry("r0", MODEL, tuple(
            ArchivedProgram(src, 1.0) for src in ["", "", "  \n"]))], blank)
        report.write_text(json.dumps({"id": "r0", "model": MODEL, "n": 3,
                                      "confidence": 1.0, "weights": {}}) + "\n")
        code = main(["gate", "--report", str(report), "--archive", str(blank),
                     "--language", "python", "--threshold", "0.9"])
        out, err = capsys.readouterr()
        assert_usage_error(code, err)
        assert out == ""

    @pytest.mark.parametrize("method", ["honest", "knn-bm25"])
    def test_eval_counts_no_blank_verdicts(self, method, tmp_path):
        """Blanks with a wrong verdict, added to each entry, change no score, no
        result and no sweep row."""
        bench_path, arch_path = build_fixture(tmp_path)
        blanked = tmp_path / "blanked.jsonl"
        save_samples([SampleArchiveEntry(e.id, e.model, (
            ArchivedProgram("", 1.0, verdict=False), *e.programs,
            ArchivedProgram(" \n", 1.0, verdict=False)))
            for e in load_samples(arch_path)], blanked)
        outputs = []
        for name, arch in (("plain", arch_path), ("blanked", blanked)):
            out, sweep = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            assert main(["eval", "--benchmark", str(bench_path), "--archive", str(arch),
                         "--model", MODEL, "--method", method, "--out", str(out),
                         "--sweep-out", str(sweep)]) == 0
            outputs.append((out.read_bytes(), sweep.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_tune_skips_blanks(self, tmp_path, monkeypatch):
        bench_path, arch_path = build_fixture(tmp_path)
        blanked = tmp_path / "blanked.jsonl"
        save_samples([SampleArchiveEntry(e.id, e.model, (*e.programs, ArchivedProgram("", 1.0)))
                      for e in load_samples(arch_path)], blanked)
        trained = []
        real = confidence.tune_weights

        def spy(train, provider):
            trained.extend(sample_set for sample_set, _ in train)
            return real(train, provider)

        monkeypatch.setattr(confidence, "tune_weights", spy)
        assert main(["tune", "--benchmark", str(bench_path), "--archive", str(blanked),
                     "--model", MODEL, "--out", str(tmp_path / "weights.json")]) == 0
        assert [len(sample_set) for sample_set in trained] == [3] * 4


class TestOutputFiles:
    """Every output goes through one writer: a new file renamed into place,
    gzipped without a timestamp for .gz paths, with the mode ``open(path,
    "w")`` gives."""

    def test_gzip_report_is_gated(self, tmp_path, capsys):
        _, arch_path = build_fixture(tmp_path)
        report = tmp_path / "report.jsonl.gz"
        argv = ["estimate", "--archive", str(arch_path), "--language", "python",
                "--out", str(report)]
        assert main(argv) == 0
        first = report.read_bytes()
        assert main(argv) == 0
        assert report.read_bytes() == first
        assert gzip.decompress(first).decode().count("\n") == 8
        capsys.readouterr()
        assert main(["gate", "--report", str(report), "--archive", str(arch_path),
                     "--id", "s0", "--language", "python", "--threshold", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "show"

    def test_gzip_weights_are_read_back(self, tmp_path, capsys):
        bench_path, arch_path = build_fixture(tmp_path)
        plain, packed = tmp_path / "weights.json", tmp_path / "weights.json.gz"
        for out in (plain, packed):
            assert main(["tune", "--benchmark", str(bench_path), "--archive",
                         str(arch_path), "--model", MODEL, "--out", str(out)]) == 0
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        capsys.readouterr()
        for weights in (plain, packed):
            assert main(["eval", "--benchmark", str(bench_path), "--archive",
                         str(arch_path), "--model", MODEL, "--method", "honest",
                         "--weights", str(weights)]) == 0
        out, err = capsys.readouterr()
        first, second = [line for line in out.split("\n") if line.startswith("{")]
        assert first == second and "warning" not in err

    def test_every_output_has_the_mode_open_w_gives(self, mock_server, tmp_path):
        bench_path, arch_path = build_fixture(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        common = ["--benchmark", str(bench_path), "--model", MODEL]
        umask = os.umask(0o022)
        try:
            runs = [
                ["sample", "--requirement", "STABLE sort", "--endpoint",
                 mock_server.endpoint, "--model", MODEL, "--n", "2",
                 "--out", str(out / "arch.jsonl")],
                ["estimate", "--archive", str(arch_path), "--language", "python",
                 "--out", str(out / "report.jsonl")],
                ["tune", *common, "--archive", str(arch_path),
                 "--out", str(out / "weights.json")],
                ["eval", *common, "--archive", str(arch_path), "--method", "avg-prob",
                 "--out", str(out / "metrics.json"), "--sweep-out", str(out / "sweep.csv")],
            ]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert [main(argv) for argv in runs] == [0] * 4
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(umask)
        want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        assert {name: stat.S_IMODE(os.stat(out / name).st_mode)
                for name in sorted(os.listdir(out))} == {
            name: want for name in ("arch.jsonl", "metrics.json", "report.jsonl",
                                    "sweep.csv", "weights.json")}


class TestRemoteProvider:
    def test_estimate_batches_each_set(self, mock_server, tmp_path):
        _, arch_path = build_fixture(tmp_path)
        model = "cli-estimate-remote"
        report = tmp_path / "report.jsonl"
        before = mock_server.embedding_requests
        assert main(["estimate", "--archive", str(arch_path), "--language", "python",
                     "--provider", "remote", "--embed-endpoint", mock_server.endpoint,
                     "--embed-model", model, "--out", str(report)]) == 0
        entries = load_samples(arch_path)
        seen, sets_with_new_programs = set(), 0
        for entry in entries:  # each set has fewer than 32 distinct programs
            sources = {p.source for p in entry.programs}
            sets_with_new_programs += bool(sources - seen)
            seen |= sources
        assert mock_server.embedding_requests - before == sets_with_new_programs
        provider = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint,
                                           model_name=model)
        want = [estimate_confidence(SampleSet(e.id, "", tuple(
            Program(p.source, Language.PYTHON) for p in e.programs)),
            SimilarityWeights.uniform(), provider).confidence for e in entries]
        got = [json.loads(line)["confidence"] for line in report.read_text().split("\n")
               if line]
        assert got == want

    def test_all_zero_embedding_is_usage_error(self, mock_server, tmp_path, capsys):
        archive = tmp_path / "arch.jsonl"
        archive.write_text(json.dumps({**ARCHIVE_LINE, "programs": [
            {"source": "ZEROVEC = 1", "temperature": 1.0}] * 2}) + "\n")
        code = main(["estimate", "--archive", str(archive), "--language", "python",
                     "--provider", "remote", "--embed-endpoint", mock_server.endpoint,
                     "--embed-model", "cli-all-zero", "--out", str(tmp_path / "report.jsonl")])
        assert_usage_error(code, capsys.readouterr().err)

    def test_remote_without_embed_model_is_usage_error(self, mock_server, tmp_path,
                                                       capsys):
        _, arch_path = build_fixture(tmp_path)
        code = main(["estimate", "--archive", str(arch_path), "--language", "python",
                     "--provider", "remote", "--embed-endpoint", mock_server.endpoint,
                     "--out", str(tmp_path / "report.jsonl")])
        assert code == 2
        assert "--embed-model" in capsys.readouterr().err

    def knn_benchmark(self, tmp_path):
        verbs = ["sort", "reverse", "parse", "merge", "count", "split", "join"]
        benchmark = [BenchmarkSample(
            id=f"k{i}", language=Language.PYTHON,
            requirement=f"{verbs[i % 7]} the items of list {i}",
            labels={MODEL: i % 3 != 0}, split="train" if i < 20 else "test")
            for i in range(30)]
        path = tmp_path / "knn.jsonl"
        save_benchmark(benchmark, path)
        return benchmark, path

    def test_knn_embed_sends_one_request(self, mock_server, tmp_path, capsys):
        """The 20 train and 10 test requirements go out in one /embeddings
        request, and the metrics equal embedding each query on its own."""
        benchmark, path = self.knn_benchmark(tmp_path)
        before = mock_server.embedding_requests
        assert main(["eval", "--benchmark", str(path), "--model", MODEL,
                     "--method", "knn-embed", "--provider", "remote",
                     "--embed-endpoint", mock_server.endpoint,
                     "--embed-model", "cli-knn-batched"]) == 0
        assert mock_server.embedding_requests - before == 1
        result = json.loads(capsys.readouterr().out)

        provider = EmbeddingProviderConfig(kind=ProviderKind.REMOTE,
                                           endpoint=mock_server.endpoint,
                                           model_name="cli-knn-one-by-one")
        train = [s for s in benchmark if s.split == "train"]
        reqs, labels = [s.requirement for s in train], [s.labels[MODEL] for s in train]
        index = baselines.EmbeddingCorpus.build(reqs, labels, provider)
        k = baselines.tune_k(reqs, labels, index)
        scored = [evaluation.ScoredSample(
            id=s.id, label=s.labels[MODEL], score=baselines.knn_confidence(
                s.requirement, index, baselines.KnnConfig(k)))
            for s in benchmark if s.split == "test"]
        assert (result["auroc"], result["aucpr"], result["k"]) == (
            evaluation.auroc(scored), evaluation.aucpr(scored), k)

    def test_knn_bm25_equals_per_query_loops(self, tmp_path, capsys):
        """The tuned k and the metrics equal the per-document BM25 loop and
        the per-k tuning loop of the baseline tests."""
        benchmark, path = self.knn_benchmark(tmp_path)
        assert main(["eval", "--benchmark", str(path), "--model", MODEL,
                     "--method", "knn-bm25"]) == 0
        result = json.loads(capsys.readouterr().out)

        train = [s for s in benchmark if s.split == "train"]
        reqs, labels = [s.requirement for s in train], [s.labels[MODEL] for s in train]
        index = baselines.Bm25Index.build(reqs, labels)
        k = per_k_tune_k(reqs, labels, index)
        scored = [evaluation.ScoredSample(
            id=s.id, label=s.labels[MODEL], score=per_call_knn(s.requirement, index, k))
            for s in benchmark if s.split == "test"]
        assert (result["auroc"], result["aucpr"], result["k"]) == (
            evaluation.auroc(scored), evaluation.aucpr(scored), k)

    def test_knn_bm25_sends_no_embedding_request(self, mock_server, tmp_path):
        _, path = self.knn_benchmark(tmp_path)
        before = mock_server.embedding_requests
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--benchmark", str(path), "--model", MODEL,
                         "--method", "knn-bm25", "--provider", "remote",
                         "--embed-endpoint", mock_server.endpoint,
                         "--embed-model", "cli-knn-bm25"]) == 0
        assert mock_server.embedding_requests == before


# Endpoints that are not http(s) URLs with a host, by what is wrong with them.
BAD_ENDPOINTS = {"127.0.0.1:9/v1": "no-scheme", "ftp://x/v1": "ftp", "http:///v1": "no-host",
                 "http://x:abc/v1": "bad-port"}


@pytest.mark.parametrize("command, flags", [
    ("sample", ["--n", "0"]),
    ("sample", ["--temperature", "3"]),
    ("sample", ["--parallelism", "0"]),
    ("sample", ["--max-tokens", "0"]),
    ("estimate", ["--dimension", "32"]),
    ("eval", ["--method", "knn-bm25", "--k", "-1"]),
    ("eval", ["--method", "knn-bm25", "--k", "0"]),
    *(("sample", ["--endpoint", url]) for url in BAD_ENDPOINTS),
    *(("estimate", ["--provider", "remote", "--embed-endpoint", url, "--embed-model", "m"])
      for url in BAD_ENDPOINTS),
], ids=["n", "temperature", "parallelism", "max-tokens", "dimension", "k", "k-zero",
        *(f"endpoint-{case}" for case in BAD_ENDPOINTS.values()),
        *(f"embed-endpoint-{case}" for case in BAD_ENDPOINTS.values())])
def test_out_of_range_flag_is_usage_error(command, flags, tmp_path, capsys):
    bench_path, arch_path = build_fixture(tmp_path)
    required = {
        # the endpoint is never contacted: the flag is rejected first; a later
        # --endpoint flag replaces this one
        "sample": ["--requirement", "x", "--endpoint", "http://127.0.0.1:9/v1",
                   "--model", MODEL, "--out", str(tmp_path / "out.jsonl")],
        "estimate": ["--archive", str(arch_path), "--language", "python",
                     "--out", str(tmp_path / "report.jsonl")],
        "eval": ["--benchmark", str(bench_path), "--model", MODEL],
    }[command]
    code = main([command, *required, *flags])
    assert_usage_error(code, capsys.readouterr().err)


# Each command's input files, as (flag, contents on the fixture); *None*
# contents mean the fixture's own benchmark or archive.
INPUT_FILES = {
    "sample": {"--requirement-file": "sort a list", "--config": f"model = {MODEL}\n"},
    "estimate": {"--archive": None, "--weights": json.dumps(
        {"alpha": 0.25, "beta": 0.25, "gamma": 0.25, "delta": 0.25})},
    "gate": {"--report": json.dumps({"id": "s0", "n": 3, "confidence": 1.0}),
             "--archive": None},
    "eval": {"--benchmark": None, "--archive": None},
    "tune": {"--benchmark": None, "--archive": None},
}
OTHER_FLAGS = {
    "sample": ["--endpoint", "http://127.0.0.1:9/v1", "--model", MODEL],
    "estimate": ["--language", "python"],
    "gate": ["--language", "python", "--threshold", "0.5"],
    "eval": ["--model", MODEL, "--method", "honest"],
    "tune": ["--model", MODEL],
}


def argv_with_input(command, tmp_path, flag, contents, suffix=".jsonl"):
    """*command*'s argv on the fixture, with *flag* naming a file that holds
    *contents* (bytes or text), or a missing file when *contents* is None."""
    bench_path, arch_path = build_fixture(tmp_path)
    argv = [command]
    for name, text in INPUT_FILES[command].items():
        path = {"--benchmark": bench_path, "--archive": arch_path}.get(name)
        if name == flag or path is None:
            path = tmp_path / (name.strip("-") + (suffix if name == flag else ""))
            text = contents if name == flag else text
            if text is not None:
                data = text if isinstance(text, bytes) else text.encode()
                path.write_bytes(data)
        argv += [name, str(path)]
    if command in ("sample", "estimate", "tune"):
        argv += ["--out", str(tmp_path / "out.jsonl")]
    return argv + OTHER_FLAGS[command]


ARCHIVE_LINE = {"id": "s0", "model": MODEL,
                "programs": [{"source": "x = 1", "temperature": 1.0}]}


@pytest.mark.parametrize("command, flag, contents, suffix", [
    ("estimate", "--archive", None, ".jsonl"),
    ("gate", "--report", None, ".jsonl"),
    ("sample", "--requirement-file", None, ".txt"),
    ("gate", "--report", '{"id": "s0", "n": 3, "confidence": 1.0}\nnot json\n', ".jsonl"),
    ("gate", "--report", '{"n": 3, "confidence": 1.0}\n', ".jsonl"),
    ("estimate", "--weights", '{"beta": 0.5, "gamma": 0.25, "delta": 0.25}', ".json"),
    ("estimate", "--weights",
     '{"alpha": 0.5, "beta": 0.5, "gamma": 0.5, "delta": 0.5}', ".json"),
    # true and false would pass the range and sum checks as 1 and 0
    ("estimate", "--weights",
     '{"alpha": true, "beta": 0, "gamma": 0, "delta": false}', ".json"),
    ("eval", "--benchmark", json.dumps({
        "id": "s4", "language": "python", "requirement": "sort", "labels": [MODEL],
        "split": "test"}), ".jsonl"),
    # a string item that holds both key names passes an `in` test
    ("estimate", "--archive", json.dumps(
        {**ARCHIVE_LINE, "programs": ["source, temperature"] * 2}), ".jsonl"),
    ("estimate", "--archive", json.dumps(
        {**ARCHIVE_LINE, "programs": [{"source": 1, "temperature": 1.0}] * 2}),
     ".jsonl"),
    ("estimate", "--archive", gzip.compress(
        (json.dumps(ARCHIVE_LINE) + "\n").encode() * 50)[:-20], ".jsonl.gz"),
    ("eval", "--benchmark", b"\xff\xfe{}\n", ".jsonl"),
    ("sample", "--config", f"model = {MODEL}\nendpoint http://127.0.0.1:9/v1\n", ".cfg"),
    # an archive of s0 alone has no entry for the test split's s4; one of s4
    # alone has none for any train sample
    ("eval", "--archive", json.dumps(ARCHIVE_LINE), ".jsonl"),
    ("tune", "--archive", json.dumps({**ARCHIVE_LINE, "id": "s4"}), ".jsonl"),
    # a confidence that is no number in [0, 1]; 1e400 reads as infinity
    *[("gate", "--report", f'{{"id": "s0", "n": 3, "confidence": {value}}}\n', ".jsonl")
      for value in ("NaN", "Infinity", "-Infinity", "1e400", "true", "1.5", "-0.1")],
], ids=["missing-archive", "missing-report", "missing-requirement-file",
        "report-not-json", "report-without-id", "weights-without-alpha",
        "weights-not-summing-to-1", "weights-booleans",
        "benchmark-labels-list", "program-item-string",
        "numeric-source", "truncated-gzip", "undecodable-benchmark",
        "config-line-without-equals", "archive-without-an-evaluated-id",
        "tune-without-archived-train-samples", "confidence-nan", "confidence-infinity",
        "confidence-minus-infinity", "confidence-1e400", "confidence-true",
        "confidence-above-1", "confidence-below-0"])
def test_unreadable_or_malformed_input_is_usage_error(command, flag, contents,
                                                      suffix, tmp_path, capsys):
    code = main(argv_with_input(command, tmp_path, flag, contents, suffix))
    assert_usage_error(code, capsys.readouterr().err)


def json_lines(line):
    """Files of up to three JSON values, each shaped like *line* or not."""
    return st.lists(line, max_size=3).map(
        lambda values: "".join(json.dumps(v) + "\n" for v in values).encode())


labels = st.dictionaries(st.sampled_from([MODEL, "other"]),
                         st.sampled_from(["passed", "failed"]), max_size=2)
FILE_CONTENTS = {
    "--archive": json_lines(obj(
        id=st.sampled_from(["s0", "s1"]), model=st.just(MODEL),
        programs=st.lists(obj(source=st.text(max_size=20),
                              temperature=st.floats(0.0, 2.0),
                              token_probs=st.lists(st.floats(0.01, 1.0), max_size=2),
                              verdict=st.sampled_from(["passed", "failed"])),
                          max_size=3))),
    "--benchmark": json_lines(obj(
        id=st.sampled_from(["s4", "s5"]), language=st.sampled_from(["python", "java"]),
        requirement=st.text(max_size=20), labels=labels,
        split=st.sampled_from(["train", "test"]))),
    "--report": json_lines(obj(id=st.sampled_from(["s0", "s1"]), n=st.integers(),
                               confidence=st.floats())),
    "--weights": json_lines(st.just(json.loads(INPUT_FILES["estimate"]["--weights"]))
                            | obj(alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0),
                                  gamma=st.floats(0.0, 1.0), delta=st.floats(0.0, 1.0))),
}


@pytest.mark.parametrize("command, flag", [("estimate", "--archive"),
                                           ("eval", "--benchmark"),
                                           ("gate", "--report"),
                                           ("estimate", "--weights")])
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_input_file_exits_0_or_2(command, flag, data, tmp_path):
    contents = data.draw(st.binary(max_size=64) | FILE_CONTENTS[flag])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv_with_input(command, tmp_path, flag, contents))
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()

import gzip
import json

import pytest

from honest.dataset import (
    ArchivedProgram,
    BenchmarkSample,
    SampleArchiveEntry,
    load_benchmark,
    load_samples,
    save_benchmark,
    save_samples,
    split_benchmark,
)
from honest.errors import DuplicateId, MalformedLine, TooFewSamples, UnknownLanguage
from honest.model import Language


def bench(i, split="train"):
    return BenchmarkSample(id=f"s{i}", language=Language.PYTHON,
                           requirement=f"requirement {i}",
                           labels={"model-a": i % 2 == 0}, split=split)


def write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


VALID_LINE = {"id": "a", "language": "python", "requirement": "sort",
              "labels": {"m": "passed"}, "split": "train"}


class TestBenchmarkIo:
    def test_round_trip(self, tmp_path):
        samples = [bench(i) for i in range(5)]
        path = tmp_path / "bench.jsonl"
        save_benchmark(samples, path)
        assert load_benchmark(path) == samples

    def test_gzip_round_trip(self, tmp_path):
        samples = [bench(i) for i in range(3)]
        path = tmp_path / "bench.jsonl.gz"
        save_benchmark(samples, path)
        with gzip.open(path, "rt") as fh:
            assert len(fh.readlines()) == 3
        assert load_benchmark(path) == samples

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps(VALID_LINE) + "\n\n\n")
        assert len(load_benchmark(path)) == 1

    def test_labels_parsed_to_bool(self, tmp_path):
        path = tmp_path / "b.jsonl"
        line = dict(VALID_LINE, labels={"m1": "passed", "m2": "failed"})
        write_lines(path, [line])
        assert load_benchmark(path)[0].labels == {"m1": True, "m2": False}

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps(VALID_LINE) + "\n{not json\n")
        with pytest.raises(MalformedLine) as err:
            load_benchmark(path)
        assert err.value.line_number == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "b.jsonl"
        line = {k: v for k, v in VALID_LINE.items() if k != "requirement"}
        write_lines(path, [line])
        with pytest.raises(MalformedLine):
            load_benchmark(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [VALID_LINE, VALID_LINE])
        with pytest.raises(DuplicateId):
            load_benchmark(path)

    def test_unknown_language(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [dict(VALID_LINE, language="cobol")])
        with pytest.raises(UnknownLanguage):
            load_benchmark(path)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [dict(VALID_LINE, labels={"m": "maybe"})])
        with pytest.raises(MalformedLine):
            load_benchmark(path)

    def test_bad_split(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [dict(VALID_LINE, split="validation")])
        with pytest.raises(MalformedLine):
            load_benchmark(path)

    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("language", None), ("requirement", ["sort"]), ("labels", ["m"]),
        ("split", 1)])
    def test_field_of_wrong_json_type_reports_line_number(self, tmp_path, field,
                                                          value):
        path = tmp_path / "bench.jsonl"
        write_lines(path, [VALID_LINE, {**VALID_LINE, "id": "b", field: value}])
        with pytest.raises(MalformedLine) as exc:
            load_benchmark(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000],
                             ids=["deep-array", "long-integer"])
    def test_undecodable_json_reports_line_number(self, tmp_path, text):
        path = tmp_path / "bench.jsonl"
        path.write_text(json.dumps(VALID_LINE) + "\n" + text + "\n")
        with pytest.raises(MalformedLine) as exc:
            load_benchmark(path)
        assert exc.value.line_number == 2

    def test_unknown_fields_warn_but_load(self, tmp_path, caplog):
        path = tmp_path / "b.jsonl"
        write_lines(path, [dict(VALID_LINE, extra_field=1)])
        with caplog.at_level("WARNING"):
            samples = load_benchmark(path)
        assert len(samples) == 1
        assert "extra_field" in caplog.text

    def test_deterministic_bytes(self, tmp_path):
        samples = [bench(i) for i in range(4)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_benchmark(samples, p1)
        save_benchmark(samples, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSplit:
    def test_sizes(self):
        train, test = split_benchmark([bench(i) for i in range(10)], 0.7, seed=42)
        assert len(train) == 7 and len(test) == 3

    def test_deterministic_given_seed(self):
        samples = [bench(i) for i in range(20)]
        first = split_benchmark(samples, 0.5, seed=42)
        second = split_benchmark(samples, 0.5, seed=42)
        assert first == second

    def test_seed_changes_assignment(self):
        samples = [bench(i) for i in range(20)]
        a = split_benchmark(samples, 0.5, seed=1)
        b = split_benchmark(samples, 0.5, seed=2)
        assert a != b

    def test_partition_is_complete(self):
        samples = [bench(i) for i in range(9)]
        train, test = split_benchmark(samples, 0.4, seed=0)
        assert sorted(s.id for s in train + test) == sorted(s.id for s in samples)

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split_benchmark([bench(0)], 0.5, seed=0)

    def test_ratio_validation(self):
        samples = [bench(i) for i in range(4)]
        for ratio in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                split_benchmark(samples, ratio, seed=0)


class TestSampleArchive:
    def entry(self):
        return SampleArchiveEntry(
            id="s0", model="model-a",
            programs=(
                ArchivedProgram("x = 1", 0.0, token_probs=(0.9, 0.8), verdict=True),
                ArchivedProgram("y = 2", 1.0, verdict=False),
                ArchivedProgram("z = 3", 0.6),
            ))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        save_samples([self.entry()], path)
        assert load_samples(path) == [self.entry()]

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "arch.jsonl.gz"
        save_samples([self.entry()], path)
        assert load_samples(path) == [self.entry()]

    def test_optional_fields_omitted_from_disk(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        save_samples([self.entry()], path)
        programs = json.loads(path.read_text())["programs"]
        assert "token_probs" not in programs[1]
        assert "verdict" not in programs[2]

    def test_empty_programs_rejected(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        write_lines(path, [{"id": "a", "model": "m", "programs": []}])
        with pytest.raises(MalformedLine):
            load_samples(path)

    def test_program_needs_source_and_temperature(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        write_lines(path, [{"id": "a", "model": "m",
                            "programs": [{"source": "x = 1"}]}])
        with pytest.raises(MalformedLine):
            load_samples(path)

    def test_bad_verdict_value(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        write_lines(path, [{"id": "a", "model": "m",
                            "programs": [{"source": "x", "temperature": 0,
                                          "verdict": "ok"}]}])
        with pytest.raises(MalformedLine):
            load_samples(path)

    @pytest.mark.parametrize("line", [
        {"id": 1, "model": "m", "programs": [{"source": "y", "temperature": 0}]},
        {"id": "b", "model": None, "programs": [{"source": "y", "temperature": 0}]},
        {"id": "b", "model": "m", "programs": {"source": "y", "temperature": 0}},
        {"id": "b", "model": "m", "programs": ["source, temperature"]},
        {"id": "b", "model": "m", "programs": [{"source": 5, "temperature": 0}]},
        {"id": "b", "model": "m", "programs": [{"source": "y", "temperature": 10**400}]},
        {"id": "b", "model": "m", "programs": [{"source": "y", "temperature": "1.5"}]},
        {"id": "b", "model": "m", "programs": [{"source": "y", "temperature": True}]},
        {"id": "b", "model": "m", "programs": [{"source": "y", "temperature": 0.5,
                                                "token_probs": [True, 0.5]}]},
    ], ids=["numeric-id", "null-model", "programs-object", "program-string",
            "numeric-source", "huge-temperature", "string-temperature",
            "bool-temperature", "bool-token-prob"])
    def test_field_of_wrong_json_type_reports_line_number(self, tmp_path, line):
        path = tmp_path / "arch.jsonl"
        write_lines(path, [{"id": "a", "model": "m",
                            "programs": [{"source": "y", "temperature": 0}]}, line])
        with pytest.raises(MalformedLine) as exc:
            load_samples(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("program", [
        {"source": "x", "temperature": 0.5, "token_probs": [0.9, 0.0]},
        {"source": "x", "temperature": 0.5, "token_probs": [1.5]},
        {"source": "x", "temperature": 2.5},
        {"source": "x", "temperature": -0.1},
    ])
    def test_out_of_range_origin_fields_report_line_number(self, tmp_path, program):
        path = tmp_path / "arch.jsonl"
        write_lines(path, [{"id": "a", "model": "m",
                            "programs": [{"source": "y", "temperature": 0}]},
                           {"id": "b", "model": "m", "programs": [program]}])
        with pytest.raises(MalformedLine) as exc:
            load_samples(path)
        assert exc.value.line_number == 2

import gzip
import json
import os
import stat
import threading

import pytest

from honest.dataset import (
    ArchivedProgram,
    BenchmarkSample,
    SampleArchiveEntry,
    load_benchmark,
    load_samples,
    save_benchmark,
    save_samples,
    write_text,
)
from honest.errors import DuplicateId, MalformedLine, UnknownLanguage
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

    @pytest.mark.parametrize("end, space", [("\n", " "), ("\r\n", " "), ("\n", "\r")],
                             ids=["lf", "crlf", "cr-inside-a-line"])
    def test_only_a_line_feed_ends_a_line(self, tmp_path, end, space):
        """JSON Lines breaks at "\\n"; a "\\r" is JSON whitespace."""
        path = tmp_path / "b.jsonl"
        path.write_bytes("".join(json.dumps(dict(VALID_LINE, id=rid)).replace(", ", "," + space)
                                 + end for rid in "ab").encode())
        assert [s.id for s in load_benchmark(path)] == ["a", "b"]

    def test_byte_order_mark_is_not_read(self, tmp_path):
        """A file saved with a UTF-8 byte-order mark loads; writes carry none."""
        samples = [bench(i) for i in range(2)]
        path = tmp_path / "bench.jsonl"
        save_benchmark(samples, path)
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_benchmark(path) == samples

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

    @pytest.mark.parametrize("name", ["arch.jsonl", "arch.jsonl.gz"])
    def test_byte_order_mark_is_not_read(self, tmp_path, name):
        plain = tmp_path / "plain.jsonl"
        save_samples([self.entry()], plain)
        data = b"\xef\xbb\xbf" + plain.read_bytes()
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
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


def mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestWriteText:
    def test_gzip_bytes_carry_no_time_or_name(self, tmp_path):
        """Two saves to differently named .gz files give the same bytes, with a
        zero timestamp, and load back."""
        samples = [bench(i) for i in range(3)]
        entries = [TestSampleArchive().entry()]
        for save, load, value in ((save_benchmark, load_benchmark, samples),
                                  (save_samples, load_samples, entries)):
            p1, p2 = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
            save(value, p1)
            save(value, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert p1.read_bytes()[4:8] == bytes(4)  # gzip MTIME
            assert load(p1) == value

    def test_new_file_mode_is_what_open_w_gives(self, tmp_path):
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            write_text(tmp_path / "new.txt", "x\n")
            write_text(tmp_path / "new.txt.gz", "x\n")
        finally:
            os.umask(umask)
        assert mode(tmp_path / "new.txt") == mode(tmp_path / "plain.txt") == 0o644
        assert mode(tmp_path / "new.txt.gz") == 0o644

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text("old\n")
        path.chmod(0o640)
        write_text(path, "new\n")
        assert (path.read_text(), mode(path)) == ("new\n", 0o640)

    def test_symlink_keeps_pointing_at_the_new_text(self, tmp_path):
        target, link = tmp_path / "run-1.jsonl", tmp_path / "latest.jsonl"
        target.write_text("old\n")
        link.symlink_to(target.name)
        write_text(link, "new\n")
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["latest.jsonl", "run-1.jsonl"]

    def test_save_failing_midway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "arch.jsonl"
        entry = TestSampleArchive().entry()
        save_samples([SampleArchiveEntry("old", "model-a", entry.programs)], path)
        old = path.read_bytes()
        broken = SampleArchiveEntry("s1", "model-a", (ArchivedProgram(object(), 1.0),))
        with pytest.raises(TypeError):  # the second line does not serialize
            save_samples([entry, broken], path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["arch.jsonl"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.jsonl"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.jsonl"]

    def test_fifo_is_written_in_place(self, tmp_path):
        path = tmp_path / "out.jsonl"
        os.mkfifo(path)
        received = []
        reader = threading.Thread(target=lambda: received.append(path.read_text()),
                                  daemon=True)
        reader.start()
        write_text(path, "line\n")
        reader.join(timeout=10)
        assert received == ["line\n"]
        assert stat.S_ISFIFO(os.stat(path).st_mode)

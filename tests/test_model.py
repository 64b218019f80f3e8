import pytest
from corpus import JAVA_CORPUS, PYTHON_CORPUS

from honest.model import Language, Origin, Program, SampleSet, TokenSequence, tokenize


def py(source):
    return Program(source, Language.PYTHON)


class TestTokenize:
    def test_simple_assignment(self):
        assert tokenize(py("x = 1")).tokens == ("x", "=", "1")

    def test_empty_source(self):
        assert tokenize(py("")).tokens == ()

    def test_comment_stripped(self):
        assert tokenize(py("x = 1  # note")).tokens == ("x", "=", "1")

    def test_string_literal_is_single_token(self):
        assert tokenize(py("s = 'a b c'")).tokens == ("s", "=", "'a b c'")

    def test_java_comment_stripped(self):
        program = Program("int x = 1; // tally", Language.JAVA)
        assert tokenize(program).tokens == ("int", "x", "=", "1", ";")

    def test_blank_lines_removed(self):
        assert tokenize(py("x = 1\n\n\ny = 2")).tokens == ("x", "=", "1", "y", "=", "2")

    def test_deterministic(self):
        for source in PYTHON_CORPUS:
            assert tokenize(py(source)) == tokenize(py(source))
        for source in JAVA_CORPUS:
            p = Program(source, Language.JAVA)
            assert tokenize(p) == tokenize(p)

    def test_no_comment_text_survives(self):
        source = "total = 0  # running total\n# another comment\ntotal += 1\n"
        tokens = tokenize(py(source)).tokens
        assert not any("comment" in t or "#" in t for t in tokens)

    def test_no_empty_tokens_in_corpus(self):
        for source in PYTHON_CORPUS:
            assert all(tokenize(py(source)).tokens)


class TestTypes:
    def test_language_parse(self):
        assert Language.parse("Python") is Language.PYTHON
        assert Language.parse("java") is Language.JAVA

    def test_language_parse_rejects_unknown(self):
        from honest.errors import UnknownLanguage
        with pytest.raises(UnknownLanguage):
            Language.parse("rust")

    def test_token_probs_validated(self):
        with pytest.raises(ValueError):
            Origin(token_probs=(0.5, 0.0))
        with pytest.raises(ValueError):
            Origin(token_probs=())
        Origin(token_probs=(1.0, 0.001))

    def test_temperature_range(self):
        with pytest.raises(ValueError):
            Origin(temperature=2.5)

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ValueError):
            Origin(sample_index=-1)

    def test_sample_set_single_language(self):
        with pytest.raises(ValueError):
            SampleSet("r", "req", (py("x = 1"), Program("int x;", Language.JAVA)))

    def test_sample_set_language_is_its_programs(self):
        java = Program("int x;", Language.JAVA)
        assert SampleSet("r", "req", (java, java)).language is Language.JAVA

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence(("a", ""))

    def test_cached_ngrams_leave_equality_and_hash_alone(self):
        a = tokenize(py(PYTHON_CORPUS[3]))
        b = tokenize(py(PYTHON_CORPUS[3]))
        assert a.ngrams[0]  # computed and cached on a only
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

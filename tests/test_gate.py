import json

import pytest

from honest.confidence import ConfidenceReport
from honest.errors import IdMismatch
from honest.gate import DEFAULT_REFUSAL_MESSAGE, Verdict, decide, decision_to_json
from honest.model import Language, Program, SampleSet


def report(confidence, rid="r1"):
    return ConfidenceReport(requirement_id=rid, n=2, confidence=confidence)


def samples(rid="r1"):
    programs = (Program("x = 1", Language.PYTHON), Program("x = 1", Language.PYTHON))
    return SampleSet(rid, "set x to one", programs)


class TestDecide:
    def test_above_threshold_shows_all_programs(self):
        decision = decide(report(0.8), samples(), threshold=0.5)
        assert decision.verdict is Verdict.SHOW
        assert len(decision.programs) == 2
        assert decision.message == ""

    def test_below_threshold_refuses_with_message(self):
        decision = decide(report(0.3), samples(), threshold=0.5)
        assert decision.verdict is Verdict.REFUSE
        assert decision.programs == ()
        assert decision.message == "Sorry, I cannot solve this requirement."

    def test_equality_refuses(self):
        assert decide(report(0.5), samples(), threshold=0.5).verdict is Verdict.REFUSE

    def test_custom_refusal_message(self):
        decision = decide(report(0.0), samples(), threshold=0.5,
                          refusal_message="no")
        assert decision.message == "no"

    def test_default_message_constant(self):
        assert DEFAULT_REFUSAL_MESSAGE == "Sorry, I cannot solve this requirement."

    def test_id_mismatch(self):
        with pytest.raises(IdMismatch):
            decide(report(0.9, rid="a"), samples(rid="b"), threshold=0.5)

    def test_decision_records_inputs(self):
        decision = decide(report(0.8), samples(), threshold=0.25)
        assert decision.confidence == 0.8
        assert decision.threshold == 0.25
        assert decision.requirement_id == "r1"


class TestDecisionToJson:
    def test_show_payload(self):
        payload = json.loads(decision_to_json(decide(report(0.8), samples(), 0.5)))
        assert payload["verdict"] == "show"
        assert payload["programs"] == ["x = 1", "x = 1"]
        assert payload["message"] is None

    def test_refuse_payload(self):
        payload = json.loads(decision_to_json(decide(report(0.2), samples(), 0.5)))
        assert payload["verdict"] == "refuse"
        assert payload["programs"] is None
        assert payload["message"] == "Sorry, I cannot solve this requirement."

    def test_deterministic_serialization(self):
        decision = decide(report(0.8), samples(), 0.5)
        assert decision_to_json(decision) == decision_to_json(decision)

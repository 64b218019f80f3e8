"""One set of score bits on CPython 3.10-3.13.

``estimate_confidence`` at uniform weights and the four ``modality_means`` of
every set of the benchmark's seed 0-2 ``estimate-n50`` and ``hostile-n20``
pools, as ``float.hex()``, equal ``score_bits.json``. Local embeddings are
whole-number counts, whose dot products and norms are exact in any order, and
every score is added left to right, so the compensated ``sum()`` of CPython
3.12 and later moves no bit. A change that moves a score on purpose rewrites
the table with ``PYTHONPATH=src python tests/test_score_bits.py``, and says
which values moved and why.
"""
import json
import sys
from pathlib import Path

import pytest

from honest.confidence import estimate_confidence, modality_means
from honest.similarity import SimilarityWeights

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (needs bench/ on the path)

TABLE_PATH = Path(__file__).parent / "score_bits.json"
POOLS = ("estimate-n50", "hostile-n20")
SEEDS = (0, 1, 2)


def pool_bits(name, seed):
    """Each set's uniform confidence and four modality means, as ``float.hex()``."""
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed, None)  # the estimate workloads write no files
    return [[v.hex() for v in (
        estimate_confidence(s, SimilarityWeights.uniform(), workloads.LOCAL).confidence,
        *modality_means(s, workloads.LOCAL))] for s in wl.pool]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", POOLS)
def test_pool_scores_equal_the_table(name, seed):
    table = json.loads(TABLE_PATH.read_text(encoding="utf-8"))
    assert pool_bits(name, seed) == table[name][str(seed)]


if __name__ == "__main__":
    table = {name: {str(seed): pool_bits(name, seed) for seed in SEEDS} for name in POOLS}
    TABLE_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")

"""The benchmark's seed-0 outputs match ``bench/golden.json``.

Each workload runs through its own ``setup``, ops and ``teardown``, as
``bench/run.py`` runs it. Where a golden entry records the exception the seed
code raised, the op is compared with the workload's ``reference`` instead.
``online-gate-n20`` starts the benchmark's stub endpoint, so its ops go over
HTTP through the client and the remote embedding provider."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (needs bench/ on the path)


def mismatches(name, workdir):
    """``(op, got, want)`` for each op of one cycle of *name* at seed 0 whose
    output differs from its golden entry or, for an entry that raised, from
    the reference."""
    wl = workloads.WORKLOADS[name]()
    wl.setup(workloads.DEFAULT_SEED, workdir)
    try:
        wrong = []
        for k in range(wl.cycle):
            got, want = wl.op(k), wl.golden(k)
            assert want is not None, f"{name} has no golden entry for op {k}"
            if isinstance(want, dict) and "raises" in want:
                want = wl.reference(k)
                same = wl.matches_reference(got, want)
            else:
                same = workloads.same(got, want)
            if not same:
                wrong.append((k, got, want))
        return wrong
    finally:
        wl.teardown()


@pytest.mark.parametrize("name", ["estimate-n50", "hostile-n20", "tune-eval-n5",
                                  "online-gate-n20"])
def test_workload_outputs_match_golden(name, tmp_path):
    assert mismatches(name, tmp_path) == []

"""Calibration of timings against the drifting speed of a shared machine.

On a shared VM the speed of the same code drifts by up to 1.8x over tens of
seconds, so raw timings of identical work spread by 25-40% between runs.
``SpeedSampler`` runs a tiny fixed probe every ``INTERVAL_S`` on a SIGALRM
timer, also in the middle of an operation, and records how long it took.
The probe uses only Pygments and the standard library, never ``honest``, so
a change to the program does not move it.

An operation's factor is ``REFERENCE_S`` over the mean probe time sampled
while it ran. Its CPU time times the factor is the time it would have taken
at the reference speed; time spent waiting is kept as measured
(``calibrate``). The probe's own time is taken out of the operation's.
Where a signal handler must not run during an operation, the run probes
between operations instead (``probes``) and takes one factor from the mean
of all those probes: the speed flips between a fast and a slow level within
a second, so a snapshot between two operations says little about the speed
during either, and per-operation factors from snapshots, or a median, which
picks one level, spread more than the raw times.

Importing modules drifts differently from running code: the lexing probe
over-corrects import times and spreads them more than it steadies them.
Set-up time is therefore calibrated against ``import_probe``, the time a
fresh interpreter takes to import a fixed set of standard-library modules
that ``honest`` does not use.
"""
from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

from pygments.lexers import PythonLexer

import gen

# The probe's median time on the 2-vCPU Xeon VM the baseline was recorded
# on. Calibrated timings read as if the machine ran at that speed.
REFERENCE_S = 0.0028
INTERVAL_S = 0.1

# The import probe's typical time on that VM, and what it imports.
IMPORT_REFERENCE_S = 0.10
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import asyncio, unittest, xml.dom.minidom, email.mime.multipart, sqlite3, decimal\n"
    "import multiprocessing, pydoc, ctypes, difflib, tarfile, fractions\n"
    "print(time.perf_counter() - start)\n"
)

_LEXER = PythonLexer()
_SOURCE = "\n".join(gen.PYTHON_SNIPPETS[:8])


def probe() -> float:
    """Seconds one lex-and-count job takes now, with the collector paused
    so the size of the program's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        tokens = [text for _, text in _LEXER.get_tokens(_SOURCE) if text.strip()]
        for n in range(1, 5):
            Counter(tuple(tokens[k:k + n]) for k in range(len(tokens) - n + 1))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probes(repeats: int = 5) -> list[float]:
    """A few probe times taken right now."""
    return [probe() for _ in range(repeats)]


def factor_now(repeats: int = 5) -> float:
    """The factor from the median of a few probes taken right now."""
    return REFERENCE_S / statistics.median(probes(repeats))


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the probe's modules."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def calibrate(wall: float, cpu: float, factor: float) -> float:
    """Wall time with its CPU part rescaled to the reference speed."""
    busy = min(cpu, wall)
    return (wall - busy) + busy * factor


class SpeedSampler:
    """While active, probes the machine's speed every ``INTERVAL_S``.

    ``mark()`` returns a position; ``since(mark)`` gives the factor and the
    probe overhead (seconds) of the samples taken after that position, or a
    factor of None when none were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        try:
            self.samples.append(probe())
        except RecursionError:  # fired deep inside a recursive call: skip it
            pass
        self.overhead.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, int]:
        return len(self.samples), len(self.overhead)

    def since(self, mark: tuple[int, int]) -> tuple[float | None, float]:
        samples = self.samples[mark[0]:]
        overhead = sum(self.overhead[mark[1]:])
        if not samples:
            return None, overhead
        return REFERENCE_S / statistics.mean(samples), overhead

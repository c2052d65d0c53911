"""Prints the session's wall time corrected for the host's speed.

The correction is the benchmark's (perfbench/worker.py, ``timed``):
reference bursts of fixed work are timed at the start and end of the
session and between tests at most once a second, and the wall time
without them is scaled by REFERENCE_S over their mean.  The bursts are
taken between tests, not by a signal handler, so no test is interrupted.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Clock:
    def __init__(self):
        self.worker = load_worker()
        self.bursts = [self.worker._burst()]
        self.between = 0.0
        self.start = self.last = time.perf_counter()

    def sample(self):
        if time.perf_counter() - self.last >= 1.0:
            burst = self.worker._burst()
            self.bursts.append(burst)
            self.between += burst
            self.last = time.perf_counter()

    def report(self) -> str:
        wall = time.perf_counter() - self.start - self.between
        self.bursts.append(self.worker._burst())
        mean = sum(self.bursts) / len(self.bursts)
        corrected = wall * self.worker.REFERENCE_S / mean
        return (
            f"wall time {wall:.1f} s, corrected to the reference speed {corrected:.1f} s "
            f"({len(self.bursts)} bursts, mean {mean * 1000:.1f} ms against "
            f"{self.worker.REFERENCE_S * 1000:.0f} ms)"
        )


_clock: _Clock | None = None


def pytest_sessionstart(session):
    global _clock
    if not session.config.option.collectonly:
        _clock = _Clock()


def pytest_runtest_logfinish(nodeid, location):
    if _clock is not None:
        _clock.sample()


def pytest_terminal_summary(terminalreporter):
    if _clock is not None:
        terminalreporter.write_line(_clock.report())

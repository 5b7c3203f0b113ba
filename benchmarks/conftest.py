"""Shared benchmark fixtures.

Benchmarks attach the reproduction's measured values (colors, simulator
rounds, modeled rounds, the paper's bound) to pytest-benchmark's
``extra_info``, so `pytest benchmarks/ --benchmark-only` records every
ablation/figure row alongside the wall-time measurement (the paper's
tables themselves are `python -m repro tables`).
"""

from __future__ import annotations

import pytest


def attach(benchmark, record) -> None:
    """Attach a dict of measured values to a benchmark run."""
    for key, value in dict(record).items():
        if value is not None:
            benchmark.extra_info[key] = value


@pytest.fixture
def record_info():
    return attach

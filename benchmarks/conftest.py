"""Benchmark-local fixtures: reuse the session-scoped ``spark`` fixture
from the repo-root conftest and pin a deterministic benchmark scale."""
import os

import pytest

# Benchmarks default to the bench scale unless the caller overrides it.
os.environ.setdefault("REPRO_SCALE", "bench")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ["REPRO_SCALE"]

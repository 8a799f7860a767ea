"""The session's driver memory: the tests, the jobs and the benchmark
all size the driver JVM with ``repro.session.driver_memory``."""
import pytest

from repro.session import driver_memory


def _meminfo(gib: int) -> str:
    return f"MemTotal:       {gib << 20} kB\nMemFree:        1024 kB\n"


def test_env_overrides_meminfo(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory(_meminfo(64)) == "3g"


@pytest.mark.parametrize(
    "gib, want",
    [(1, "2g"), (4, "2g"), (6, "3g"), (12, "6g"), (16, "8g"), (64, "8g")],
)
def test_half_of_memtotal_clamped(monkeypatch, gib, want):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    assert driver_memory(_meminfo(gib)) == want


def test_no_memtotal_is_lower_clamp(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    assert driver_memory("") == "2g"

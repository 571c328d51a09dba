"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

# Every simulated run in the suite re-proves the conservation audits
# (KV block accounting, request arrivals = completed + dropped +
# in-flight) at finalize; see repro.analysis.audit.  setdefault so an
# explicit REPRO_AUDIT=0 still disables it for debugging.
os.environ.setdefault("REPRO_AUDIT", "1")

# A raised example budget for the property and differential fuzz tests
# (those without their own max_examples), selected with
# HYPOTHESIS_PROFILE=fuzz; unset, Hypothesis keeps its own default.
settings.register_profile("fuzz", max_examples=1000)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

from repro.hardware import Cluster
from repro.perf import PerfDatabase
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def perf_db() -> PerfDatabase:
    # Deterministic estimates in unit tests: no execution jitter.
    return PerfDatabase(jitter_sigma=0.0, seed=0)


@pytest.fixture
def small_cluster() -> Cluster:
    return Cluster.build(cpu_count=2, gpu_count=2)


@pytest.fixture
def testbed() -> Cluster:
    return Cluster.build(cpu_count=4, gpu_count=4)

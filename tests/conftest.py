"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload import Trace, get_trace, stable_seed

from tests.helpers import make_job, make_record

__all__ = ["make_job", "make_record"]


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_trace() -> Trace:
    """Three-job trace reproducing the paper's Figure 2 scenario."""
    jobs = [
        make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                 requested_time=100.0),
        make_job(job_id=2, submit_time=0.0, runtime=50.0, processors=3,
                 requested_time=50.0),
        make_job(job_id=3, submit_time=0.0, runtime=90.0, processors=1,
                 requested_time=90.0),
    ]
    return Trace(jobs, processors=4, name="figure2")


@pytest.fixture(scope="session")
def kth_trace() -> Trace:
    """A small KTH-class synthetic trace shared across tests (read-only)."""
    return get_trace("KTH-SP2", n_jobs=600)


@pytest.fixture(scope="session")
def curie_trace() -> Trace:
    """A small Curie-class synthetic trace shared across tests (read-only)."""
    return get_trace("Curie", n_jobs=600)


@pytest.fixture(scope="session")
def traces() -> dict[str, list[Trace]]:
    """Three 1200-job replicas of two contrasting logs (read-only).

    Individual small traces are noisy samples of a queueing process, so
    shape assertions on them average the replicas.
    """
    return {
        name: [get_trace(name, n_jobs=1200, seed=stable_seed(name) + r) for r in (0, 1, 2)]
        for name in ("KTH-SP2", "Curie")
    }

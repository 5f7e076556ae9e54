"""Pytest path setup, the metrics reset and the always-on plan-invariant net.

Two autouse fixtures, and only two.  The metrics registry is the one
process-wide state a test leaves behind, so every test starts with it
empty.  Plan
caches, feedback and sketches need no reset: each cluster owns its own,
and no fixture that outlives a test builds a cluster with one switched
on (``tests/unit/test_lifecycle_guard.py`` keeps it so).

The second fixture wraps ``ExecutionEngine.execute`` so that *every*
physical plan executed anywhere in the suite is first checked against the
structural invariants in :mod:`repro.verify.invariants`.  Any test that
drives a query through the engine therefore doubles as an invariant test:
a planner regression that produces a malformed plan fails loudly at the
point of execution instead of as a silent wrong answer downstream.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.exec.engine import ExecutionEngine  # noqa: E402
from repro.exec.fragments import fragment_plan  # noqa: E402
from repro.obs.metrics import reset_registry  # noqa: E402
from repro.verify.invariants import (  # noqa: E402
    PlanValidator,
    check_execution_result,
)


def pytest_addoption(parser):
    parser.addoption(
        "--snapshot-update",
        action="store_true",
        default=False,
        help="rewrite the golden plan snapshots under tests/golden/",
    )
    parser.addoption(
        "--backend",
        choices=("row", "columnar"),
        default=None,
        help="run the whole suite under one execution backend "
        "(sets REPRO_EXECUTION_BACKEND, the SystemConfig default)",
    )


def pytest_configure(config):
    backend = config.getoption("--backend")
    if backend is not None:
        os.environ["REPRO_EXECUTION_BACKEND"] = backend


@pytest.fixture
def snapshot_update(request):
    return request.config.getoption("--snapshot-update")


@pytest.fixture(params=["row", "columnar"])
def execution_backend(request):
    """Parametrizes a test over both execution backends.

    Tests take this fixture and build their cluster with
    ``config.with_(execution_backend=execution_backend)``; every
    assertion then runs against the row interpreter and the vectorized
    columnar one.
    """
    return request.param


@pytest.fixture(autouse=True)
def _reset_metrics_registry():
    """Each test starts with an empty global metrics registry.

    Without this, counters emitted by one test leak into the next test's
    snapshots/deltas (the registry is a module-level singleton by design,
    mirroring a process-wide metrics endpoint).
    """
    reset_registry()
    yield
    reset_registry()


@pytest.fixture(autouse=True)
def _validate_every_executed_plan(monkeypatch):
    original = ExecutionEngine.execute
    validator = PlanValidator()

    def checked_execute(self, plan, **kwargs):
        validator.check(plan, fragment_plan(plan))
        result = original(self, plan, **kwargs)
        check_execution_result(result)
        return result

    # Tests that need the engine's own behaviour (e.g. the
    # verify_execution flag) can reach the unwrapped method here.
    checked_execute.__wrapped__ = original
    monkeypatch.setattr(ExecutionEngine, "execute", checked_execute)

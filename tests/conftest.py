"""Shared fixtures for the whole suite.

Every test gets a deterministic RNG seed derived from its node id, so a
test's random stream never depends on which other tests ran before it (or
on ``-k`` selection / ``-p no:randomly`` style reordering).  The node id
is also exported as ``REPRO_TEST_SEED`` so SPMD worker processes spawned
by the 'mp' executor derive *their* per-rank seeds from the same root
(``sha256(nodeid:rank)`` — see ``repro.parallel.exec.mp.derive_rank_seed``),
making multi-process tests as reproducible as in-process ones.  The
fixture also guarantees the observability layer is switched off and empty
between tests, so instrumentation state cannot leak across test
boundaries.

Hypothesis tests share one profile registered here instead of per-test
``@settings`` decorations: ``deadline=None`` (CI machines are too noisy
for wall-clock deadlines on numerical tests) and a modest example count,
raised under the ``ci`` profile (``REPRO_HYPOTHESIS_PROFILE=ci``).  The
hypothesis seed is pinned from the same ``REPRO_TEST_SEED`` root so
shrunk failures replay exactly.
"""

import hashlib
import os
import random

import numpy as np
import pytest
from hypothesis import settings

from repro import obs

settings.register_profile("repro", deadline=None, max_examples=10, print_blob=True)
settings.register_profile("ci", deadline=None, max_examples=25, print_blob=True)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro"))


def pytest_configure(config):
    # Pin hypothesis' derandomization root when no -p hypothesis-seed was
    # given, so property tests are as order-independent as the numpy ones.
    if getattr(config.option, "hypothesis_seed", None) is None:
        config.option.hypothesis_seed = int.from_bytes(
            hashlib.sha256(b"repro-hypothesis").digest()[:4], "big"
        )


@pytest.fixture(autouse=True)
def _deterministic_test_state(request):
    """Seed every RNG from the test node id; reset obs state afterwards."""
    seed = int.from_bytes(
        hashlib.sha256(request.node.nodeid.encode()).digest()[:4], "big"
    )
    random.seed(seed)
    np.random.seed(seed)
    prev = os.environ.get("REPRO_TEST_SEED")
    os.environ["REPRO_TEST_SEED"] = request.node.nodeid
    yield
    if prev is None:
        os.environ.pop("REPRO_TEST_SEED", None)
    else:
        os.environ["REPRO_TEST_SEED"] = prev
    obs.disable()
    obs.reset_all()

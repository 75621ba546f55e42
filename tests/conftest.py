"""Shared pytest wiring: the ``slow`` marker and its ``--run-slow`` gate,
and the Hypothesis ``ci`` profile.

Golden-equivalence tests re-run whole experiments; the slow ones add
minutes of wall time, so the default run skips them and CI's
golden-equivalence job (or a local ``--run-slow``) opts in.

``--hypothesis-profile ci`` digs deeper than the default 100 examples
in the property tests that leave ``max_examples`` to the profile (the
census differential machine in ``tests/core``); CI runs it with a fixed
``--hypothesis-seed`` so a red run replays.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is a dev extra; its tests skip themselves
    pass
else:
    settings.register_profile("ci", max_examples=500, deadline=None, print_blob=True)


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (full golden-equivalence set)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes; skipped unless --run-slow is given"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; use --run-slow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

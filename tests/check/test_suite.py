"""MonitorSuite wiring: attachment, fan-out, detach.

The "passive observer" contract itself — an armed run pops exactly the
same events and produces bit-identical metrics as an unarmed one, and a
run without monitors carries no instrumentation at all — is pinned for
every observer family at once in ``tests/test_bit_identity.py``.
"""

import pytest

from repro.build import build_simulation
from repro.check.suite import attach_monitors, run_checked

from tests.check.conftest import make_spec


def test_attach_covers_both_dumbbell_links():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    names = [m.name for m in suite.monitors]
    assert names.count("conservation") == 2  # forward + reverse
    assert names.count("occupancy") == 2
    assert "clock" in names and "tcp" in names
    assert "taq" not in names  # droptail has no TAQ ledgers
    assert built.sim.obs is suite


def test_attach_adds_taq_monitor_for_taq_queues():
    built = build_simulation(make_spec(queue={"kind": "taq"}))
    names = [m.name for m in attach_monitors(built).monitors]
    assert "taq" in names


def test_monitor_families_can_be_switched_off():
    # They no longer can: the five per-family switches are gone, and an
    # armed run carries every applicable family, in this order.
    built = build_simulation(make_spec())
    with pytest.raises(TypeError):
        attach_monitors(built, tcp=False)
    names = [m.name for m in attach_monitors(built).monitors]
    assert names == ["clock", "conservation", "conservation",
                     "occupancy", "occupancy", "tcp"]


def test_by_name_and_missing_name():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    assert suite.by_name("clock").name == "clock"
    with pytest.raises(KeyError):
        suite.by_name("no-such-monitor")


def test_finalize_is_idempotent_and_detach_unhooks():
    built = build_simulation(make_spec())
    suite = run_checked(built)
    before = len(suite.violations)
    suite.finalize()  # second call must not re-run end checks
    assert len(suite.violations) == before
    suite.detach()
    assert built.sim.obs is None


def test_violation_documents_round_trip():
    built = build_simulation(make_spec())
    suite = run_checked(built, mode="collect")
    suite.by_name("clock").violate("synthetic", time=1.0)
    documents = suite.violation_documents()
    assert documents == [
        {"monitor": "clock", "message": "synthetic", "time": 1.0, "context": {}}
    ]

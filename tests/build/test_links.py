"""``BuiltScenario.links()``: one link list, and every family arms from it.

The three per-family lists this replaces disagreed: two never followed
``next_link``, one skipped the overlay's ack underlay, and none reached
the testbed's ``lan`` ingress hop (chained *into* ``forward``).
"""

from __future__ import annotations

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.check import attach_monitors
from repro.net.link import Link
from repro.obs import recording
from repro.perf import profiled
from repro.sim.observe import subscribers

EXPECTED = {
    "dumbbell": ["bottleneck", "ack-path"],
    "overlay": ["middlebox", "overlay-ack-path", "underlay", "underlay-ack"],
    "testbed": ["middlebox", "testbed-ack-path", "lan"],
}


def _spec(kind):
    return ScenarioSpec.from_document({
        "name": f"links-{kind}",
        "seed": 5,
        "duration": 8.0,
        "topology": {"type": kind, "capacity_bps": 600_000, "rtt": 0.2,
                     "pkt_size": 200},
        "queue": {"kind": "taq"},
        "workloads": [{"type": "bulk", "n_flows": 12}],
    })


def _reachable(topology):
    """Every Link the topology object holds, next_link chains followed —
    found by walking its attributes, not by any list of names."""
    found = []
    for value in vars(topology).values():
        while isinstance(value, Link) and value not in found:
            found.append(value)
            value = value.next_link
    return found


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_every_family_covers_the_same_links(kind):
    with profiled() as probe, recording() as recorder:
        built = build_simulation(_spec(kind))
    suite = attach_monitors(built, mode="collect")
    links = built.links()
    assert [link.name for link in links] == EXPECTED[kind]
    assert len({id(link) for link in links}) == len(links)
    assert {id(link) for link in links} == {
        id(link) for link in _reachable(built.topology)}

    built.run()
    suite.finalize()
    assert suite.violations == []
    # Monitors: one conservation ledger per link.
    assert [m.link for m in suite.monitors if m.name == "conservation"] == links
    # Spans: the recorder sits on every link and its queue, and each link
    # that carried traffic shows up as a packet stage.
    for link in links:
        assert recorder in subscribers(link)
        assert recorder in subscribers(link.queue)
    staged = {stage[2] for span in recorder.spans for stage in span.stages or ()
              if len(stage) > 2}
    assert staged == {link.name for link in links if link.stats.arrived}
    # Probe: its ledger-derived counters total those same links.
    counters = probe.counter_summary()
    assert counters["net.packets_delivered"] == sum(
        l.stats.delivered for l in links)
    assert counters["net.packets_dequeued"] == sum(
        l.stats.queue_delay_samples for l in links)


def test_the_testbed_lan_hop_is_observed():
    with recording() as recorder:
        built = build_simulation(_spec("testbed"))
        built.run()
    lan = built.topology.lan
    assert lan in built.links() and lan.stats.delivered > 0
    on_lan = [stage for span in recorder.spans for stage in span.stages or ()
              if stage[-1] == "lan"]
    assert on_lan, "data packets must record their LAN ingress stages"

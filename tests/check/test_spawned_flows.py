"""TCP legality follows flows spawned mid-run.

``attach_monitors`` can only wrap the senders that exist when it is
called; a web workload creates most of its flows later (one per object
fetched).  Each of those announces itself on the simulator's slot with
``flow_spawned`` and the suite wraps it then, so an armed run checks
every sender, not the handful present at build time.
"""

from repro.build import build_simulation
from repro.check.suite import attach_monitors

from tests.check.conftest import make_spec

WEB = dict(
    duration=12.0,
    topology={"type": "dumbbell", "capacity_bps": 1_000_000, "rtt": 0.1,
              "pkt_size": 500},
    queue={"kind": "taq"},
    workloads=[
        {"type": "web", "n_users": 8, "objects_per_user": 4,
         "object_bytes": 2500, "connections": 2, "start_window": 4.0},
        {"type": "short", "lengths": [10, 10], "start_time": 1.0},
    ],
)


def test_every_sender_of_a_web_run_is_wrapped():
    built = build_simulation(make_spec(**WEB))
    suite = attach_monitors(built)
    at_build = len(built.all_flows())
    assert len(suite.by_name("tcp")._senders) == at_build
    built.run()
    suite.finalize()
    flows = built.all_flows()
    # The point of the test: most flows did not exist at arming time.
    assert len(flows) >= 4 * at_build
    wrapped = suite.by_name("tcp")._senders
    assert len(wrapped) == len(flows)
    assert {id(sender) for sender in wrapped} == {id(flow.sender) for flow in flows}
    assert all("receive" in vars(flow.sender) for flow in flows)


def test_a_fault_in_a_spawned_sender_is_caught():
    built = build_simulation(make_spec(**WEB))
    suite = attach_monitors(built, mode="collect")
    at_build = {flow.flow_id for flow in built.all_flows()}
    broken = []

    def break_one():
        # A window cap under one segment pins cwnd below 1 MSS on the
        # sender's next new ACK.
        for flow in built.all_flows():
            sender = flow.sender
            if flow.flow_id not in at_build and sender.state == "established":
                sender.max_cwnd = 0.5
                broken.append(flow.flow_id)
                return

    for when in (2.0, 3.0, 4.0, 5.0):  # whenever a spawned flow is mid-transfer
        built.sim.schedule_at(when, lambda: broken or break_one())
    built.run()
    suite.finalize()
    assert broken, "no spawned flow was established at any probe time"
    (flow_id,) = broken
    caught = [v for v in suite.violations if v.monitor == "tcp"]
    assert caught and all(v.context["flow_id"] == flow_id for v in caught)
    assert f"flow {flow_id}: cwnd=0.5 below 1 MSS" in caught[0].message

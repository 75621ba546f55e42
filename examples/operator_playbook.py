#!/usr/bin/env python3
"""An operator's afternoon with a TAQ middlebox.

A walk through the operational surface of the library: run a scenario,
inspect the middlebox with :func:`repro.core.taq_report`, read the
§2.3 census off the slice goodput collector every run attaches, and
query the admission controller's visible wait queue.

Run:  python examples/operator_playbook.py
"""

import itertools

from repro.build import build_simulation
from repro.core import AdmissionController, taq_report
from repro.experiments.runner import dumbbell_spec
from repro.workloads import spawn_bulk_flows
from repro.workloads.web import WebUser

CAPACITY = 600_000
RTT = 0.2
DURATION = 120.0


def main() -> None:
    # --- 1. Stand up the middlebox with admission control -------------
    admission = AdmissionController(p_thresh=0.1, t_wait=5.0)
    built = build_simulation(dumbbell_spec("taq", CAPACITY, rtt=RTT, seed=13,
                                           admission=admission))

    # --- 2. Offer a pathological load ---------------------------------
    bulk = spawn_bulk_flows(built.topology, 90, start_window=5.0, extra_rtt_max=0.1)
    flow_ids = itertools.count(10_000)
    sessions = [
        WebUser(built.topology, user_id, [15_000] * 6, flow_ids, connections=4,
                start_time=20.0 + 4.0 * user_id, persistent_syn=True)
        for user_id in range(8)
    ]
    built.sim.run(until=DURATION)

    # --- 3. The operator's snapshot -----------------------------------
    print("=" * 64)
    print(taq_report(built.queue))
    print("=" * 64)

    # --- 4. The admission controller's visible queue -------------------
    snapshot = admission.queue_snapshot(built.sim.now)
    if snapshot:
        print("\nwaiting pools (the 'come back later' queue):")
        for pool, waited, expected in snapshot:
            print(f"  pool {pool}: waited {waited:.1f}s, "
                  f"guaranteed within {expected:.1f}s")
    else:
        print("\nno pools waiting for admission")

    # --- 5. The §2.3 census over the bulk flows, per full 20 s slice ----
    collector, flow_ids = built.collector, [f.flow_id for f in bulk]
    print(f"\n{'slice':>8} {'shut out':>10} {'top-40% share':>14}")
    for index in range(1, int(DURATION / collector.slice_seconds)):
        print(f"{index * collector.slice_seconds:>7.0f}s "
              f"{collector.shut_out_fraction(index, flow_ids):>9.0%} "
              f"{collector.capture_share(index, flow_ids):>13.0%}")

    completed = sum(len(u.samples) for u in sessions)
    print(f"\nweb sessions completed {completed} objects; "
          f"{built.queue.admission_refusals} SYNs were refused at the gate")


if __name__ == "__main__":
    main()

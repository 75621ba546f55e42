"""Integration: the model's silence-run predictions against simulation.

Beyond the census (Fig 6), the model makes a sharper prediction: how
*long* silent periods last (the geometry behind §2.3's hangs).  This
test measures silent-run lengths from sender round logs in a Wmax=6
SACK population and checks the model's expected run length is in the
same range and that both lengthen with p.
"""

from repro.build import build_simulation
from repro.experiments.runner import dumbbell_spec
from repro.model import expected_silence_run
from repro.workloads import spawn_bulk_flows


def measure_mean_silence_run(n_flows, seed=1, duration=90.0, warmup=20.0):
    bench = build_simulation(dumbbell_spec("droptail", 750_000, rtt=0.2, seed=seed))
    flows = spawn_bulk_flows(
        bench.topology, n_flows, start_window=5.0, extra_rtt_max=0.1,
        sack=True, max_cwnd=6.0, min_rto=0.4, round_log=True,
    )
    bench.sim.run(until=duration)
    runs = []
    for flow in flows:
        epoch = flow.sender.rto.srtt if flow.sender.rto.has_sample else flow.rtt
        rounds = sorted(flow.sender.round_log.rounds)
        previous_end = None
        for start, end, _sent in rounds:
            if start < warmup:
                previous_end = max(end, start + epoch)
                continue
            if previous_end is not None:
                silent = int(max(0.0, start - previous_end) / epoch)
                if silent >= 1:
                    runs.append(silent)
            previous_end = max(end, start + epoch)
    p = bench.queue.loss_rate()
    mean_run = sum(runs) / len(runs) if runs else 0.0
    return p, mean_run


def test_silence_runs_model_vs_simulation():
    p_low, run_low = measure_mean_silence_run(40)
    p_high, run_high = measure_mean_silence_run(150)
    assert p_low < p_high
    # Both lengthen with contention.
    assert run_high > run_low
    # The model's expectation lands in the same range (within ~2.5x —
    # the sim's RTO is srtt + 4*var, the model's an idealized 2xRTT).
    for p, measured in ((p_low, run_low), (p_high, run_high)):
        predicted = expected_silence_run(min(p, 0.49))
        assert predicted / 2.5 < measured < predicted * 2.5, (p, measured, predicted)

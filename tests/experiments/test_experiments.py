"""Smoke + unit tests of each experiment module at tiny scale.

The verdicts (``test_verdicts.py``) assert the *shapes* at default scale; these tests
assert the machinery — configs, result containers, derived metrics —
at scales that run in well under a second each.
"""

import pytest

from repro.experiments import (
    fig01_download_times as fig1,
    fig02_fairness_droptail as fig2,
    fig03_buffer_tradeoff as fig3,
    fig06_model_validation as fig6,
    fig08_fairness_taq as fig8,
    fig09_flow_evolution as fig9,
    fig10_short_flows as fig10,
    fig11_testbed as fig11,
    fig12_admission_cdf as fig12,
    hang_times,
)


def test_fig02_tiny_run_and_table():
    config = fig2.Config(
        capacities_bps=(400_000.0,), fair_shares_bps=(20_000.0,), duration=25.0
    )
    result = fig2.run(config)
    assert len(result.points) == 1
    text = str(result)
    assert "Fig 2" in text


def test_fig02_paper_config_is_larger():
    assert len(fig2.Config.paper().fair_shares_bps) > len(fig2.Config().fair_shares_bps)
    assert fig2.Config.paper().duration > fig2.Config().duration


def test_fig03_tiny_run_required_buffer():
    config = fig3.Config(
        fair_shares_pkts_per_rtt=(1.0,), buffer_rtts=(1.0, 2.0), duration=25.0
    )
    result = fig3.run(config)
    assert set(result.jfi) == {(1.0, 1.0), (1.0, 2.0)}
    # required_buffer of an unreachable target is None.
    assert result.required_buffer(1.0, 2.0) is None
    assert "Fig 3" in str(result)


def test_fig06_census_from_rounds_basic():
    rounds = {1: [(0.0, 0.2, 2), (1.0, 1.2, 3)]}
    epochs = {1: 0.2}
    census = fig6.census_from_rounds(rounds, epochs, 0.0, 1.4)
    # One 2-round, one 3-round, plus 4 silent epochs [0.2..1.0).
    assert census[2] == pytest.approx(1 / 6)
    assert census[3] == pytest.approx(1 / 6)
    assert census[0] == pytest.approx(4 / 6)


def test_fig06_census_excludes_big_windows():
    rounds = {1: [(0.0, 0.2, 12)]}
    census = fig6.census_from_rounds(rounds, {1: 0.2}, 0.0, 0.2, wmax=6)
    assert sum(census.values()) == 0.0  # the only round was excluded


def test_fig06_census_flow_with_no_rounds_is_all_silent():
    census = fig6.census_from_rounds({}, {1: 0.5}, 0.0, 5.0)
    assert census[0] == pytest.approx(1.0)


def test_fig06_tiny_run():
    config = fig6.Config(capacities_bps=(400_000.0,), flow_counts=(40,), duration=40.0, warmup=10.0)
    result = fig6.run(config)
    point = result.points[0]
    assert 0.0 <= point.loss_rate < 1.0
    assert abs(sum(point.sim_census.values()) - 1.0) < 1e-6
    assert point.l1_distance("partial") >= 0.0
    assert "Fig 6" in str(result)


def test_fig08_includes_droptail_baseline():
    config = fig8.Config(
        capacities_bps=(400_000.0,), fair_shares_bps=(20_000.0,), duration=25.0
    )
    result = fig8.run(config)
    assert len(result.baseline) == 1
    assert "Fig 8" in str(result)


def test_fig09_tiny_run():
    result = fig9.run(fig9.Config(n_flows=30, duration=40.0))
    assert set(result.means) == {"droptail", "taq"}
    for means in result.means.values():
        assert means["maintained"] >= 0
    assert "Fig 9" in str(result)


def test_fig10_pearson():
    assert fig10.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert fig10.pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)
    assert fig10.pearson([1], [1]) == 0.0
    assert fig10.pearson([1, 1, 1], [1, 2, 3]) == 0.0


def test_fig10_tiny_run():
    config = fig10.Config(
        n_long_flows=20, short_lengths=(2, 10), duration=60.0, queue_kinds=("taq",)
    )
    result = fig10.run(config)
    assert result.completion_fraction("taq") == 1.0
    assert "Fig 10" in str(result)


def test_fig11_tiny_run():
    config = fig11.Config(
        capacities_bps=(600_000.0,), fair_shares_bps=(20_000.0,), duration=30.0
    )
    result = fig11.run(config)
    assert result.jain("taq", 600_000.0, 20_000.0) > 0
    with pytest.raises(KeyError):
        result.jain("taq", 1.0, 1.0)
    assert "Fig 11" in str(result)


def test_fig12_tiny_run():
    config = fig12.Config(
        n_users=6, objects_per_user=3, duration=60.0, arrival_window=10.0,
        queue_kinds=("droptail", "taq+ac"),
    )
    result = fig12.run(config)
    assert ("droptail", "small") in result.bands
    assert ("taq+ac", "large") in result.bands
    assert "Fig 12" in str(result)


def test_fig01_tiny_run():
    result = fig1.run(fig1.Config(n_clients=8, duration=60.0))
    assert result.completed > 0
    assert result.spread() >= 0.0
    assert "Fig 1" in str(result)


def test_hangs_tiny_run():
    config = hang_times.Config(
        user_counts=(8,), duration=60.0, objects_per_user=6,
        queue_kinds=("droptail",),
    )
    result = hang_times.run(config)
    point = result.point("droptail", 8)
    assert 0.0 <= point.fraction_over[5.0] <= 1.0
    with pytest.raises(KeyError):
        result.point("taq", 8)
    assert "hangs" in str(result)

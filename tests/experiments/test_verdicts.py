"""Verdicts: the claims EXPERIMENTS.md makes, checked on the committed goldens.

One verdict per golden stem.  Each reads ``goldens/<stem>.csv`` and
asserts who wins, roughly by how much and where the crossovers fall —
the rows of the matching EXPERIMENTS.md section — never a number to the
last digit.  No verdict runs a simulation or imports ``repro``:
``test_goldens.py`` proves the code reproduces every CSV byte for byte,
so a claim asserted on the CSV is a claim about the code.  A re-recorded
golden that flips a claim fails here.

Claims that need a fresh simulation (ablations, fig06 under RED/SFQ,
three seeds) are in ``test_claims.py``.
"""

from __future__ import annotations

import csv
import math
import os
import re
from typing import Callable, Dict, List

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Row = Dict[str, object]

#: golden stem -> its verdict.
VERDICTS: Dict[str, Callable[[], None]] = {}


def verdict(check: Callable[[], None]) -> Callable[[], None]:
    """Register *check*, named ``test_<stem>``, as the verdict on ``<stem>.csv``."""
    VERDICTS[check.__name__[len("test_"):]] = check
    return check


def _cell(text: str) -> object:
    try:
        return float(text)
    except ValueError:
        return text


def golden(stem: str) -> List[Row]:
    with open(os.path.join(GOLDEN_DIR, f"{stem}.csv"), encoding="utf-8", newline="") as handle:
        return [{key: _cell(value) for key, value in row.items()}
                for row in csv.DictReader(handle)]


def by(rows: List[Row], *keys: str) -> Dict[object, Row]:
    """Index *rows* by one column, or by a tuple of several."""
    if len(keys) == 1:
        return {row[keys[0]]: row for row in rows}
    return {tuple(row[key] for key in keys): row for row in rows}


def pearson(xs: List[float], ys: List[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))


@verdict
def test_fig01():
    buckets = by(golden("fig01"), "size_bucket")
    assert sum(b["count"] for b in buckets.values()) > 100
    # Over two orders of magnitude between fastest and slowest (2.46).
    fastest = min(b["min_s"] for b in buckets.values())
    slowest = max(b["max_s"] for b in buckets.values())
    assert math.log10(slowest / fastest) > 1.5
    # 1-10 KB objects: 57x spread, and a 90th percentile of many seconds.
    small = buckets["1e3B"]
    assert small["max_s"] / small["min_s"] > 10
    assert small["p90_s"] > 2.0
    # The relative spread narrows for the biggest bucket (1.4x).
    big = buckets["1e6B"]
    assert big["max_s"] / big["min_s"] < small["max_s"] / small["min_s"]


@verdict
def test_fig02():
    rows = golden("fig02")
    for row in rows:
        # Long-term fairness beats short-term, and the link stays full.
        assert row["long_jfi"] > row["short_jfi"]
        assert row["util"] > 0.9
        if row["fair_share_bps"] == 2500.0:
            # Deepest point: short-term collapse, flows shut out.
            assert row["pkts_per_rtt"] < 0.5
            assert row["short_jfi"] < 0.5
            assert row["shut_out"] > 0.15
    # The 600 Kbps row collapses monotonically into the sub-packet regime.
    by_share = by([row for row in rows if row["capacity_kbps"] == 600.0], "fair_share_bps")
    row600 = [by_share[share]["short_jfi"] for share in sorted(by_share)]
    assert row600 == sorted(row600)


@verdict
def test_fig03():
    cells = by(golden("fig03"), "fair_share_pkts_rtt", "buffer_rtts")
    # Buffer buys fairness deep in the regime: 0.52 -> 0.67.
    assert cells[(0.25, 5.0)]["short_jfi"] > cells[(0.25, 1.0)]["short_jfi"] + 0.05

    def required_buffer(share: float, target: float):
        for (f, b), cell in sorted(cells.items()):
            if f == share and cell["short_jfi"] >= target:
                return b
        return None

    # JFI 0.6 needs 2 RTTs at 0.25 pkt/RTT, 1 RTT at 1.25.
    deep, mild = required_buffer(0.25, 0.6), required_buffer(1.25, 0.6)
    assert mild is not None
    assert deep is None or deep >= mild
    # The delay cost is measured, and the buffer really is full.
    small, big = cells[(0.25, 1.0)], cells[(0.25, 5.0)]
    assert big["max_q_delay_s"] > small["max_q_delay_s"]
    assert big["mean_q_delay_s"] > 2.0 * small["mean_q_delay_s"]
    assert big["p95_q_delay_s"] > small["p95_q_delay_s"]
    assert big["mean_q_delay_s"] > 0.5 * big["max_q_delay_s"]


@verdict
def test_fig06():
    points = sorted(golden("fig06"), key=lambda row: row["p"])
    low, high = points[0], points[-1]
    assert high["p"] > 0.05
    # Partial-model L1 0.13-0.44 at every point and every bandwidth.
    for point in points:
        assert point["l1_partial"] < 0.5
    # Agreement does not degrade with p: 0.39 at p=0.37 vs 0.35 at p=0.08.
    assert high["l1_partial"] <= low["l1_partial"] + 0.05
    # The "1 sent" and "2 sent" buckets agree within 0.11 past p = 0.15.
    for point in points:
        if point["p"] > 0.15:
            assert abs(point["sim_1"] - point["model_1"]) < 0.12
            assert abs(point["sim_2"] - point["model_2"]) < 0.12
    # The model under-predicts "0 sent" at the deepest point: 0.19 gap.
    assert abs(high["sim_0"] - high["model_0"]) < 0.2
    # "0 sent" grows with p in both, at every bandwidth.
    for capacity in {point["capacity_kbps"] for point in points}:
        row = [point for point in points if point["capacity_kbps"] == capacity]
        for column in ("sim_0", "model_0"):
            assert [point[column] for point in row] == sorted(point[column] for point in row)
    assert high["sim_0"] > low["sim_0"]
    assert high["model_0"] > low["model_0"]


@verdict
def test_fig08():
    for point in golden("fig08"):
        # TAQ beats DropTail at all 15 points, at full utilization.
        assert point["taq_short_jfi"] > point["dt_short_jfi"]
        assert point["taq_util"] > 0.9
        share = point["fair_share_bps"]
        if share == 2500.0:
            assert point["taq_short_jfi"] > 0.5
        elif share == 5000.0:
            assert point["taq_short_jfi"] > 0.6
            assert point["taq_shut_out"] < 0.1
        else:
            # 0.94 and above from 10 Kbps up, and nobody shut out.
            assert point["taq_short_jfi"] > 0.93
            assert point["taq_shut_out"] == 0.0


@verdict
def test_fig09():
    means = by(golden("fig09"), "queue")
    dt, taq = means["droptail"], means["taq"]
    # Stalled flows roughly halved: 34.4 vs 60.1 per window.
    assert taq["stalled"] < dt["stalled"] * 0.6
    # Maintained 1.3x DropTail's: 104.8 vs 80.7.
    assert taq["maintained"] > dt["maintained"] * 1.25
    # At most a fifth of the population stalls under TAQ (34.4 of 180).
    population = sum(taq[c] for c in ("arriving", "dropped", "maintained", "stalled"))
    assert taq["stalled"] < 0.2 * population


@verdict
def test_fig10():
    rows = golden("fig10")
    done = {kind: [(row["length_pkts"], row["download_s"]) for row in rows
                   if row["queue"] == kind and not math.isnan(row["download_s"])]
            for kind in ("taq", "droptail")}
    # Every short flow completes under TAQ.
    assert len(done["taq"]) == sum(1 for row in rows if row["queue"] == "taq")
    taq_r, dt_r = (pearson([n for n, _ in done[kind]], [t for _, t in done[kind]])
                   for kind in ("taq", "droptail"))
    # Download time ~ linear in length under TAQ (r = 0.93), clearly more
    # so than DropTail's scatter (0.83).
    assert taq_r > 0.9
    assert taq_r > dt_r + 0.05
    # A better worst case, and the longest flow is not starved.
    assert max(t for _, t in done["taq"]) < max(t for _, t in done["droptail"])
    assert max(done["taq"])[1] < 60.0


@verdict
def test_fig11():
    rows = golden("fig11")
    cells = by(rows, "queue", "capacity_kbps", "fair_share_bps")
    for (queue, capacity, share), cell in cells.items():
        if queue == "taq":
            # TAQ > DT at all 8 testbed points.
            assert cell["short_jfi"] > cells[("droptail", capacity, share)]["short_jfi"]
    for row in rows:
        assert row["util"] > 0.85


@verdict
def test_fig12():
    bands = by(golden("fig12"), "queue", "band")
    for band in ("small", "large"):
        dt, ac = bands[("droptail", band)], bands[("taq+ac", band)]
        # Worst case and median improve, waiting time included.
        assert ac["worst_s"] < dt["worst_s"]
        assert ac["median_s"] < dt["median_s"]
    # The large-object tail shrinks: p90 62.8 vs 93.8.
    assert bands[("taq+ac", "large")]["p90_s"] < bands[("droptail", "large")]["p90_s"]


@verdict
def test_hangs():
    points = by(golden("hangs"), "queue", "users")
    dt_light, dt_heavy = points[("droptail", 50.0)], points[("droptail", 100.0)]
    taq_light, taq_heavy = points[("taq", 50.0)], points[("taq", 100.0)]
    # Heavier sharing worsens hangs: 84% of users hang > 5 s, 7% > 20 s.
    assert dt_heavy[">5s"] >= dt_light[">5s"]
    assert dt_heavy[">5s"] > 0.8
    assert dt_heavy[">20s"] > 0.05
    # TAQ removes most hangs: >5 s 0.28 -> 0.06 and 0.84 -> 0.54, >20 s
    # 0.07 -> 0.04 (nobody hangs > 20 s at 50 users in either arm).
    assert taq_light[">5s"] < dt_light[">5s"] * 0.5
    assert taq_heavy[">5s"] < dt_heavy[">5s"]
    assert taq_heavy[">20s"] < dt_heavy[">20s"]
    assert taq_light[">20s"] <= dt_light[">20s"]


@verdict
def test_overlay():
    modes = by(golden("overlay"), "mode")
    clean, raw, overlay = modes["clean"], modes["raw"], modes["overlay"]
    # Raw: downstream loss reaches the flows and fairness drops.
    assert raw["short_jfi"] < clean["short_jfi"] - 0.02
    assert raw["downstream_loss"] > 0.1
    # Overlay: loss hidden, fairness at least clean's.
    assert overlay["short_jfi"] > clean["short_jfi"] - 0.02
    assert overlay["short_jfi"] > raw["short_jfi"]
    assert overlay["downstream_loss"] < 0.01
    # The tunnel does the work, at full utilization.
    assert overlay["tunnel_retx"] > 0
    assert overlay["util"] > 0.9
    assert raw["util"] > 0.9


@verdict
def test_padhye():
    points = sorted(golden("padhye"), key=lambda row: row["p"])
    low, high = points[0], points[-1]

    def error(point: Row, model: str) -> float:
        return abs(point[model] - point["simulated"]) / point["simulated"]

    assert low["p"] < 0.1 < high["p"]
    # Small p: Padhye as good (0.13 vs 0.18).  High p: the stationary
    # model clearly better (0.05 vs 0.56).
    assert error(low, "padhye") <= error(low, "partial") + 0.1
    assert error(high, "partial") < error(high, "padhye") - 0.1
    assert error(high, "padhye") > error(low, "padhye")
    assert error(high, "partial") < 0.4
    # Simulation and both predictors agree throughput decays with p.
    for column in ("simulated", "padhye", "partial"):
        assert high[column] < low[column]


@verdict
def test_pool():
    setups = by(golden("pool"), "setup")
    droptail, per_flow, per_pool = setups["droptail"], setups["taq-flow"], setups["taq-pool"]
    # Many-connection users win big: 4.8x and 4.2x.
    assert droptail["big:small_user_bw"] > 2.5
    assert per_flow["big:small_user_bw"] > 2.5
    # Pool shares shrink the gap to 2.8x and lift user JFI to 0.82.
    assert per_pool["big:small_user_bw"] < per_flow["big:small_user_bw"] - 0.5
    assert per_pool["user_jfi"] > per_flow["user_jfi"] + 0.03
    # Without giving up flow fairness or the link.
    assert per_pool["flow_jfi"] > 0.85
    for setup in setups.values():
        assert setup["util"] > 0.9


@verdict
def test_rttf():
    setups = by(golden("rttf"), "setup")
    droptail, fq, proportional = setups["droptail"], setups["taq-fq"], setups["taq-proportional"]
    ratio = "shortRTT:longRTT_bw"
    # TCP's native 1/RTT bias (2.3x), compressed most by fair queuing.
    assert droptail[ratio] > 1.5
    assert droptail[ratio] > fq[ratio]
    assert fq[ratio] < proportional[ratio]
    # Both TAQ models beat DropTail's fairness (0.89, 0.84 vs 0.64).
    assert fq["short_jfi"] > droptail["short_jfi"] + 0.1
    assert proportional["short_jfi"] > droptail["short_jfi"] + 0.1
    for setup in setups.values():
        assert setup["util"] > 0.9


@verdict
def test_spr():
    scenarios = by(golden("spr"), "scenario")
    newreno, all_spr = scenarios["all-newreno"], scenarios["all-spr"]
    mixed, taq = scenarios["mixed"], scenarios["taq-reference"]
    # Universal adoption recovers TAQ-level fairness (0.82 vs 0.57)...
    assert all_spr["short_jfi"] > newreno["short_jfi"] + 0.15
    assert all_spr["short_jfi"] > taq["short_jfi"] - 0.05
    assert all_spr["shut_out"] < newreno["shut_out"] * 0.6
    # ...paid for with extra loss (0.33 vs 0.26), with SPR engaged.
    assert all_spr["loss"] > newreno["loss"] + 0.03
    assert all_spr["spr_entries"] > 50
    # Mixed: SPR flows out-compete legacy ones (1.88x).
    assert mixed["spr_vs_legacy"] > 1.3
    for scenario in scenarios.values():
        assert scenario["util"] > 0.9
        assert scenario["goodput_eff"] > 0.9


@verdict
def test_variants():
    rows = golden("variants")
    cells = by(rows, "transport", "queue")
    classic = [row for row in rows if row["queue"] != "TAQ"]
    # TAQ with plain NewReno (0.77) beats the best combination (0.66).
    best = max(row["short_jfi"] for row in classic)
    assert cells[("newreno", "TAQ")]["short_jfi"] > best + 0.05
    for row in classic:
        # Every combination fails on fairness, not on filling the pipe.
        assert row["short_jfi"] < 0.72
        assert row["util"] > 0.92
    # TFRC is the worst transport (0.28-0.33).
    tfrc = [row["short_jfi"] for row in classic if row["transport"] == "tfrc"]
    assert max(tfrc) < min(row["short_jfi"] for row in classic if row["transport"] != "tfrc")
    # RED/SFQ stay within 0.13 JFI of DropTail for every transport.
    for transport in {row["transport"] for row in classic}:
        droptail = cells[(transport, "droptail")]["short_jfi"]
        for queue in ("red", "sfq"):
            assert abs(cells[(transport, queue)]["short_jfi"] - droptail) < 0.13
    # Timeouts are rampant at 5 Kbps: every TCP transport times out more
    # often than its 120 flows (NewReno/DropTail: 3329).
    for row in classic:
        if row["transport"] != "tfrc":
            assert row["timeouts"] > 120


def test_every_golden_has_a_verdict():
    stems = {os.path.splitext(name)[0] for name in os.listdir(GOLDEN_DIR)}
    assert stems == set(VERDICTS)


def test_experiments_md_names_existing_tests():
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as handle:
        named = set(re.findall(r"(tests/[\w/]+\.py)::(test_\w+)", handle.read()))
    assert named, "EXPERIMENTS.md names no test"
    missing = []
    for path, name in sorted(named):
        full = os.path.join(ROOT, path)
        if not os.path.exists(full):
            missing.append(f"{path}::{name}")
            continue
        with open(full, encoding="utf-8") as handle:
            if not re.search(rf"^\s*def {name}\(", handle.read(), re.MULTILINE):
                missing.append(f"{path}::{name}")
    assert missing == []

"""Verdicts: the claims EXPERIMENTS.md makes, checked on the committed goldens.

One verdict per golden stem.  Each reads ``goldens/<stem>.csv`` and
checks who wins, roughly by how much and where the crossovers fall —
the rows of the matching EXPERIMENTS.md section — never a number to the
last digit.  No verdict runs a simulation or imports ``repro``:
``test_goldens.py`` proves the code reproduces every CSV byte for byte,
so a claim checked on the CSV is a claim about the code.  A re-recorded
golden that flips a claim fails here.  Each check is a ``claim()``, its
bound written once; the tightest instance of each claim is committed in
``VERDICTS.json`` (rewrite it with ``python tests/experiments/test_verdicts.py``),
and EXPERIMENTS.md's claim cells render that file.

Claims that need a fresh simulation (ablations, fig06 under RED/SFQ,
three seeds) are in ``test_claims.py``.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import re
from typing import Callable, Dict, List, Optional

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
VERDICTS_JSON = os.path.join(ROOT, "VERDICTS.json")

Row = Dict[str, object]

#: golden stem -> its verdict.
VERDICTS: Dict[str, Callable[[], None]] = {}

#: claim id -> its tightest instance so far.
CLAIMS: Dict[str, dict] = {}

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
       "==": operator.eq, "is not": operator.is_not}


def verdict(check: Callable[[], None]) -> Callable[[], None]:
    """Register *check*, named ``test_<stem>``, as the verdict on ``<stem>.csv``."""
    VERDICTS[check.__name__[len("test_"):]] = check
    return check


def claim(claim_id: str, value, op: str, bound, where: Optional[str] = None) -> None:
    """Assert ``value op bound``; record it as *claim_id* if its margin, signed in
    the claim's direction, is the smallest yet (ties: the least *where*, the
    golden row's key)."""
    assert OPS[op](value, bound), f"{claim_id} at {where}: {value!r} {op} {bound!r}"
    margin = value - bound if op in (">", ">=") else bound - value if op in ("<", "<=") else None
    record = dict(id=claim_id, value=value, op=op, bound=bound, margin=margin,
                  rel_margin=margin / abs(bound) if margin is not None and bound else None,
                  where=where)
    if tightness(record) < tightness(CLAIMS.setdefault(claim_id, record)):
        CLAIMS[claim_id] = record


def tightness(record: dict) -> tuple:
    return (math.inf if record["margin"] is None else record["margin"], record["where"] or "")


def at(*values: object) -> str:
    """A golden row's key as ``where`` records it: ``at(600.0, 2500.0) == "600/2500"``."""
    return "/".join(f"{value:g}" if isinstance(value, float) else str(value) for value in values)


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
    # fsum: the builtin float sum rounds differently from Python 3.12 on.
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / math.sqrt(math.fsum((x - mx) ** 2 for x in xs)
                           * math.fsum((y - my) ** 2 for y in ys))


@verdict
def test_fig01():
    buckets = by(golden("fig01"), "size_bucket")
    claim("fig01.spread.sample", math.fsum(b["count"] for b in buckets.values()), ">", 100)
    fastest = min(b["min_s"] for b in buckets.values())
    slowest = max(b["max_s"] for b in buckets.values())
    claim("fig01.spread.orders", math.log10(slowest / fastest), ">", 1.5)
    small, big = buckets["1e3B"], buckets["1e6B"]
    claim("fig01.spread.small", small["max_s"] / small["min_s"], ">", 10)
    claim("fig01.slow", small["p90_s"], ">", 2.0)
    claim("fig01.narrows", big["max_s"] / big["min_s"], "<", small["max_s"] / small["min_s"])


@verdict
def test_fig02():
    rows = golden("fig02")
    for row in rows:
        here = at(row["capacity_kbps"], row["fair_share_bps"])
        claim("fig02.long", row["long_jfi"], ">", row["short_jfi"], here)
        claim("fig02.util", row["util"], ">", 0.9, here)
        if row["fair_share_bps"] == 2500.0:
            claim("fig02.collapse.deepest", row["short_jfi"], "<", 0.5, here)
            claim("fig02.shut_out.share", row["shut_out"], ">", 0.15, here)
    # The 600 Kbps row's short-term JFI falls at every step into the regime.
    by_share = by([row for row in rows if row["capacity_kbps"] == 600.0], "fair_share_bps")
    shares = sorted(by_share)
    for low, high in zip(shares, shares[1:]):
        claim("fig02.collapse.monotone", by_share[high]["short_jfi"] - by_share[low]["short_jfi"],
              ">=", 0.0, at(600.0, high))


@verdict
def test_fig03():
    cells = by(golden("fig03"), "fair_share_pkts_rtt", "buffer_rtts")
    claim("fig03.purchasable", cells[(0.25, 5.0)]["short_jfi"], ">",
          cells[(0.25, 1.0)]["short_jfi"] + 0.05)

    def required_buffer(share: float, target: float):
        for (f, b), cell in sorted(cells.items()):
            if f == share and cell["short_jfi"] >= target:
                return b
        return None

    # No buffer reaching the target at the deep share counts as an unbounded one.
    deep, mild = required_buffer(0.25, 0.6), required_buffer(1.25, 0.6)
    claim("fig03.deeper.mild", mild, "is not", None)
    claim("fig03.deeper.deep", math.inf if deep is None else deep, ">=", mild)
    small, big = cells[(0.25, 1.0)], cells[(0.25, 5.0)]
    claim("fig03.delay.max", big["max_q_delay_s"], ">", small["max_q_delay_s"])
    claim("fig03.delay.mean", big["mean_q_delay_s"], ">", 2.0 * small["mean_q_delay_s"])
    claim("fig03.delay.p95", big["p95_q_delay_s"], ">", small["p95_q_delay_s"])
    claim("fig03.delay.full", big["mean_q_delay_s"], ">", 0.5 * big["max_q_delay_s"])


@verdict
def test_fig06():
    points = sorted(golden("fig06"), key=lambda row: row["p"])
    low, high = points[0], points[-1]
    claim("fig06.match.range", high["p"], ">", 0.05)
    for point in points:
        claim("fig06.bandwidths", point["l1_partial"], "<", 0.5,
              at(point["capacity_kbps"], point["flows"]))
    claim("fig06.match.high_p", high["l1_partial"], "<=", low["l1_partial"] + 0.05)
    for point in points:
        if point["p"] > 0.15:
            here = at(point["capacity_kbps"], point["flows"])
            claim("fig06.match.sent1", abs(point["sim_1"] - point["model_1"]), "<", 0.12, here)
            claim("fig06.match.sent2", abs(point["sim_2"] - point["model_2"]), "<", 0.12, here)
    claim("fig06.zero_grows.gap", abs(high["sim_0"] - high["model_0"]), "<", 0.2)
    # "0 sent" grows with p at every step, in both, at every bandwidth.
    for capacity in sorted({point["capacity_kbps"] for point in points}):
        row = [point for point in points if point["capacity_kbps"] == capacity]
        for column in ("sim_0", "model_0"):
            for a, b in zip(row, row[1:]):
                claim("fig06.zero_grows.monotone", b[column] - a[column], ">=", 0.0,
                      f"{at(capacity, b['flows'])}/{column}")
    claim("fig06.zero_grows.sim", high["sim_0"], ">", low["sim_0"])
    claim("fig06.zero_grows.model", high["model_0"], ">", low["model_0"])


@verdict
def test_fig08():
    for point in golden("fig08"):
        share = point["fair_share_bps"]
        here = at(point["capacity_kbps"], share)
        claim("fig08.improves", point["taq_short_jfi"], ">", point["dt_short_jfi"], here)
        claim("fig08.util", point["taq_util"], ">", 0.9, here)
        if share == 2500.0:
            claim("fig08.fair.2500", point["taq_short_jfi"], ">", 0.5, here)
        elif share == 5000.0:
            claim("fig08.fair.5000", point["taq_short_jfi"], ">", 0.6, here)
            claim("fig08.shut_out.5000", point["taq_shut_out"], "<", 0.1, here)
        else:
            claim("fig08.fair.10k", point["taq_short_jfi"], ">", 0.93, here)
            claim("fig08.shut_out.10k", point["taq_shut_out"], "==", 0.0, here)


@verdict
def test_fig09():
    means = by(golden("fig09"), "queue")
    dt, taq = means["droptail"], means["taq"]
    claim("fig09.stalled.halved", taq["stalled"], "<", dt["stalled"] * 0.6)
    claim("fig09.maintained", taq["maintained"], ">", dt["maintained"] * 1.25)
    population = math.fsum(taq[c] for c in ("arriving", "dropped", "maintained", "stalled"))
    claim("fig09.stalled.fifth", taq["stalled"], "<", 0.2 * population)


@verdict
def test_fig10():
    rows = golden("fig10")
    done = {kind: [(row["length_pkts"], row["download_s"]) for row in rows
                   if row["queue"] == kind and not math.isnan(row["download_s"])]
            for kind in ("taq", "droptail")}
    claim("fig10.linear.complete", len(done["taq"]), "==",
          sum(1 for row in rows if row["queue"] == "taq"))
    taq_r, dt_r = (pearson([n for n, _ in done[kind]], [t for _, t in done[kind]])
                   for kind in ("taq", "droptail"))
    claim("fig10.linear.r", taq_r, ">", 0.9)
    claim("fig10.scatter.r", taq_r, ">", dt_r + 0.05)
    claim("fig10.scatter.worst", max(t for _, t in done["taq"]), "<",
          max(t for _, t in done["droptail"]))
    claim("fig10.linear.longest", max(done["taq"])[1], "<", 60.0)


@verdict
def test_fig11():
    rows = golden("fig11")
    cells = by(rows, "queue", "capacity_kbps", "fair_share_bps")
    for (queue, capacity, share), cell in cells.items():
        if queue == "taq":
            claim("fig11.carries_over", cell["short_jfi"], ">",
                  cells[("droptail", capacity, share)]["short_jfi"], at(capacity, share))
    for row in rows:
        claim("fig11.util", row["util"], ">", 0.85,
              at(row["queue"], row["capacity_kbps"], row["fair_share_bps"]))


@verdict
def test_fig12():
    bands = by(golden("fig12"), "queue", "band")
    for band in ("small", "large"):
        dt, ac = bands[("droptail", band)], bands[("taq+ac", band)]
        claim("fig12.worst", ac["worst_s"], "<", dt["worst_s"], band)
        claim("fig12.overall", ac["median_s"], "<", dt["median_s"], band)
    claim("fig12.variance", bands[("taq+ac", "large")]["p90_s"], "<",
          bands[("droptail", "large")]["p90_s"])


@verdict
def test_hangs():
    points = by(golden("hangs"), "queue", "users")
    dt_light, dt_heavy = points[("droptail", 50.0)], points[("droptail", 100.0)]
    taq_light, taq_heavy = points[("taq", 50.0)], points[("taq", 100.0)]
    claim("hangs.worsens", dt_heavy[">5s"], ">=", dt_light[">5s"])
    claim("hangs.heavy.5s", dt_heavy[">5s"], ">", 0.8)
    claim("hangs.heavy.20s", dt_heavy[">20s"], ">", 0.05)
    claim("hangs.taq.light_5s", taq_light[">5s"], "<", dt_light[">5s"] * 0.5)
    claim("hangs.taq.heavy_5s", taq_heavy[">5s"], "<", dt_heavy[">5s"])
    claim("hangs.taq.heavy_20s", taq_heavy[">20s"], "<", dt_heavy[">20s"])
    claim("hangs.taq.light_20s", taq_light[">20s"], "<=", dt_light[">20s"])


@verdict
def test_overlay():
    modes = by(golden("overlay"), "mode")
    clean, raw, overlay = modes["clean"], modes["raw"], modes["overlay"]
    claim("overlay.raw.jfi", raw["short_jfi"], "<", clean["short_jfi"] - 0.02)
    claim("overlay.raw.loss", raw["downstream_loss"], ">", 0.1)
    claim("overlay.tunnel.jfi_clean", overlay["short_jfi"], ">", clean["short_jfi"] - 0.02)
    claim("overlay.tunnel.jfi_raw", overlay["short_jfi"], ">", raw["short_jfi"])
    claim("overlay.tunnel.loss", overlay["downstream_loss"], "<", 0.01)
    claim("overlay.tunnel.retx", overlay["tunnel_retx"], ">", 0)
    claim("overlay.tunnel.util", overlay["util"], ">", 0.9)
    claim("overlay.raw.util", raw["util"], ">", 0.9)


@verdict
def test_padhye():
    points = sorted(golden("padhye"), key=lambda row: row["p"])
    low, high = points[0], points[-1]

    def error(point: Row, model: str) -> float:
        return abs(point[model] - point["simulated"]) / point["simulated"]

    claim("padhye.small_p.range", low["p"], "<", 0.1)
    claim("padhye.high_p.range", high["p"], ">", 0.1)
    claim("padhye.small_p.error", error(low, "padhye"), "<=", error(low, "partial") + 0.1)
    claim("padhye.high_p.better", error(high, "partial"), "<", error(high, "padhye") - 0.1)
    claim("padhye.high_p.padhye_worse", error(high, "padhye"), ">", error(low, "padhye"))
    claim("padhye.high_p.partial", error(high, "partial"), "<", 0.4)
    for column in ("simulated", "padhye", "partial"):
        claim("padhye.decay", high[column], "<", low[column], column)


@verdict
def test_pool():
    setups = by(golden("pool"), "setup")
    droptail, per_flow, per_pool = setups["droptail"], setups["taq-flow"], setups["taq-pool"]
    claim("pool.many_conn.droptail", droptail["big:small_user_bw"], ">", 2.5)
    claim("pool.many_conn.per_flow", per_flow["big:small_user_bw"], ">", 2.5)
    claim("pool.shrinks.gap", per_pool["big:small_user_bw"], "<",
          per_flow["big:small_user_bw"] - 0.5)
    claim("pool.shrinks.user_jfi", per_pool["user_jfi"], ">", per_flow["user_jfi"] + 0.03)
    claim("pool.keeps.flow_jfi", per_pool["flow_jfi"], ">", 0.85)
    for name, setup in sorted(setups.items()):
        claim("pool.keeps.util", setup["util"], ">", 0.9, name)


@verdict
def test_rttf():
    setups = by(golden("rttf"), "setup")
    droptail, fq, proportional = setups["droptail"], setups["taq-fq"], setups["taq-proportional"]
    ratio = "shortRTT:longRTT_bw"
    claim("rttf.bias.droptail", droptail[ratio], ">", 1.5)
    claim("rttf.bias.fq", droptail[ratio], ">", fq[ratio])
    claim("rttf.bias.proportional", fq[ratio], "<", proportional[ratio])
    claim("rttf.fairness.fq", fq["short_jfi"], ">", droptail["short_jfi"] + 0.1)
    claim("rttf.fairness.proportional", proportional["short_jfi"], ">",
          droptail["short_jfi"] + 0.1)
    for name, setup in sorted(setups.items()):
        claim("rttf.fairness.util", setup["util"], ">", 0.9, name)


@verdict
def test_spr():
    scenarios = by(golden("spr"), "scenario")
    newreno, all_spr = scenarios["all-newreno"], scenarios["all-spr"]
    mixed, taq = scenarios["mixed"], scenarios["taq-reference"]
    claim("spr.universal.jfi", all_spr["short_jfi"], ">", newreno["short_jfi"] + 0.15)
    claim("spr.universal.vs_taq", all_spr["short_jfi"], ">", taq["short_jfi"] - 0.05)
    claim("spr.universal.shut_out", all_spr["shut_out"], "<", newreno["shut_out"] * 0.6)
    claim("spr.cost.loss", all_spr["loss"], ">", newreno["loss"] + 0.03)
    claim("spr.cost.engaged", all_spr["spr_entries"], ">", 50)
    claim("spr.mixed", mixed["spr_vs_legacy"], ">", 1.3)
    for name, scenario in sorted(scenarios.items()):
        claim("spr.cost.util", scenario["util"], ">", 0.9, name)
        claim("spr.cost.goodput", scenario["goodput_eff"], ">", 0.9, name)


@verdict
def test_variants():
    rows = golden("variants")
    cells = by(rows, "transport", "queue")
    classic = [row for row in rows if row["queue"] != "TAQ"]
    best = max(row["short_jfi"] for row in classic)
    claim("variants.none_escape.taq", cells[("newreno", "TAQ")]["short_jfi"], ">", best + 0.05)
    for row in classic:
        here = at(row["transport"], row["queue"])
        claim("variants.none_escape.jfi", row["short_jfi"], "<", 0.72, here)
        claim("variants.none_escape.util", row["util"], ">", 0.92, here)
    tfrc = [row["short_jfi"] for row in classic if row["transport"] == "tfrc"]
    claim("variants.none_escape.tfrc", max(tfrc), "<",
          min(row["short_jfi"] for row in classic if row["transport"] != "tfrc"))
    for transport in sorted({row["transport"] for row in classic}):
        droptail = cells[(transport, "droptail")]["short_jfi"]
        for queue in ("red", "sfq"):
            claim("variants.like_dt", abs(cells[(transport, queue)]["short_jfi"] - droptail), "<",
                  0.13, at(transport, queue))
    for row in classic:
        if row["transport"] != "tfrc":
            claim("variants.none_escape.timeouts", row["timeouts"], ">", 120,
                  at(row["transport"], row["queue"]))


def verdict_claims() -> List[dict]:
    """Run every verdict afresh; its claims, sorted by id."""
    CLAIMS.clear()
    for check in VERDICTS.values():
        check()
    return [CLAIMS[claim_id] for claim_id in sorted(CLAIMS)]


def test_verdicts_json_is_the_goldens():
    with open(VERDICTS_JSON, encoding="utf-8") as handle:
        recorded = {record["id"]: record for record in json.load(handle)}
    fresh = {record["id"]: record for record in verdict_claims()}
    moved = sorted(key for key in recorded.keys() | fresh.keys()
                   if recorded.get(key) != fresh.get(key))
    assert moved == [], "re-run python tests/experiments/test_verdicts.py and review the diff"


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


if __name__ == "__main__":
    with open(VERDICTS_JSON, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(c) for c in verdict_claims()) + "\n]\n")

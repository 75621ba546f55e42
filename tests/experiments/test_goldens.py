"""Golden-equivalence: every figure is bit-identical to the seed.

The CSVs in ``goldens/`` were captured from each experiment's
``run(Config())`` *before* the declarative build plane existed.  These
tests re-run the same defaults through the refactored construction path
and require byte-for-byte identical tables — the hard invariant of the
build-plane refactor.  A legitimate behaviour change must re-capture
the golden in the same commit and say why; ``test_verdicts.py`` then
checks the re-recorded table still makes the claims EXPERIMENTS.md makes.

Every test is marked ``slow`` except a fast subset (fig09, pool, rttf,
spr, variants-free subset is still tens of seconds); CI's
golden-equivalence job runs the fast subset, the full set runs on
demand: ``pytest tests/experiments/test_goldens.py --run-slow``.
"""

from __future__ import annotations

import importlib
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: golden file stem -> experiment module.  Must mirror the CLI registry.
EXPERIMENTS = {
    "fig01": "repro.experiments.fig01_download_times",
    "fig02": "repro.experiments.fig02_fairness_droptail",
    "fig03": "repro.experiments.fig03_buffer_tradeoff",
    "fig06": "repro.experiments.fig06_model_validation",
    "fig08": "repro.experiments.fig08_fairness_taq",
    "fig09": "repro.experiments.fig09_flow_evolution",
    "fig10": "repro.experiments.fig10_short_flows",
    "fig11": "repro.experiments.fig11_testbed",
    "fig12": "repro.experiments.fig12_admission_cdf",
    "hangs": "repro.experiments.hang_times",
    "overlay": "repro.experiments.overlay_deployment",
    "padhye": "repro.experiments.padhye_comparison",
    "pool": "repro.experiments.pool_fairness",
    "rttf": "repro.experiments.rtt_fairness",
    "spr": "repro.experiments.spr_endhost",
    "variants": "repro.experiments.variants",
}

#: Quick experiments safe for every CI run (~60 s total).  The rest
#: carry the ``slow`` marker.
FAST = ("fig09", "fig10", "overlay", "pool", "rttf")


def _golden_params():
    params = []
    for name in sorted(EXPERIMENTS):
        marks = () if name in FAST else (pytest.mark.slow,)
        params.append(pytest.param(name, id=name, marks=marks))
    return params


@pytest.mark.parametrize("name", _golden_params())
def test_experiment_matches_seed_golden(name):
    module = importlib.import_module(EXPERIMENTS[name])
    result = module.run(module.Config())
    # csv.writer emits \r\n; the goldens are stored LF — normalize the
    # line endings, nothing else.
    produced = result.table().to_csv().replace("\r\n", "\n")
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), encoding="utf-8") as handle:
        golden = handle.read().replace("\r\n", "\n")
    assert produced == golden, (
        f"{name} diverged from its seed golden — the build-plane refactor "
        f"must be bit-identical at default configs"
    )


def test_every_golden_has_a_test():
    stems = {os.path.splitext(f)[0] for f in os.listdir(GOLDEN_DIR)}
    assert stems == set(EXPERIMENTS)

"""Mean-field fluid backend: million-flow regimes in bounded memory.

The packet backend (:mod:`repro.sim`) simulates every packet; this
package simulates the *distribution* of flows over the paper's Markov
window states (McDonald–Reynier in PAPERS.md; CHANGES.md's mean-field
fluid backend entry records how it was built).  Cost per step is
independent of the flow count, so N = 10^6 is as cheap as N = 4 — the
price is that results are expectations of an approximation,
which is why the fluid backend ships inside a differential test
campaign (`tests/fluid/`, :func:`repro.check.differential.compare_backends`)
rather than on its own.  See ``docs/fluid.md`` for the model, the
agreement tolerances, and the validity envelope.

Select it per scenario with ``"backend": {"kind": "fluid"}`` — the
default ``packet`` backend stays bit-identical to every golden.
"""

from repro.fluid.backend import BuiltFluid, build_fluid
from repro.fluid.core import (
    FluidClass,
    FluidModel,
    FluidResult,
    LinkState,
    MASS_RTOL,
)
from repro.fluid.disciplines import FLUID_DISCIPLINES, droptail, pinned, red, taq
from repro.fluid.probe import FluidProbe, fluid_results_differ, instrument_fluid
from repro.fluid.stability import (
    OscillationReport,
    ReynierCondition,
    StabilityReport,
    detect_limit_cycle,
    render_stability,
    reynier_condition,
)

__all__ = [
    "BuiltFluid",
    "build_fluid",
    "FluidClass",
    "FluidModel",
    "FluidProbe",
    "FluidResult",
    "LinkState",
    "MASS_RTOL",
    "FLUID_DISCIPLINES",
    "OscillationReport",
    "ReynierCondition",
    "StabilityReport",
    "detect_limit_cycle",
    "droptail",
    "fluid_results_differ",
    "instrument_fluid",
    "pinned",
    "red",
    "render_stability",
    "reynier_condition",
    "taq",
]

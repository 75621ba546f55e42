"""The ``packet`` and ``fluid`` backends, registered with :data:`BACKENDS`.

The packet event simulator is the reference implementation — every
golden, cache key, and manifest was recorded against it, so its
registration wraps the historical assembly path unchanged (see
:func:`repro.build.harness.build_simulation`; specs whose backend is
``packet`` never even reach the registry dispatch).

The ``fluid`` entry is a thin builder: the kind and its accepted
parameters are known here, so documents validate and typos get their
did-you-mean without loading the engine, and :mod:`repro.fluid.backend`
(numpy, :mod:`repro.model`) is imported when a fluid document is built.
A packet run never pays for it.
"""

from __future__ import annotations

from typing import Optional

from repro.build.registries import BACKENDS, load_plugins


@BACKENDS.register("packet")
def build_packet(spec):
    """Assemble the packet-level event simulation for *spec*."""
    from repro.build.harness import _assemble_packet

    load_plugins(spec.plugins)
    return _assemble_packet(spec)


@BACKENDS.register("fluid")
def build_fluid(
    spec,
    dt: Optional[float] = None,
    wmax: Optional[int] = None,
    rtt_buckets: int = 4,
    fault_leak: float = 0.0,
):
    """Build the mean-field run for *spec*.

    The keywords restate :func:`repro.fluid.backend.build_fluid`'s
    (``tests/fluid/test_backend.py`` pins the two signatures equal):
    spec validation reads them off this builder, which is what keeps
    an unknown ``backend`` key a ``SpecError`` at parse time.
    """
    from repro.fluid import backend

    return backend.build_fluid(
        spec, dt=dt, wmax=wmax, rtt_buckets=rtt_buckets, fault_leak=fault_leak
    )

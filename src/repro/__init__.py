"""repro — a reproduction of "TAQ: Enhancing Fairness and Performance
Predictability in Small Packet Regimes" (Chen, Subramanian, Iyengar,
Ford — EuroSys 2014).

The package provides:

- a packet-level discrete-event network simulator (:mod:`repro.sim`,
  :mod:`repro.net`) with a from-scratch TCP (:mod:`repro.tcp`),
- the baseline queue disciplines DropTail / RED / SFQ
  (:mod:`repro.queues`),
- the paper's idealized Markov models of TCP in small packet regimes
  (:mod:`repro.model`),
- Timeout Aware Queuing — flow tracker, approximate state model,
  multi-level priority scheduler and admission control
  (:mod:`repro.core`),
- workload generators, metrics, a testbed-emulation harness, and one
  experiment module per figure in the paper's evaluation
  (:mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.testbed`,
  :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import Simulator, Dumbbell, TcpFlow
>>> sim = Simulator(seed=7)
>>> bell = Dumbbell(sim, capacity_bps=600_000, rtt=0.2)
>>> flows = [TcpFlow(bell, i, size_segments=50, start_time=0.01 * i)
...          for i in range(40)]
>>> sim.run(until=60.0)
"""

from importlib import import_module

__version__ = "1.0.0"

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*), so ``import repro.build`` pays only for what it runs.
_SOURCES = {
    "Dumbbell": "repro.net",
    "Host": "repro.net",
    "Link": "repro.net",
    "Packet": "repro.net",
    "DropTailQueue": "repro.queues",
    "QueueDiscipline": "repro.queues",
    "REDQueue": "repro.queues",
    "SFQQueue": "repro.queues",
    "Simulator": "repro.sim",
    "TcpFlow": "repro.tcp",
    "TCPReceiver": "repro.tcp",
    "TCPSender": "repro.tcp",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value

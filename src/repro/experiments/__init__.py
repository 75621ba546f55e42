"""One experiment module per figure in the paper's evaluation.

Every module exposes a ``Config`` dataclass (laptop-scale defaults plus
a ``paper()`` classmethod approximating the published parameters) and a
``run(config) -> *Result`` function whose result renders the same
rows/series the paper reports.  The mapping:

========  =================================================  ==========================
Exp id    Paper artifact                                     Module
========  =================================================  ==========================
FIG1      download-time scatter vs object size               fig01_download_times
FIG2      short/long-term JFI vs fair share, DropTail        fig02_fairness_droptail
FIG3      buffer needed for fairness                         fig03_buffer_tradeoff
HANG      §2.3 user-perceived hangs                          hang_times
FIG6      Markov-model validation                            fig06_model_validation
FIG8      short-term JFI vs fair share, TAQ                  fig08_fairness_taq
FIG9      flow evolution DT vs TAQ                           fig09_flow_evolution
FIG10     short-flow download times under TAQ                fig10_short_flows
FIG11     testbed JFI, DT vs TAQ                             fig11_testbed
FIG12     download-time CDFs with admission control          fig12_admission_cdf
TIP       model tipping point ~0.1                           (repro.model.analysis)
========  =================================================  ==========================

Run any of them from the command line::

    taq-experiments fig02
    taq-experiments fig12 --paper

or programmatically::

    from repro.experiments import fig08_fairness_taq as fig8
    result = fig8.run(fig8.Config())
    print(result)
"""

from importlib import import_module

#: Where each name lives: imported on first use (docs/performance.md,
#: *Cold start*), so ``taq-experiments --help`` builds nothing.
_SOURCES = {"TableResult": "repro.experiments.runner"}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_SOURCES[name]), name)
    return value

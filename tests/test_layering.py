"""The import graph follows the layering and the call graph.

``repro.obs``, ``repro.perf`` and ``repro.check`` subscribe to the
simulator through ``repro.sim.observe``; the dependency points one way.
Walking the AST (not ``sys.modules``) catches function-level imports
too — the kind that cost every ``TcpFlow`` an ``repro.obs`` import.

The second half is the cold-start fence (docs/performance.md, *Cold
start*): each entry point a user starts cold is run in a fresh
interpreter and ``sys.modules`` afterwards may name only the packages
that path executes — no numpy on a packet run, no sqlite3 / HTTP client
/ process pool on a ``jobs=1`` sweep over a dir store.  It compares
package sets, never module counts or times.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(repro.__file__)
LAYERS = ("sim", "net", "tcp", "queues", "core", "metrics", "workloads", "build")
#: The sweep plane joins them at module level only: the ``/metrics``
#: handlers import ``repro.obs.export`` where they render.
MODULE_LEVEL_LAYERS = ("parallel",)
FORBIDDEN = ("repro.obs", "repro.perf", "repro.check")


def _module_level(tree):
    """The nodes importing the file executes: no function bodies, no
    ``if TYPE_CHECKING:`` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (isinstance(child, ast.If)
                     and getattr(child.test, "id", "") == "TYPE_CHECKING"))


def _imports(path, module_level=False):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in (_module_level(tree) if module_level else ast.walk(tree)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
            # ``from repro import obs`` names the layer in the alias.
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_simulator_layers_do_not_import_observer_layers():
    offenders = []
    for layer in LAYERS + MODULE_LEVEL_LAYERS:
        for root, _dirs, files in os.walk(os.path.join(SRC, layer)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                for lineno, module in _imports(path, layer in MODULE_LEVEL_LAYERS):
                    if any(module == f or module.startswith(f + ".")
                           for f in FORBIDDEN):
                        offenders.append(
                            f"{os.path.relpath(path, SRC)}:{lineno} imports {module}")
    assert offenders == []


# ----------------------------------------------------------------------
# The cold-start fence: what each entry point leaves in sys.modules
# ----------------------------------------------------------------------
#: Third-party and stdlib modules no cold path may load: numpy is the
#: fluid/model stack's, the rest belong to the sqlite and HTTP stores
#: and to the process pool.
HEAVY = frozenset({
    "numpy", "sqlite3", "urllib.request", "http.client", "http.server",
    "ssl", "email", "multiprocessing", "concurrent.futures",
})
PACKET = frozenset({"build", "core", "experiments", "metrics", "net",
                    "queues", "sim", "tcp", "workloads"})
SWEEP = PACKET | {"parallel"}

_DOCUMENT = """
def document(kind, **extra):
    return dict({"duration": 1.0, "queue": {"kind": kind},
                 "topology": {"type": "dumbbell", "capacity_bps": 600000,
                              "rtt": 0.2},
                 "workloads": [{"type": "bulk", "n_flows": 4}]}, **extra)
"""
_PACKET_RUN = _DOCUMENT + """
import repro.build, repro.experiments.scenario
from repro.experiments.scenario import run_scenario
for kind in ("droptail", "taq"):
    run_scenario(document(kind))
"""
_FLUID_RUN = _DOCUMENT + """
from repro.experiments.scenario import run_scenario
run_scenario(document("taq", backend={"kind": "fluid"}))
"""
# A fluid document validates, typos included, before the engine loads.
_FLUID_VALIDATION = _DOCUMENT + """
from repro.build import BACKENDS, ScenarioSpec, SpecError
assert BACKENDS.kinds() == ["fluid", "packet"]
ScenarioSpec.from_document(document("taq", backend={"kind": "fluid", "dt": 0.01}))
for backend, message in (
    ({"kind": "fluid", "dtt": 0.01},
     "unknown key 'dtt' in backend (did you mean 'dt'?); accepted keys: "
     "dt, fault_leak, kind, rtt_buckets, wmax"),
    ({"kind": "fluidd"},
     "unknown backend kind 'fluidd' (did you mean 'fluid'?); registered "
     "kinds: fluid, packet"),
):
    try:
        ScenarioSpec.from_document(document("taq", backend=backend))
    except SpecError as exc:
        assert str(exc) == message, str(exc)
    else:
        raise AssertionError("accepted %r" % backend)
"""
_SWEEP_RUN = """
import os, sys
import repro.parallel, repro.experiments.sweeps
from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
root = sys.argv[1]
cache = ResultCache(os.path.join(root, "cache"))
store = JobStore(os.path.join(root, "jobs"), version=cache.version)
points = [PointSpec("repro.experiments.sweeps:run_sweep_point",
                    dict(kind="droptail", capacity_bps=100_000.0,
                         fair_share_bps=share, duration=1.0,
                         slice_seconds=0.5, seed=1))
          for share in (20_000.0, 25_000.0)]
runner = ParallelRunner(jobs=%d, cache=cache, store=store,
                        bus_dir=os.path.join(root, "bus"))
assert len(runner.run(points)) == 2
"""
_OPEN_STORE = """
import os, sys
from repro.parallel import parse_backend
assert parse_backend("{kind}:" + os.path.join(sys.argv[1], "s")).kind == "{kind}"
"""


def _script(module: str, *argv: str) -> str:
    """A console script's ``module:main`` called with *argv* (``--help``
    leaves through SystemExit)."""
    return (f"from {module} import main\n"
            f"try:\n    main({list(argv)!r})\nexcept SystemExit:\n    pass\n")


#: (id, snippet, repro packages allowed or None, modules forbidden,
#: modules that must be loaded).  The last three rows are positive
#: controls: the same probe sees the heavy imports where they belong.
COLD_PATHS = [
    ("packet", _PACKET_RUN, PACKET, HEAVY, ()),
    ("fluid-validation", _FLUID_VALIDATION, PACKET, HEAVY, ()),
    ("sweep", _SWEEP_RUN % 1, SWEEP, HEAVY, ()),
    ("dir-store", _OPEN_STORE.format(kind="dir"), SWEEP, HEAVY, ()),
    ("taq-experiments-list", _script("repro.experiments.cli", "list"),
     PACKET, HEAVY, ()),
    ("taq-experiments-help", _script("repro.experiments.cli", "--help"),
     PACKET, HEAVY, ()),
    ("taq-check-help", _script("repro.check.cli", "--help"), None, HEAVY, ()),
    ("taq-perf-help", _script("repro.perf.cli", "--help"), None, HEAVY, ()),
    ("taq-obs-help", _script("repro.obs.cli", "--help"), None, HEAVY, ()),
    # The service is an HTTP server; it still starts without numpy, the
    # sqlite store, the HTTP client's urllib or the pool.
    ("taq-serve-help", _script("repro.parallel.service", "--help"), None,
     HEAVY - {"http.server", "http.client", "email", "ssl"}, ()),
    ("control-fluid-document", _FLUID_RUN, None, (),
     ("numpy", "repro.fluid.backend", "repro.model")),
    ("control-sqlite-store", _OPEN_STORE.format(kind="sqlite"), None, (),
     ("sqlite3",)),
    ("control-jobs-2", _SWEEP_RUN % 2, None, (), ("concurrent.futures",)),
]


@pytest.mark.parametrize("snippet, packages, forbidden, required",
                         [pytest.param(*row[1:], id=row[0]) for row in COLD_PATHS])
def test_cold_path_imports_only_what_it_runs(tmp_path, snippet, packages,
                                             forbidden, required):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    for name in ("REPRO_CACHE_BACKEND", "TAQ_JOB_STORE", "TAQ_OBS_BUS"):
        env.pop(name, None)
    code = snippet + "\nimport json, sys\nprint()\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          check=True, capture_output=True, text=True)
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert sorted(loaded & set(forbidden)) == []
    assert sorted(set(required) - loaded) == []
    if packages is not None:
        found = {name.split(".")[1] for name in loaded
                 if name.startswith("repro.")}
        assert sorted(found - packages) == []

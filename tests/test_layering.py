"""The simulator's layers never import the observer layers.

``repro.obs``, ``repro.perf`` and ``repro.check`` subscribe to the
simulator through ``repro.sim.observe``; the dependency points one way.
Walking the AST (not ``sys.modules``) catches function-level imports
too — the kind that cost every ``TcpFlow`` an ``repro.obs`` import.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(repro.__file__)
LAYERS = ("sim", "net", "tcp", "queues", "core", "metrics", "workloads", "build")
FORBIDDEN = ("repro.obs", "repro.perf", "repro.check")


def _imports(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
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
    for layer in LAYERS:
        for root, _dirs, files in os.walk(os.path.join(SRC, layer)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                for lineno, module in _imports(path):
                    if any(module == f or module.startswith(f + ".")
                           for f in FORBIDDEN):
                        offenders.append(
                            f"{os.path.relpath(path, SRC)}:{lineno} imports {module}")
    assert offenders == []


def test_importing_the_build_plane_loads_no_observer_layer():
    code = ("import repro.build, sys; "
            "assert not {'repro.obs', 'repro.perf'} & set(sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

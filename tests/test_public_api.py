"""Public-API hygiene: __all__ is accurate and imports are clean.

A downstream user's first contact is ``from repro import ...`` and the
subpackage façades; every name advertised in an ``__all__`` must exist,
the headline classes must be importable from the documented paths, and
every ``from repro... import ...`` line in the docs must still import.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: One ``from repro... import a, b as c`` statement, in a code block or
#: inline in prose.
DOCUMENTED_IMPORT = re.compile(
    r"from (repro[\w.]*) import (\w+(?: as \w+)?(?:, *\w+(?: as \w+)?)*)"
)

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.tcp",
    "repro.queues",
    "repro.model",
    "repro.core",
    "repro.metrics",
    "repro.workloads",
    "repro.testbed",
    "repro.overlay",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} advertised but missing"


def test_headline_imports():
    from repro import Dumbbell, Simulator, TcpFlow  # noqa: F401
    from repro.core import AdmissionController, TAQQueue, taq_report  # noqa: F401
    from repro.model import build_partial_model, find_tipping_point  # noqa: F401
    from repro.overlay import ArqTunnel, OverlayDumbbell  # noqa: F401
    from repro.tcp.spr import SprSender  # noqa: F401
    from repro.tcp.tfrc import TfrcFlow  # noqa: F401


def documented_imports():
    """``(where, module, names)`` for every documented import statement."""
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    for path in docs:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in DOCUMENTED_IMPORT.finditer(line):
                names = [n.split(" as ")[0].strip() for n in match.group(2).split(",")]
                yield f"{path.relative_to(ROOT)}:{lineno}", match.group(1), names


def test_documented_imports_resolve():
    imports = list(documented_imports())
    assert imports, "no documented import found"
    failures = []
    for where, module_name, names in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            failures.append(f"{where}: {exc}")
            continue
        for name in names:
            if hasattr(module, name):
                continue
            try:  # `from package import submodule`
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                failures.append(f"{where}: {module_name} has no {name}")
    assert not failures, "\n".join(failures)


def test_version_is_set():
    import repro

    assert repro.__version__


def test_experiment_modules_expose_config_and_run():
    from repro.experiments.cli import EXPERIMENTS

    for key, (module_name, _description) in EXPERIMENTS.items():
        module = importlib.import_module(module_name)
        assert hasattr(module, "Config"), key
        assert hasattr(module, "run"), key
        assert hasattr(module.Config, "paper"), key


def test_queue_disciplines_share_interface():
    import random

    from repro.core import TAQQueue
    from repro.queues import DropTailQueue, REDQueue, SFQQueue

    instances = [
        DropTailQueue(10),
        REDQueue(10, random.Random(1)),
        SFQQueue(10),
        TAQQueue(10),
    ]
    for queue in instances:
        assert callable(queue.enqueue)
        assert callable(queue.dequeue)
        assert len(queue) == 0
        assert queue.loss_rate() == 0.0

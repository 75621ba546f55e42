"""Tiny importable point functions for the engine tests.

Worker processes resolve spec functions by dotted path, so these must
live in a real module (``tests`` is a package), not in a test body,
and carry the ``@point`` mark.
"""

import threading
import time

from repro.build import point
from repro.parallel.bus import BEAT_THREAD


@point
def square(x):
    return x * x


@point
def slow_square(x, delay=0.05):
    time.sleep(delay)
    return x * x


@point
def boom(message="boom", delay=0.0):
    time.sleep(delay)
    raise RuntimeError(message)


def beat_thread_count():
    """Progress-bus beat threads alive in this process."""
    return sum(thread.name == BEAT_THREAD for thread in threading.enumerate())


@point
def beat_threads(x, delay=0.02):
    """Sleep *delay*, then count the beat threads alive while computing."""
    time.sleep(delay)
    return beat_thread_count()


def hammer_backend(backend_spec, value, rounds, version="v1"):
    """Rewrite the canonical ``square(x=3)`` entry *rounds* times.

    Not a ``@point``: the resolve tests use it as the importable
    function a spec may not name.

    Runs as the body of a child process in the concurrent-writer
    tests, so it must be importable by dotted path and build its own
    backend from the ``--cache-backend``-style string.
    """
    from repro.parallel import PointSpec, parse_backend

    backend = parse_backend(backend_spec, version=version)
    spec = PointSpec("tests.parallel.helpers:square", {"x": 3})
    for round_index in range(rounds):
        backend.put(spec, value, wall_time=0.001 * round_index)

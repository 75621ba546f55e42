"""Kill-and-resume: a SIGKILLed sweep restarts with only cold points rerun.

The integration contract of the service plane: a ``jobs=2`` sweep over
a durable job store and dir cache is SIGKILLed mid-flight, then
resumed.  The resumed run must (a) serve every point the killed run
finished straight from the cache — PerfProbe's hit counter equals the
surviving entry count, (b) recompute exactly the cold remainder, and
(c) produce bit-identical results to an undisturbed run.  The killed
sweep's pool workers, orphaned by the kill, are reaped with its process
group at the end.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache
from repro.perf.probe import PerfProbe

REPO_ROOT = Path(__file__).resolve().parents[2]

N_POINTS = 24
DELAY_S = 0.15

CHILD = """
import sys
from repro.parallel import JobStore, ParallelRunner, PointSpec, ResultCache

cache_root, store_root, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
specs = [
    PointSpec("tests.parallel.helpers:slow_square",
              {"x": i, "delay": %r}, label=f"x={i}")
    for i in range(n)
]
runner = ParallelRunner(
    jobs=2,
    cache=ResultCache(root=cache_root, version="v1"),
    store=JobStore(store_root, version="v1"),
)
runner.run(specs)
""" % DELAY_S


def sweep_specs():
    return [
        PointSpec("tests.parallel.helpers:slow_square",
                  {"x": i, "delay": DELAY_S}, label=f"x={i}")
        for i in range(N_POINTS)
    ]


def count_entries(cache_root):
    return len(list(Path(cache_root).glob("??/*.pkl")))


def group_is_gone(pgid, timeout=10.0):
    """Whether process group *pgid* empties within *timeout* seconds."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def test_sigkill_then_resume_reruns_only_cold_points(tmp_path):
    cache_root = str(tmp_path / "cache")
    store_root = str(tmp_path / "jobs")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The sweep leads a session of its own, so its process group is the
    # sweep and its pool workers, and nothing else.
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, cache_root, store_root, str(N_POINTS)],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        try:
            # Let it land a few points, then SIGKILL mid-sweep: the sweep's
            # own process only, as a crash takes it, so its pool workers
            # are orphaned.
            deadline = time.time() + 60.0
            while count_entries(cache_root) < 3:
                assert proc.poll() is None, "sweep finished before the kill"
                assert time.time() < deadline, "sweep never produced entries"
                time.sleep(0.01)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30.0)
        # The orphaned workers finish their in-flight point (and then
        # wait for work that never comes); give them a moment so the
        # entry count stops moving.
        settled = count_entries(cache_root)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            time.sleep(3 * DELAY_S)
            now = count_entries(cache_root)
            if now == settled:
                break
            settled = now

        warm = count_entries(cache_root)
        assert 0 < warm < N_POINTS, "kill landed too early or too late"

        # The reopened store reverts the killed run's in-flight jobs.
        store = JobStore(store_root, version="v1")
        assert store.interrupted > 0
        assert store.counts()["running"] == 0
        assert store.counts()["done"] < N_POINTS

        # Resume: same sweep, same store, with a probe watching the cache.
        probe = PerfProbe()
        runner = ParallelRunner(
            jobs=2,
            cache=ResultCache(root=cache_root, version="v1"),
            store=store,
            perf=probe,
        )
        results = runner.run(sweep_specs())

        # Only cold points re-executed.
        assert probe.cache_hits == warm
        assert probe.cache_misses == N_POINTS - warm
        assert store.counts()["done"] == N_POINTS

        # Bit-identical to an undisturbed sequential run.
        fresh = ParallelRunner(jobs=1).run(sweep_specs())
        assert pickle.dumps([r.value for r in results]) == \
            pickle.dumps([r.value for r in fresh])
    finally:
        # Reap the orphaned workers, whatever happened above.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert group_is_gone(proc.pid), "the killed sweep's pool workers outlived it"

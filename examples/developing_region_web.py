#!/usr/bin/env python3
"""Web browsing behind a shared developing-region link.

Models the paper's motivating scenario (§2.2): a campus full of web
users behind a small uplink.  Each user is a browser session — a pool
of 4 parallel TCP connections draining a queue of page objects — and
the question is what the *user* experiences: download times per object
size, and "hangs" where the browser makes no progress at all.

Run:  python examples/developing_region_web.py
"""

from repro.build import build_simulation
from repro.experiments.runner import dumbbell_spec
from repro.metrics.downloads import bucket_statistics
from repro.metrics.hangs import longest_hang
from repro.workloads import sample_object_size, spawn_web_users

CAPACITY = 1_000_000     # 1 Mbps shared uplink
RTT = 0.2
N_USERS = 40
OBJECTS_PER_USER = 15
DURATION = 240.0


def run(queue_kind: str):
    built = build_simulation(dumbbell_spec(queue_kind, CAPACITY, rtt=RTT, seed=7))
    users = spawn_web_users(
        built.topology,
        N_USERS,
        objects_per_user=OBJECTS_PER_USER,
        connections=4,
        start_window=30.0,
        size_sampler=lambda rng: sample_object_size(rng, max_bytes=300_000),
    )
    built.sim.run(until=DURATION)
    return users


def report(queue_kind: str, users) -> None:
    samples = [s for u in users for s in u.samples]
    print(f"\n=== {queue_kind} ===")
    print(f"objects completed: {len(samples)}")
    print(f"{'size bucket':>12} {'n':>5} {'min':>7} {'avg':>7} {'max':>7}")
    for row in bucket_statistics(samples):
        print(f"{'1e%dB' % row.bucket:>12} {row.count:>5} "
              f"{row.minimum:>7.2f} {row.average:>7.2f} {row.maximum:>7.2f}")
    hangs = []
    for user in users:
        times = user.delivery_times()
        end = times[-1] if user.done and times else DURATION
        if end > user.start_time:
            hangs.append(longest_hang(times, user.start_time, end))
    over_5s = sum(1 for h in hangs if h > 5.0) / len(hangs)
    print(f"users whose browser froze > 5s at least once: {over_5s:.0%} "
          f"(worst freeze: {max(hangs):.1f}s)")


def main() -> None:
    print(f"{N_USERS} browsing sessions x 4 connections over "
          f"{CAPACITY//1000} Kbps — the paper's §2.2 scenario")
    for kind in ("droptail", "taq"):
        report(kind, run(kind))


if __name__ == "__main__":
    main()

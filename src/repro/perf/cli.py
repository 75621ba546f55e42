"""``taq-perf`` — the performance suite from the shell.

Subcommands::

    taq-perf run --out FILE.json [--scale 1.0] [--only NAME ...]
    taq-perf run --list
        Run the benchmark suite and write the BENCH document: events,
        packets and Python calls per benchmark, no clock reading — two
        runs of one tree write the same bytes.

    taq-perf compare baseline.json candidate.json
        Diff two BENCH documents with ``==``; exit 1 when any count
        moved, up or down, or when no row could be compared.

    taq-perf profile (--bench NAME | --scenario FILE.json)
                 [--out PREFIX] [--scale 1.0] [--sample-interval 0.001]
        cProfile plus collapsed-stack sampling around one benchmark or
        one scenario run: writes ``PREFIX.pstats`` (for ``snakeviz`` /
        ``pstats``), ``PREFIX.folded`` (for ``flamegraph.pl`` /
        speedscope) and prints the top cumulative functions and the
        armed probe's counter/span roll-up.

See ``docs/performance.md`` for the BENCH schema and the catalogue of
spans and counters.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Optional, Sequence


def _cmd_run(args) -> int:
    from repro.perf.bench import (
        bench_document,
        load_suite,
        run_suite,
        write_bench,
    )

    if args.list:
        for name, bench in sorted(load_suite().items()):
            print(f"{name:<32} [{bench.group}] {bench.description}")
        return 0
    if not args.out:
        # No default: the obvious one is the committed baseline's name,
        # and a partial or scaled run would silently replace it.
        print("error: run needs --out FILE (or --list)", file=sys.stderr)
        return 2
    try:
        results = run_suite(
            names=args.only or None,
            scale=args.scale,
            log=lambda line: print(line, file=sys.stderr),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    write_bench(bench_document(results), args.out)
    print(f"wrote {args.out}: {len(results)} benchmark(s)")
    return 0


def _cmd_compare(args) -> int:
    from repro.perf.bench import compare_documents, load_bench, render_comparison

    try:
        comparison = compare_documents(load_bench(args.baseline),
                                       load_bench(args.candidate))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _profile_target(args):
    """Resolve --bench/--scenario into a zero-argument callable."""
    if args.bench:
        from repro.perf.bench import get_benchmark

        bench = get_benchmark(args.bench)
        return lambda: bench.fn(args.scale)
    from repro.build import ScenarioSpec, build_simulation

    spec = ScenarioSpec.from_file(args.scenario)

    def run_scenario():
        built = build_simulation(spec)
        built.run()

    return run_scenario


def _cmd_profile(args) -> int:
    from repro.perf.flamestack import StackSampler
    from repro.perf.probe import profiled

    try:
        target = _profile_target(args)
    except Exception as exc:  # unknown bench, bad scenario JSON, missing file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    sampler = StackSampler(interval=args.sample_interval)
    with profiled() as probe, sampler:
        profiler.enable()
        try:
            target()
        finally:
            profiler.disable()
    pstats_path = f"{args.out}.pstats"
    folded_path = f"{args.out}.folded"
    profiler.dump_stats(pstats_path)
    sampler.write_collapsed(folded_path)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(probe.render())
    print(f"wrote {pstats_path} ({stats.total_calls} calls) and "
          f"{folded_path} ({sampler.samples} stack samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taq-perf",
        description="Benchmark suite, exact BENCH count gate and profiler "
                    "(see docs/performance.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmarks, write a BENCH document")
    run.add_argument("--out", metavar="FILE",
                     help="output path (required unless --list)")
    run.add_argument("--scale", type=float, default=1.0,
                     help="problem-size multiplier (default: 1.0)")
    run.add_argument("--only", action="append", metavar="NAME",
                     help="run only this benchmark (repeatable)")
    run.add_argument("--list", action="store_true",
                     help="list registered benchmarks and exit")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="diff two BENCH documents, exactly")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(func=_cmd_compare)

    profile = sub.add_parser(
        "profile", help="cProfile + collapsed stacks for one benchmark/scenario"
    )
    target = profile.add_mutually_exclusive_group(required=True)
    target.add_argument("--bench", metavar="NAME", help="registered benchmark name")
    target.add_argument("--scenario", metavar="FILE", help="scenario JSON to run")
    profile.add_argument("--out", default="profile",
                         help="output prefix for .pstats/.folded (default: profile)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="benchmark scale (ignored for --scenario)")
    profile.add_argument("--sample-interval", type=float, default=0.001,
                         help="stack sampling interval, seconds (default: 0.001)")
    profile.add_argument("--top", type=int, default=15,
                         help="cumulative-time rows to print (default: 15)")
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate every figure of the paper (plus the extensions) in one go.

Runs each experiment at its default laptop-scale configuration, prints
the result tables, and writes one CSV per experiment into ``results/``
so the series can be re-plotted with any tool.

The grid experiments (figs 2/3/8/11, variants) fan their points across
worker processes — ``--jobs 1`` forces the sequential path, which
produces bit-identical tables.  Point results land in a pluggable
cache backend keyed by the point spec plus a hash of the package
source, so a re-run only recomputes what changed; ``--cache-backend``
selects the store (local dir by default; ``sqlite:PATH`` to share a
machine, ``http://host:port`` to share a fleet — all bit-compatible)
and ``--no-cache`` bypasses it.  ``--resume DIR`` additionally records
every point in a durable job store: kill this script mid-sweep, rerun
the same command, and only cold points re-execute.

Run:  python examples/reproduce_all.py [output_dir] [--jobs N]
      [--no-cache] [--cache-backend SPEC] [--resume DIR]
      [--only fig02,fig08] [--telemetry-dir DIR]
"""

import argparse
import importlib
import inspect
import os
import time

EXPERIMENTS = [
    ("fig01", "repro.experiments.fig01_download_times"),
    ("fig02", "repro.experiments.fig02_fairness_droptail"),
    ("fig03", "repro.experiments.fig03_buffer_tradeoff"),
    ("hangs", "repro.experiments.hang_times"),
    ("fig06", "repro.experiments.fig06_model_validation"),
    ("fig08", "repro.experiments.fig08_fairness_taq"),
    ("fig09", "repro.experiments.fig09_flow_evolution"),
    ("fig10", "repro.experiments.fig10_short_flows"),
    ("fig11", "repro.experiments.fig11_testbed"),
    ("fig12", "repro.experiments.fig12_admission_cdf"),
    ("variants", "repro.experiments.variants"),
    ("overlay", "repro.experiments.overlay_deployment"),
    ("padhye", "repro.experiments.padhye_comparison"),
    ("pool", "repro.experiments.pool_fairness"),
    ("rttf", "repro.experiments.rtt_fairness"),
    ("spr", "repro.experiments.spr_endhost"),
]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output_dir", nargs="?", default="results",
                        help="directory for the per-experiment CSVs")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for grid experiments "
                             "(default: one per CPU; 1 = sequential)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, ignoring the result cache")
    parser.add_argument("--cache-backend", default=None, metavar="SPEC",
                        help="result store: dir:PATH, sqlite:PATH, or "
                             "http://host:port (default: the local dir "
                             "cache; $REPRO_CACHE_BACKEND also applies)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="durable job store directory: kill and rerun "
                             "with the same flags and only cold points "
                             "re-execute")
    parser.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated experiment ids to run "
                             "(e.g. 'fig02,fig08'); default: everything")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="write repro.obs telemetry bundles (manifest, "
                             "metrics, event trace) per sweep point under DIR; "
                             "off by default")
    parser.add_argument("--sample-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="gauge sampling period for --telemetry-dir "
                             "(default: 1.0)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    selected = EXPERIMENTS
    if args.only:
        wanted = [name.strip() for name in args.only.split(",") if name.strip()]
        known = {name for name, _ in EXPERIMENTS}
        unknown = [name for name in wanted if name not in known]
        if unknown:
            raise SystemExit(f"unknown experiment ids: {', '.join(unknown)}")
        selected = [(name, mod) for name, mod in EXPERIMENTS if name in wanted]

    from repro.experiments.cli import make_cache
    from repro.parallel import ProgressPrinter

    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    # --cache-backend, then $REPRO_CACHE_BACKEND, then the default dir
    # store; a string outside the grammar is one error line and exit 2.
    cache = None if args.no_cache else make_cache(args)
    if args.resume is not None:
        # Runners built inside the experiments pick the durable job
        # store up from the environment (like TAQ_OBS_BUS for the bus).
        os.environ["TAQ_JOB_STORE"] = args.resume

    os.makedirs(args.output_dir, exist_ok=True)
    grand_start = time.time()
    written = []
    for name, module_name in selected:
        module = importlib.import_module(module_name)
        parameters = inspect.signature(module.run).parameters
        extra = {}
        if "jobs" in parameters:
            extra = {"jobs": jobs, "cache": cache,
                     "progress": ProgressPrinter(name)}
        if args.telemetry_dir is not None and "telemetry_dir" in parameters:
            extra["telemetry_dir"] = os.path.join(args.telemetry_dir, name)
            extra["sample_interval"] = args.sample_interval
        start = time.time()
        result = module.run(module.Config(), **extra)
        elapsed = time.time() - start
        print(f"\n{'#' * 70}\n# {name}  ({elapsed:.0f}s)\n{'#' * 70}")
        print(result)
        path = os.path.join(args.output_dir, f"{name}.csv")
        result.table().write_csv(path)
        written.append(path)

    if not args.only:
        from repro.model import find_tipping_point

        print(f"\n{'#' * 70}\n# tipping point\n{'#' * 70}")
        print(f"partial model: p ~ {find_tipping_point('partial'):.3f} "
              f"(paper: ~0.1, used as p_thresh)")

    total = time.time() - grand_start
    print(f"\nDone in {total:.0f}s with {jobs} job(s).", end="")
    if cache is not None and (cache.hits or cache.misses):
        print(f"  Cache: {cache.hits} hit(s), {cache.misses} miss(es).", end="")
    print("  CSVs written:")
    for path in written:
        print(f"  {path}")
    print("\nCompare against EXPERIMENTS.md for the paper-vs-measured scorecard.")


if __name__ == "__main__":
    main()

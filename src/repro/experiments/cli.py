"""``taq-experiments`` — run any figure's experiment from the shell.

Examples::

    taq-experiments list
    taq-experiments fig02
    taq-experiments fig12 --paper
    taq-experiments tipping-point
    taq-experiments fig02 --cache-backend sqlite:/shared/taq.sqlite
    taq-experiments fig08 --resume runs/fig08-sweep
    taq-experiments cache stats --json
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import sys
from contextlib import ExitStack
from typing import Optional, Sequence

EXPERIMENTS = {
    "fig01": ("repro.experiments.fig01_download_times", "Fig 1: download-time scatter"),
    "fig02": ("repro.experiments.fig02_fairness_droptail", "Fig 2: DropTail fairness sweep"),
    "fig03": ("repro.experiments.fig03_buffer_tradeoff", "Fig 3: buffer-for-fairness tradeoff"),
    "hangs": ("repro.experiments.hang_times", "§2.3: user-perceived hangs"),
    "fig06": ("repro.experiments.fig06_model_validation", "Fig 6: model validation"),
    "fig08": ("repro.experiments.fig08_fairness_taq", "Fig 8: TAQ fairness sweep"),
    "fig09": ("repro.experiments.fig09_flow_evolution", "Fig 9: flow evolution"),
    "fig10": ("repro.experiments.fig10_short_flows", "Fig 10: short flows"),
    "fig11": ("repro.experiments.fig11_testbed", "Fig 11: testbed fairness"),
    "fig12": ("repro.experiments.fig12_admission_cdf", "Fig 12: admission-control CDFs"),
    "variants": ("repro.experiments.variants", "§2.3: transports x queues matrix"),
    "padhye": ("repro.experiments.padhye_comparison", "§6: stationary model vs Padhye throughput"),
    "overlay": ("repro.experiments.overlay_deployment", "§4.4: TAQ over an OverQoS-style overlay"),
    "spr": ("repro.experiments.spr_endhost", "future work: SPR-TCP end-host mechanism"),
    "pool": ("repro.experiments.pool_fairness", "§4.3: per-flow vs per-pool fairness"),
    "rttf": ("repro.experiments.rtt_fairness", "§4.2 footnote: fairness models vs heterogeneous RTTs"),
}


def make_cache(args):
    """The cache backend the CLI flags select (never None).

    ``--cache-backend`` wins, then ``$REPRO_CACHE_BACKEND``, then the
    default local dir store; see
    :func:`repro.parallel.cache.parse_backend` for the accepted
    ``dir:PATH`` / ``sqlite:PATH`` / ``http://host:port`` forms.  A
    string outside that grammar is a usage error: one line, exit 2.
    """
    from repro.parallel import parse_backend

    spec = getattr(args, "cache_backend", None) or os.environ.get(
        "REPRO_CACHE_BACKEND"
    )
    try:
        return parse_backend(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def engine_kwargs(module, args) -> dict:
    """Parallel-engine kwargs for ``module.run``, if it supports them.

    Grid experiments accept ``jobs``/``cache``/``progress``; the
    single-scenario ones don't, and get nothing (with a note if the
    user asked for parallelism anyway).
    """
    parameters = inspect.signature(module.run).parameters
    kwargs = {}
    if "jobs" not in parameters:
        if args.jobs is not None and args.jobs != 1:
            print(
                f"(note: {args.experiment} runs a single scenario; --jobs ignored)",
                file=sys.stderr,
            )
    else:
        from repro.parallel import ProgressPrinter

        kwargs = {
            "jobs": args.jobs if args.jobs is not None else os.cpu_count() or 1,
            "cache": None if args.no_cache else make_cache(args),
            "progress": ProgressPrinter(args.experiment),
        }
    telemetry_dir = getattr(args, "telemetry_dir", None)
    if "telemetry_dir" in parameters:
        if telemetry_dir is not None:
            kwargs["telemetry_dir"] = telemetry_dir
            kwargs["sample_interval"] = getattr(args, "sample_interval", 1.0)
    elif telemetry_dir is not None:
        print(
            f"(note: {args.experiment} has no telemetry support; "
            "--telemetry-dir ignored)",
            file=sys.stderr,
        )
    return kwargs


def _run_scenarios(args) -> int:
    """Run one or more JSON scenario documents.

    Every file is parsed (strictly) before anything runs, so a typo in
    the third document fails fast.  With ``--jobs N`` and several files
    the runs fan out across the process pool; outcomes print in file
    order either way, so jobs=1 and jobs=N output is identical.
    ``--telemetry-dir`` runs the documents one after another with a
    bundle each; ``--spans`` records the one document it is given, into
    its own file and, with ``--telemetry-dir``, into the bundle too.
    """
    from repro.build import BackendSpec, ScenarioSpec, SpecError
    from repro.experiments.scenario import run_scenario

    specs = []
    for path in args.scenario_file:
        try:
            spec = ScenarioSpec.from_file(path)
            if args.backend is not None:
                # Override, not merge: the CLI flag selects the engine,
                # backend params stay with the document that set them.
                spec.backend = BackendSpec(kind=args.backend)
            if args.seed is not None:
                spec.seed = args.seed
            specs.append(spec)
        except (SpecError, OSError) as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
    if args.spans is not None and len(specs) != 1:
        print("(--spans records one scenario at a time; pass a single file)",
              file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else 1
    recorder = None
    with ExitStack() as stack:
        if args.spans is not None:
            from repro.obs.spans import SpanRecorder, recording, save_spans
            from repro.obs.streamstats import StreamingFlowStats

            recorder = stack.enter_context(
                recording(SpanRecorder(stream=StreamingFlowStats())))
        if args.telemetry_dir is not None:
            # Instrumented runs are sequential: one bundle per document at
            # DIR/<scenario-name>, ready for `taq-obs diff` / `taq-obs export`.
            from repro.experiments.scenario import run_scenario_with_telemetry
            from repro.obs import Telemetry

            if jobs != 1:
                print("(note: --telemetry-dir runs scenarios sequentially; "
                      "--jobs ignored)", file=sys.stderr)
            outcomes = [
                run_scenario_with_telemetry(spec, Telemetry(
                    os.path.join(args.telemetry_dir, spec.name),
                    sample_interval=args.sample_interval, spans=recorder))
                for spec in specs
            ]
        elif jobs != 1 and len(specs) > 1:
            from repro.parallel import ParallelRunner, PointSpec

            points = [
                PointSpec(
                    # The parsed document, not the path: a --backend
                    # override lives only in the spec.
                    "repro.experiments.scenario:run_scenario",
                    dict(document=spec.to_document()),
                    label=spec.name,
                )
                for spec in specs
            ]
            runner = ParallelRunner(jobs=jobs, cache=None)
            outcomes = [result.value for result in runner.run(points)]
        else:
            outcomes = [run_scenario(spec) for spec in specs]
    for outcome in outcomes:
        print(outcome)
    if recorder is not None:
        os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as handle:
            written = save_spans(recorder.spans, handle)
        print(f"(span trace: {written} spans written to {args.spans}; "
              f"inspect with 'taq-obs flows {args.spans}')")
        print(recorder.stream.render())
    if args.telemetry_dir is not None:
        print(f"(telemetry bundles under {args.telemetry_dir}/)")
    if args.csv:
        if len(outcomes) == 1:
            outcomes[0].table().write_csv(args.csv)
            print(f"(csv written to {args.csv})")
        else:
            print("(note: --csv supports a single scenario file; ignored)",
                  file=sys.stderr)
    return 0


def _run_cache(args) -> int:
    """``taq-experiments cache stats|prune`` against any backend."""
    action = args.scenario_file[0] if args.scenario_file else "stats"
    if action not in ("stats", "prune"):
        print(f"unknown cache action {action!r}; try 'stats' or 'prune'",
              file=sys.stderr)
        return 2
    backend = make_cache(args)
    if action == "stats":
        stats = backend.stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True))
        else:
            print(f"cache backend: {stats.get('location')}")
            for field in ("enabled", "entries", "bytes", "hits", "misses"):
                if field in stats:
                    print(f"  {field}: {stats[field]}")
        return 0
    removed = backend.prune(args.older_than)
    if args.json:
        print(json.dumps({"removed": removed,
                          "location": backend.describe()}, sort_keys=True))
    else:
        scope = (f"older than {args.older_than:g}s"
                 if args.older_than is not None else "all entries")
        print(f"pruned {removed} entry(ies) ({scope}) from {backend.describe()}")
    return 0


def _run_tipping_point() -> int:
    from repro.model import find_tipping_point

    for variant in ("partial", "full"):
        p = find_tipping_point(variant)
        print(f"{variant} model tipping point: p ~ {p:.3f}")
    print("paper: ~0.1 (used as TAQ's admission threshold p_thresh)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="taq-experiments",
        description="Reproduce the TAQ paper's figures (prints result tables).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'tipping-point', 'scenario', "
             "'cache', or 'list'",
    )
    parser.add_argument(
        "scenario_file",
        nargs="*",
        default=[],
        help="JSON scenario documents (only with the 'scenario' command); "
             "several files fan out across --jobs workers.  With the "
             "'cache' command: the action, 'stats' (default) or 'prune'",
    )
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use parameters close to the published setup (much slower)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the RNG seed: an experiment's, or every scenario "
             "document's \"seed\"",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes for grid experiments (default: one per CPU; "
             "1 forces the sequential path — results are identical either way)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point instead of reusing the result cache",
    )
    parser.add_argument(
        "--cache-backend", metavar="SPEC", default=None,
        help="result store: dir:PATH (default: $REPRO_CACHE_DIR, then "
             "$XDG_CACHE_HOME/repro, then ~/.cache/repro), sqlite:PATH "
             "(safe to share between concurrent sweeps), or "
             "http://host:port (a taq-serve / repro.parallel.httpstore "
             "shared store); $REPRO_CACHE_BACKEND supplies the default. "
             "All backends are bit-compatible.",
    )
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="record sweep state in a durable job store under DIR "
             "(sets TAQ_JOB_STORE); re-run the same command after a "
             "crash or kill and only cold points re-execute",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with the 'cache' command: machine-readable output",
    )
    parser.add_argument(
        "--older-than", type=float, default=None, metavar="SECONDS",
        help="with 'cache prune': only drop entries older than this",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the result table as CSV to PATH",
    )
    parser.add_argument(
        "--telemetry-dir", metavar="DIR", default=None,
        help="write a repro.obs telemetry bundle (manifest, metrics, "
             "event trace) per sweep point — or per scenario file, at "
             "DIR/<name> — under DIR; off by default "
             "(zero overhead when disabled)",
    )
    parser.add_argument(
        "--sample-interval", type=float, default=1.0, metavar="SECONDS",
        help="gauge sampling period on the sim clock for --telemetry-dir "
             "(default: 1.0; 0 disables time series)",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also render an ASCII chart (where the experiment supports it)",
    )
    parser.add_argument(
        "--backend", choices=("packet", "fluid"), default=None,
        help="with the 'scenario' command: override the documents' "
             "simulation backend (packet event simulation vs the "
             "mean-field fluid integrator; see docs/fluid.md)",
    )
    parser.add_argument(
        "--spans", metavar="PATH", default=None,
        help="record a causal span trace (repro.obs.spans) and write it "
             "to PATH; only with the 'scenario' command and a single "
             "file — inspect with taq-obs timeline/critical-path",
    )
    parser.add_argument(
        "--bus-dir", metavar="DIR", default=None,
        help="arm the live sweep progress bus: workers append per-point "
             "start/heartbeat/done events under DIR for 'taq-obs tail' "
             "(equivalent to setting TAQ_OBS_BUS)",
    )
    args = parser.parse_args(argv)
    if args.bus_dir is not None:
        # The runner (and pool workers, which inherit the environment)
        # default their bus from this variable.
        os.environ["TAQ_OBS_BUS"] = args.bus_dir
    if args.resume is not None:
        if args.no_cache:
            print("(note: --resume reuses finished points through the "
                  "cache; with --no-cache every point recomputes)",
                  file=sys.stderr)
        # Every runner the experiment builds picks the store up from
        # the environment, the same way --bus-dir arms the bus.
        os.environ["TAQ_JOB_STORE"] = args.resume

    if args.experiment == "cache":
        return _run_cache(args)
    if args.experiment == "list":
        for key, (_, description) in EXPERIMENTS.items():
            print(f"{key:7s} {description}")
        print("tipping-point  model tipping point (~0.1)")
        print("cache          result-store stats/prune (any --cache-backend)")
        return 0
    if args.experiment == "tipping-point":
        return _run_tipping_point()
    if args.experiment == "scenario":
        if not args.scenario_file:
            print(
                "usage: taq-experiments scenario <file.json> [more.json ...]",
                file=sys.stderr,
            )
            return 2
        return _run_scenarios(args)
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
        return 2

    if args.spans is not None:
        print("(note: --spans only applies to the 'scenario' command; ignored)",
              file=sys.stderr)
    module_name, _ = EXPERIMENTS[args.experiment]
    module = importlib.import_module(module_name)
    config = module.Config.paper() if args.paper else module.Config()
    if args.seed is not None:
        config.seed = args.seed
    result = module.run(config, **engine_kwargs(module, args))
    print(result)
    if args.csv:
        result.table().write_csv(args.csv)
        print(f"(csv written to {args.csv})")
    if args.chart:
        chart = getattr(result, "chart", None)
        if chart is None:
            print("(this experiment has no chart rendering)")
        else:
            print()
            print(chart())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

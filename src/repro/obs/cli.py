"""``taq-obs`` — inspect span traces and follow live sweeps.

Subcommands
-----------
``flows TRACE``
    List traced flows, slowest sojourn first — the entry point for
    finding the flow worth explaining.
``timeline TRACE (--flow N | --worst)``
    Text waterfall of one flow's spans.
``critical-path TRACE (--flow N | --worst)``
    Attribute the flow's completion time to admission waits, RTO
    stalls, drops and queueing (see :mod:`repro.obs.causal`).
``tail BUS_DIR [--once] [--interval S] [--for S]``
    Follow a live sweep's progress bus (armed with ``TAQ_OBS_BUS`` or
    ``taq-experiments ... --bus-dir``) and render per-point state.
``export BUNDLE [--out FILE]``
    Render a telemetry bundle's metrics in OpenMetrics text format —
    the offline twin of the live ``/metrics`` endpoints.
``stability TARGET``
    Limit-cycle / Reynier-condition verdict for a fluid run.  TARGET
    is a telemetry bundle directory (detect on the recorded
    ``fluid.queue_pkts`` series) or a scenario ``.json`` (run it on
    the fluid backend with probes armed, then analyze).
``snapshot SOURCE --out FILE``
    Reduce a bundle (or tree of bundles) to a behavior summary JSON —
    the committed-baseline format ``diff`` consumes.
``diff A B [--markdown] [--tolerance PAT=REL[:ABS]] [--out FILE]``
    Behavioral diff of two runs (bundles, trees, or summary files).
    Exit 1 when any metric is out of tolerance.

``TRACE`` is a ``spans.jsonl`` file or a telemetry bundle directory
containing one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.obs.spans import Span


def _load(trace: str) -> List[Span]:
    from repro.obs.bundle import SPANS_NAME
    from repro.obs.spans import load_spans

    path = Path(trace)
    if path.is_dir():
        path = path / SPANS_NAME
    if not path.is_file():
        raise SystemExit(f"taq-obs: no span trace at {path}")
    with open(path, encoding="utf-8") as handle:
        return load_spans(handle)


def _pick_flow(spans: List[Span], args: argparse.Namespace) -> int:
    from repro.obs.causal import worst_flow

    if args.flow is not None:
        return args.flow
    flow = worst_flow(spans)
    if flow is None:
        raise SystemExit("taq-obs: no completed flow in trace "
                         "(pass --flow to inspect an open one)")
    return flow


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.obs.causal import render_flow_table

    print(render_flow_table(_load(args.trace), top=args.top))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.causal import render_timeline

    spans = _load(args.trace)
    print(render_timeline(spans, _pick_flow(spans, args), width=args.width))
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from repro.obs.causal import critical_path, render_critical_path

    spans = _load(args.trace)
    flow_id = _pick_flow(spans, args)
    path = critical_path(spans, flow_id)
    if path is None:
        raise SystemExit(f"taq-obs: flow {flow_id} has no closed flow span")
    print(render_critical_path(path))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.parallel.bus import read_bus, render_tail

    deadline: Optional[float] = None
    if getattr(args, "for_seconds", None) is not None:
        deadline = time.time() + args.for_seconds
    while True:
        state = read_bus(args.bus_dir)
        print(render_tail(state))
        sys.stdout.flush()
        points = state["points"]
        total = state["total"]
        finished = sum(
            1 for p in points.values() if p["status"] in ("done", "cached")
        )
        complete = total is not None and points and finished >= total
        if args.once or complete:
            return 0
        if deadline is not None and time.time() >= deadline:
            return 0
        time.sleep(args.interval)
        print()


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.export import bundle_openmetrics

    text = bundle_openmetrics(args.bundle)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.fluid.stability import (
        analyze_bundle,
        analyze_spec,
        render_stability,
    )

    target = Path(args.target)
    if target.is_dir():
        report = analyze_bundle(str(target))
    elif target.is_file():
        with open(target, encoding="utf-8") as handle:
            report = analyze_spec(json.load(handle))
    else:
        raise SystemExit(f"taq-obs: no bundle or scenario at {target}")
    print(render_stability(report))
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.obs.diff import behavior_summary, write_summary

    summary = behavior_summary(args.source)
    write_summary(summary, args.out)
    print(f"wrote {len(summary['metrics'])} metric(s) to {args.out}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        diff_behavior,
        parse_tolerance,
        render_behavior_markdown,
        render_behavior_text,
    )

    try:
        rules = [parse_tolerance(item) for item in args.tolerance]
    except ValueError as exc:
        raise SystemExit(f"taq-obs: {exc}")
    diff = diff_behavior(args.a, args.b, rules)
    rendered = (
        render_behavior_markdown(diff)
        if args.markdown
        else render_behavior_text(diff, show_ok=args.show_ok)
    )
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 0 if diff.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="taq-obs",
        description="Inspect causal span traces and follow live sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flows = sub.add_parser("flows", help="list traced flows, slowest first")
    flows.add_argument("trace", help="spans.jsonl file or bundle directory")
    flows.add_argument("--top", type=int, default=20, help="rows to show")
    flows.set_defaults(fn=_cmd_flows)

    def add_flow_picker(command: argparse.ArgumentParser) -> None:
        command.add_argument("trace", help="spans.jsonl file or bundle directory")
        picker = command.add_mutually_exclusive_group()
        picker.add_argument("--flow", type=int, help="flow id to inspect")
        picker.add_argument(
            "--worst", action="store_true",
            help="pick the completed flow with the longest sojourn (default)",
        )

    timeline = sub.add_parser("timeline", help="text waterfall of one flow")
    add_flow_picker(timeline)
    timeline.add_argument("--width", type=int, default=64, help="bar width")
    timeline.set_defaults(fn=_cmd_timeline)

    cpath = sub.add_parser(
        "critical-path",
        help="attribute a flow's completion time to its causes",
    )
    add_flow_picker(cpath)
    cpath.set_defaults(fn=_cmd_critical_path)

    tail = sub.add_parser("tail", help="follow a live sweep's progress bus")
    tail.add_argument("bus_dir", help="bus directory (TAQ_OBS_BUS)")
    tail.add_argument("--once", action="store_true",
                      help="render one frame and exit")
    tail.add_argument("--interval", type=float, default=2.0,
                      help="seconds between frames")
    tail.add_argument("--for", dest="for_seconds", type=float, default=None,
                      metavar="SECONDS", help="stop after this long")
    tail.set_defaults(fn=_cmd_tail)

    export = sub.add_parser(
        "export", help="render a bundle's metrics as OpenMetrics text"
    )
    export.add_argument("bundle", help="telemetry bundle directory")
    export.add_argument("--out", help="write to FILE instead of stdout")
    export.set_defaults(fn=_cmd_export)

    stability = sub.add_parser(
        "stability", help="limit-cycle / Reynier verdict for a fluid run"
    )
    stability.add_argument(
        "target", help="telemetry bundle directory or scenario .json"
    )
    stability.set_defaults(fn=_cmd_stability)

    snapshot = sub.add_parser(
        "snapshot", help="reduce bundle(s) to a behavior summary JSON"
    )
    snapshot.add_argument("source", help="bundle directory or tree of bundles")
    snapshot.add_argument("--out", required=True, help="summary file to write")
    snapshot.set_defaults(fn=_cmd_snapshot)

    diff = sub.add_parser(
        "diff", help="behavioral diff of two runs (exit 1 on differences)"
    )
    diff.add_argument("a", help="baseline: bundle, tree, or summary JSON")
    diff.add_argument("b", help="candidate: bundle, tree, or summary JSON")
    diff.add_argument("--markdown", action="store_true",
                      help="GitHub-table output for step summaries")
    diff.add_argument("--tolerance", action="append", default=[],
                      metavar="PAT=REL[:ABS]",
                      help="loosen metrics matching PAT (repeatable)")
    diff.add_argument("--show-ok", action="store_true",
                      help="also list in-tolerance metrics")
    diff.add_argument("--out", help="write the rendering to FILE")
    diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: a normal way to stop
        # reading a long listing, not an error worth a traceback.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    raise SystemExit(main())

"""Command-line interface: run studies and emit the experiment report.

Examples::

    repro-geoblock run --scale tiny --out report.md
    repro-geoblock top10k --scale small
    repro-geoblock table 9
    repro-geoblock figure 5
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.analysis.experiments import ExperimentSuite
from repro.analysis.report import render_figure, render_table
from repro.core.pipeline import StudyConfig, run_top10k_study
from repro.util.clock import Clock, SystemClock
from repro.websim.world import World, WorldConfig

_SCALES = {
    "nano": WorldConfig.nano,
    "tiny": WorldConfig.tiny,
    "small": WorldConfig.small,
    "paper": WorldConfig.paper,
}


def _world(scale: str, seed: int) -> World:
    try:
        factory = _SCALES[scale]
    except KeyError:
        raise SystemExit(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    return World(factory(seed=seed))


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the scan-engine and checkpoint flags of a suite run.

    Shared by ``repro-geoblock run`` and ``scripts/run_experiments.py``;
    :func:`suite_from_args` turns the parsed flags into a suite.
    """
    parser.add_argument("--checkpoint-dir", default=None,
                        help="persist per-stage study artifacts here; an "
                             "interrupted run can be resumed with --resume")
    parser.add_argument("--resume", action="store_true",
                        help="skip stages whose checkpoints are complete "
                             "(requires --checkpoint-dir)")
    parser.add_argument("--workers", type=int, default=1,
                        help="scan-engine worker pool width; output is "
                             "identical for any count (default: 1)")
    parser.add_argument("--executor", default="thread",
                        choices=("thread", "process"),
                        help="scan-engine pool shape; 'process' sidesteps "
                             "the GIL for the CPU-bound simulated probes "
                             "(default: thread)")
    parser.add_argument("--merge", default="memory",
                        choices=("memory", "spill"),
                        help="process-merge sink: accumulate worker shards "
                             "in RAM, or stream them to an on-disk LSHD "
                             "segment and mmap the result (default: memory)")


def suite_from_args(world: World, args: argparse.Namespace) -> ExperimentSuite:
    """The experiment suite the :func:`add_run_flags` flags describe."""
    config = StudyConfig(seed=args.seed, workers=max(1, args.workers),
                         executor=args.executor, merge=args.merge)
    return ExperimentSuite(world, study_config=config,
                           checkpoint_dir=args.checkpoint_dir,
                           resume=args.resume)


def _cmd_run(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    suite = suite_from_args(world, args)
    stopwatch = args.clock.stopwatch()
    report = suite.run(include_top1m=not args.no_top1m,
                       include_vps=not args.no_vps,
                       include_ooni=not args.no_ooni)
    elapsed = stopwatch.elapsed()
    if args.save_json:
        from repro.analysis.store import save_report
        save_report(report, args.save_json)
        print(f"report JSON written to {args.save_json}")
    text = report.to_markdown() if args.markdown else report.to_text()
    if args.out:
        from repro.util.envelope import atomic_write
        with atomic_write(args.out) as handle:
            handle.write((text + "\n").encode("utf-8"))
        print(f"report written to {args.out} ({elapsed:.1f}s)")
    else:
        print(text)
        print(f"\n(completed in {elapsed:.1f}s)")
    from repro.analysis.summary import executive_summary
    print("\nExecutive summary:")
    print(executive_summary(report.findings))
    return 0


def _cmd_top10k(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    result = run_top10k_study(world)
    print(f"safe domains: {len(result.safe_domains)}")
    print(f"confirmed instances: {len(result.confirmed)}")
    print(f"unique geoblocking domains: {len(result.confirmed_domains)}")
    print("top countries:", result.instances_by_country().most_common(10))
    print("providers:", dict(result.instances_by_provider()))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    number = args.number
    needs_top1m = number in (7, 8)
    report = suite.run(include_top1m=needs_top1m, include_vps=False,
                       include_ooni=False, include_pools=False)
    key = f"table{number}"
    if key not in report.tables:
        raise SystemExit(f"no such table: {number}")
    print(render_table(report.tables[key]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import render_validation, validate_findings

    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    report = suite.run()
    results = validate_findings(report.findings)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_appdiff(args: argparse.Namespace) -> int:
    from repro.core.appdiff import run_appdiff_study
    from repro.proxynet.luminati import LuminatiClient

    world = _world(args.scale, args.seed)
    commerce = [d.name for d in world.population
                if d.category in ("Shopping", "Travel", "Auctions",
                                  "Personal Vehicles")
                and not d.dead and not d.redirect_loop
                and d.name not in world.policies][: args.domains]
    countries = world.registry.luminati_codes()[: args.countries]
    result = run_appdiff_study(LuminatiClient(world), commerce, countries)
    print(f"surveyed {result.surveyed_domains} domains from "
          f"{result.surveyed_countries} countries")
    for finding in result.findings:
        print(f"  {finding.kind:16s} {finding.domain:26s} "
              f"{finding.country}  {finding.detail}")
    if not result.findings:
        print("  (no application-layer discrimination found)")
    return 0


def _cmd_timeouts(args: argparse.Namespace) -> int:
    from repro.core.timeouts import run_timeout_study
    from repro.lumscan.scanner import Lumscan
    from repro.proxynet.luminati import LuminatiClient

    world = _world(args.scale, args.seed)
    luminati = LuminatiClient(world)
    scanner = Lumscan(luminati, seed=args.seed)
    urls = [d.url for d in world.population.top(args.domains) if not d.dead]
    data = scanner.scan(urls, luminati.countries(), samples=3)
    study = run_timeout_study(scanner, data)
    print(f"candidates: {len(study.candidates)}  "
          f"confirmed: {len(study.confirmed)}  "
          f"unambiguous: {len(study.unambiguous)}")
    for block in study.confirmed:
        note = " (censoring country — unattributable)" \
            if block.ambiguous_censorship else ""
        print(f"  {block.domain:26s} {block.country}{note}")
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_findings

    findings_by_seed = {}
    for seed in args.seeds:
        world = _world(args.scale, seed)
        suite = ExperimentSuite(world)
        report = suite.run(include_top1m=False, include_vps=False,
                           include_ooni=False, include_pools=False)
        findings_by_seed[seed] = report.findings
    stability = compare_findings(findings_by_seed)
    print(f"seeds: {stability.seeds}")
    print(f"stable checks ({len(stability.stable_checks())}):")
    for name in stability.stable_checks():
        print(f"  [STABLE]   {name}")
    for name in stability.unstable_checks():
        print(f"  [UNSTABLE] {name}")
    print(f"stability rate: {stability.stability_rate():.0%}")
    return 0 if stability.stability_rate() >= 0.8 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(list(args.lint_args))


def _print_segment_header(path: str, header: dict) -> None:
    import os

    import numpy as np

    size = os.stat(path).st_size
    print(f"segment:     {path}")
    print(f"version:     {header.get('version')}")
    print(f"rows:        {header.get('n')}")
    print(f"file bytes:  {size}")
    fingerprint = header.get("fingerprint")
    print(f"fingerprint: {fingerprint if fingerprint else '(absent)'}")
    print("columns:")
    for name, dtype, offset, nbytes in header.get("columns", []):
        rows = nbytes // np.dtype(dtype).itemsize
        print(f"  {name:10s} {dtype:4s} offset={offset:<10d} "
              f"bytes={nbytes:<10d} rows={rows}")
    print("json sections:")
    for name, offset, nbytes in header.get("json", []):
        print(f"  {name:10s}      offset={offset:<10d} bytes={nbytes}")


def _print_worldpack_header(path: str, header: dict) -> None:
    import os

    print(f"worldpack:   {path}")
    print(f"version:     {header.get('version')}")
    print(f"domains:     {header.get('size')}")
    print(f"seed:        {header.get('seed')}")
    print(f"file bytes:  {os.stat(path).st_size}")
    print(f"fingerprint: {header.get('fingerprint')}")
    print("sections:")
    for section in header.get("sections", []):
        name = section["name"]
        if section.get("kind") == "array":
            print(f"  {name:18s} {section['dtype']:4s} "
                  f"offset={section['offset']:<10d} "
                  f"bytes={section['nbytes']:<10d} rows={section['count']}")
        else:
            print(f"  {name:18s} json offset={section['offset']:<10d} "
                  f"bytes={section['nbytes']}")


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from repro.lumscan.serialize import sniff_format
    from repro.util.envelope import read_header

    path = args.path
    try:
        fmt = sniff_format(path)
        if fmt == "lshd":
            _print_segment_header(path, read_header(path)[1])
        elif fmt == "lshw":
            _print_worldpack_header(path, read_header(path)[1])
        else:
            raise SystemExit(
                f"{path}: not an LSHD segment or LSHW worldpack (looks "
                f"like {fmt}; JSONL exports are loadable but carry no "
                f"envelope header)")
    except OSError as exc:
        raise SystemExit(f"{path}: {exc}")
    except ValueError as exc:
        # Envelope errors already name the file.
        raise SystemExit(str(exc))
    return 0


def _cmd_world_freeze(args: argparse.Namespace) -> int:
    from repro.websim.worldpack import write_worldpack_file

    world = _world(args.scale, args.seed)
    stopwatch = args.clock.stopwatch()
    handle = write_worldpack_file(world, args.path)
    elapsed = stopwatch.elapsed()
    print(f"worldpack:   {args.path}")
    print(f"scale:       {args.scale} ({len(world.population)} domains)")
    print(f"seed:        {args.seed}")
    print(f"file bytes:  {handle.nbytes}")
    print(f"fingerprint: {handle.fingerprint}")
    print(f"frozen in {elapsed:.1f}s")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    number = args.number
    report = suite.run(include_top1m=False, include_vps=False,
                       include_ooni=False, include_pools=number in (1, 3))
    key = f"figure{number}"
    if key not in report.figures:
        raise SystemExit(f"no such figure: {number}")
    print(render_figure(report.figures[key]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-geoblock",
        description="Reproduce the IMC'18 CDN geoblocking study on a "
                    "synthetic Internet.",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument("--scale", default="tiny", choices=sorted(_SCALES),
                        help="world size preset")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full experiment suite")
    run.add_argument("--out", help="write the report to a file")
    run.add_argument("--save-json", help="also save the report as JSON")
    run.add_argument("--markdown", action="store_true",
                     help="emit markdown instead of plain text")
    run.add_argument("--no-top1m", action="store_true")
    run.add_argument("--no-vps", action="store_true")
    run.add_argument("--no-ooni", action="store_true")
    add_run_flags(run)
    run.set_defaults(func=_cmd_run)

    top10k = sub.add_parser("top10k", help="run only the Top-10K study")
    top10k.set_defaults(func=_cmd_top10k)

    table = sub.add_parser("table", help="print one reproduced table")
    table.add_argument("number", type=int, choices=range(1, 10))
    table.set_defaults(func=_cmd_table)

    figure = sub.add_parser("figure", help="print one reproduced figure")
    figure.add_argument("number", type=int, choices=range(1, 6))
    figure.set_defaults(func=_cmd_figure)

    validate = sub.add_parser(
        "validate", help="run the suite and check the paper's shape claims")
    validate.set_defaults(func=_cmd_validate)

    appdiff = sub.add_parser(
        "appdiff", help="survey commerce sites for feature/price differences")
    appdiff.add_argument("--domains", type=int, default=60)
    appdiff.add_argument("--countries", type=int, default=20)
    appdiff.set_defaults(func=_cmd_appdiff)

    timeouts = sub.add_parser(
        "timeouts", help="detect timeout-style geoblocking")
    timeouts.add_argument("--domains", type=int, default=400)
    timeouts.set_defaults(func=_cmd_timeouts)

    stability = sub.add_parser(
        "stability", help="check shape stability across world seeds")
    stability.add_argument("--seeds", type=int, nargs="+",
                           default=[7, 8, 9])
    stability.set_defaults(func=_cmd_stability)

    store = sub.add_parser(
        "store", help="inspect on-disk dataset artifacts")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="print the header of an LSHD segment or LSHW "
                        "worldpack without mapping its payload")
    inspect.add_argument("path", help="path to an .lshd segment or .lshw "
                                      "worldpack")
    inspect.set_defaults(func=_cmd_store_inspect)

    world = sub.add_parser(
        "world", help="freeze immutable world snapshots")
    world_sub = world.add_subparsers(dest="world_command", required=True)
    freeze = world_sub.add_parser(
        "freeze", help="build the world once and write it as an LSHW "
                       "worldpack file that workers can map zero-copy")
    freeze.add_argument("path", help="destination .lshw worldpack file")
    freeze.set_defaults(func=_cmd_world_freeze)

    lint = sub.add_parser(
        "lint", help="run the determinism/concurrency-purity linter",
        add_help=False)
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to python -m repro.lint")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[list] = None, clock: Optional[Clock] = None) -> int:
    """CLI entry point.

    ``clock`` is the injectable time source for elapsed-time reporting;
    tests pass a frozen :class:`~repro.util.clock.ManualClock`.
    """
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # Forward everything verbatim: the lint CLI owns its own parser,
        # and argparse.REMAINDER will not capture leading option flags.
        from repro.lint.cli import main as lint_main
        return lint_main(raw[1:])
    parser = build_parser()
    args = parser.parse_args(raw)
    args.clock = clock if clock is not None else SystemClock()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

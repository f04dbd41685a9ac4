#!/usr/bin/env python3
"""Run the full paper-scale reproduction and write EXPERIMENTS.md.

This is the long-running driver behind EXPERIMENTS.md: it builds the
paper-scale world (60,000 domains, ~190 countries), runs every study, and
renders the measured-vs-paper report.  Expect tens of minutes of runtime.

Usage: python scripts/run_experiments.py [--scale paper|small|tiny|nano]
           [--seed N] [--workers N] [--executor thread|process]
           [--merge memory|spill]
           [--checkpoint-dir DIR [--resume]]
           [--out PATH] [--save-json PATH] [--figures-dir DIR]

The engine and checkpoint flags are those of ``repro-geoblock run``.
``--out`` defaults to EXPERIMENTS.md only at ``--scale paper``; any
other scale must name its report file, so a small run cannot replace
the paper-scale report.
``--figures-dir`` also renders Figures 1-5 as SVG files.
Checkpoints are written one directory per study under DIR, each dataset
as one ``.lshd`` segment named by its stage's ``.manifest.json``.
"""

from __future__ import annotations

import argparse
import logging
import os
import resource
import sys

from repro.analysis.validation import PUBLISHED
from repro.cli import SCALES, add_run_flags, suite_from_args
from repro.util.clock import SystemClock
from repro.util.envelope import atomic_write

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `scripts/run_experiments.py --scale {scale} --workers {workers} --executor {executor}{resume}` (seed {seed}) on {cpus} cpus;
world size {size} domains, {countries} countries, runtime {minutes:.1f} min, peak RSS {rss_self:.0f} MB (main process) and {rss_workers:.0f} MB (largest child process).

The synthetic Top-1M is scaled down (see DESIGN.md §2); absolute counts
scale with population size, so the comparisons that matter are *shapes*:
orderings (which countries/providers/categories lead), rates (per-customer
geoblock adoption), and the sampling-statistics curves.  Each table below
is the pipeline's measured output; the "Headline findings" table at the
end lines measured values up against the paper's published numbers.

"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="paper", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=7)
    add_run_flags(parser)
    parser.add_argument("--out", default=None,
                        help="report path (default EXPERIMENTS.md at "
                             "--scale paper; required at other scales)")
    parser.add_argument("--save-json", default=None,
                        help="also save the report as JSON")
    parser.add_argument("--figures-dir", default=None,
                        help="also render Figures 1-5 as SVG into this dir")
    args = parser.parse_args()
    if args.out is None:
        if args.scale != "paper":
            parser.error(f"--scale {args.scale} needs --out: EXPERIMENTS.md "
                         "holds the paper-scale report")
        args.out = "EXPERIMENTS.md"

    logging.basicConfig(
        level=logging.INFO,
        format="[%(asctime)s] %(name)s: %(message)s",
        datefmt="%H:%M:%S",
        stream=sys.stdout,
    )
    stopwatch = SystemClock().stopwatch()
    print(f"[+{stopwatch.elapsed():7.1f}s] building {args.scale} world...",
          flush=True)
    suite = suite_from_args(args)
    world = suite.world
    print(f"[+{stopwatch.elapsed():7.1f}s] world ready: "
          f"{len(world.population)} domains, {len(world.registry)} countries, "
          f"{len(world.geoblocking_domains())} geoblocking domains",
          flush=True)

    report = suite.run()
    minutes = stopwatch.elapsed() / 60.0
    print(f"[+{stopwatch.elapsed():7.1f}s] suite finished in "
          f"{minutes:.1f} min", flush=True)
    for study, entries in sorted(report.stage_stats.items()):
        for entry in entries:
            spawn = ""
            if entry.get("workers_spawned") or \
                    entry.get("worker_page_lengths") or \
                    entry.get("freeze_failures"):
                spawn = (f" workers={entry['workers_spawned']}"
                         f" spawn={entry['worker_spawn_seconds']:.2f}s"
                         f" world={entry['world_build_seconds']:.2f}s"
                         f" pack_loads={entry['worker_pack_loads']}"
                         f" page_lengths={entry['worker_page_lengths']}"
                         f" freeze_failures={entry['freeze_failures']}")
            print(f"  stage {study}/{entry['stage']}: "
                  f"{entry['seconds']:.2f}s probes={entry['probes']} "
                  f"{'checkpoint-hit' if entry['cache_hit'] else 'executed'}"
                  f"{spawn}",
                  flush=True)

    # ru_maxrss is in KiB on Linux; the children's figure is the largest
    # single child process that has exited, not a sum over the pool.
    body = HEADER.format(
        scale=args.scale, seed=args.seed, workers=max(1, args.workers),
        executor=args.executor, resume=" --resume" if args.resume else "",
        cpus=os.cpu_count() or 1,
        size=len(world.population),
        countries=len(world.registry), minutes=minutes,
        rss_self=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        rss_workers=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    body += report.to_markdown() + "\n"
    with atomic_write(args.out) as handle:
        handle.write(body.encode("utf-8"))
    print(f"wrote {args.out}", flush=True)

    if args.save_json:
        from repro.analysis.store import save_report
        save_report(report, args.save_json)
        print(f"wrote {args.save_json}", flush=True)
    if args.figures_dir:
        from repro.analysis.svgplot import save_svg
        os.makedirs(args.figures_dir, exist_ok=True)
        for key, figure in sorted(report.figures.items()):
            svg_path = os.path.join(args.figures_dir, f"{key}.svg")
            save_svg(figure, svg_path)
            print(f"wrote {svg_path}", flush=True)

    # Print the headline comparison to the console too.
    for key in sorted(report.findings):
        print(f"  {key}: measured={report.findings[key]} "
              f"paper={PUBLISHED.get(key, '-')}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

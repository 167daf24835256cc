"""CLI entry point: ``python -m repro.harness <figure-id> [...]``.

Examples
--------
Reproduce one figure at CI scale::

    python -m repro.harness fig3_26

Reproduce a whole chapter at paper scale (slow)::

    python -m repro.harness fig5_9 fig5_10 --preset paper

Journal a long run so Ctrl-C / ``kill`` / a failed replication loses no
completed work, then resume it (output is byte-identical to an
uninterrupted run)::

    python -m repro.harness fig5_9 fig5_10 --preset paper --journal run1
    python -m repro.harness fig5_9 fig5_10 --preset paper --journal run1 --resume

List everything::

    python -m repro.harness --list
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import traceback

from repro.harness import journal as journal_mod
from repro.harness.experiments import ch5_sample_tree
from repro.harness.parallel import clamp_jobs, resolve_jobs
from repro.harness.presets import PRESETS
from repro.harness.registry import REGISTRY, run_experiment
from repro.sim.faults import FAULT_PRESETS
from repro.util import artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate figures from the VDM paper's evaluation.",
    )
    parser.add_argument("figures", nargs="*", help="figure ids, e.g. fig3_25")
    parser.add_argument(
        "--preset",
        default="quick",
        choices=sorted(PRESETS),
        help="experiment scale (default: quick)",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="replication worker processes (default: REPRO_JOBS or 1); "
        "clamped to the CPU count; results are bit-identical at any value",
    )
    parser.add_argument(
        "--faults",
        default=None,
        choices=sorted(FAULT_PRESETS),
        help="run every session under this fault plan (seeded message "
        "loss/duplication/jitter, crashes, freezes); tree invariants are "
        "checked after every mutation and abort the run on violation",
    )
    parser.add_argument(
        "--failover",
        default=None,
        choices=["reactive", "precomputed"],
        help="orphan-recovery strategy for every session: reactive "
        "(rejoin round-trip, the default) or precomputed (direction-"
        "consistent backup parents, local switch on parent death)",
    )
    parser.add_argument(
        "--no-substrate-cache",
        action="store_true",
        help="disable the on-disk substrate cache for this run "
        "(substrates are still built in memory; equivalent to "
        "REPRO_SUBSTRATE_CACHE=0)",
    )
    parser.add_argument(
        "--sample-tree",
        action="store_true",
        help="print the Fig 5.5 sample tree (add --eu for Fig 5.6)",
    )
    parser.add_argument("--eu", action="store_true", help="include EU nodes")
    parser.add_argument("--json", action="store_true", help="emit JSON not tables")
    parser.add_argument(
        "--chart", action="store_true", help="draw an ASCII chart under each table"
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        help="checkpoint completed replications to DIR/journal.jsonl as "
        "they land (plus a run.json manifest), so an interrupted sweep "
        "can be resumed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the journaled run in --journal: replay completed "
        "replications and execute only the missing ones; output is "
        "byte-identical to an uninterrupted run",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal DIR")
    try:
        resolve_jobs(args.jobs)  # a usage error, before any journal opens
    except ValueError as exc:
        parser.error(str(exc))
    # Oversubscribed pools thrash; warn-and-clamp rather than silently
    # running slower than serial.
    args.jobs = clamp_jobs(args.jobs)
    if args.no_substrate_cache:
        # Via the environment so pool workers inherit the choice too.
        os.environ[artifacts.CACHE_ENABLED_ENV] = "0"

    if args.list:
        width = max(len(k) for k in REGISTRY)
        for fig_id, entry in REGISTRY.items():
            print(f"{fig_id.ljust(width)}  Fig {entry.figure:<5} {entry.description}")
        return 0

    if args.sample_tree:
        print(ch5_sample_tree(PRESETS[args.preset], transatlantic=args.eu))
        return 0

    if not args.figures:
        parser.print_help()
        return 2

    def render_figures() -> None:
        for fig_id in args.figures:
            table = run_experiment(
                fig_id,
                args.preset,
                jobs=args.jobs,
                faults=args.faults,
                failover=args.failover,
            )
            print(table.to_json() if args.json else table.render())
            if args.chart and not args.json:
                from repro.metrics.ascii_chart import ascii_chart

                print()
                print(ascii_chart(table))
            print()

    if args.journal is None:
        render_figures()
        return 0

    resume_cmd = _resume_command(args)
    try:
        with journal_mod.run_context(
            args.journal,
            resume=args.resume,
            manifest={
                "figures": list(args.figures),
                "preset": args.preset,
                "jobs": args.jobs,
                "faults": args.faults,
                "failover": args.failover,
            },
        ):
            render_figures()
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — completed replications are journaled in "
            f"{args.journal!s}; resume with:\n  {resume_cmd}",
            file=sys.stderr,
        )
        return 130
    except Exception:
        traceback.print_exc()
        print(
            f"\ncompleted replications are journaled in {args.journal!s}; "
            f"after fixing the cause, resume with:\n  {resume_cmd}",
            file=sys.stderr,
        )
        return 1
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """The exact invocation that continues this run from its journal."""
    parts = ["python", "-m", "repro.harness", *args.figures]
    parts += ["--preset", args.preset]
    if args.jobs is not None:
        parts += ["--jobs", str(args.jobs)]
    if args.faults:
        parts += ["--faults", args.faults]
    if args.failover:
        parts += ["--failover", args.failover]
    if args.json:
        parts.append("--json")
    if args.chart:
        parts.append("--chart")
    parts += ["--journal", str(args.journal), "--resume"]
    return shlex.join(parts)


if __name__ == "__main__":
    sys.exit(main())

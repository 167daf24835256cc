"""CLI entry point: ``python -m repro.service [scenario] [...]``.

Examples
--------
Run a Poisson service session and print the SLO metrics JSON::

    python -m repro.service poisson --duration 600 --seed 0

Flash crowd with a chaos plan (inline or ``@file``), journaled so
``SIGTERM`` drains gracefully and ``--resume`` finishes the run with
byte-identical final metrics::

    python -m repro.service flash --burst-at 120 --burst-rate 2.0 \\
        --burst-duration 30 --journal svc1 --metrics-out svc1.json \\
        --chaos '[{"action": "agent-crash", "at_s": 200.0}]' --pace 0.02
    python -m repro.service flash ... --journal svc1 --resume

``SIGTERM`` during a journaled run does not kill the process: it stops
admissions, lets in-flight joins finish, stamps the journal manifest
``interrupted`` and exits 130 with the exact resume command.  Because the
runtime journals every arrival outcome and a resumed run re-executes
deterministically against those witnesses, the resumed final metrics are
byte-identical to an uninterrupted run of the same config.
"""

from __future__ import annotations

import argparse
import shlex
import signal
import sys

from repro.harness import journal as journal_mod
from repro.harness.chaos import SERVICE_CHAOS_ENV, load_service_plan
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.service.workload import SCENARIOS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a live VDM service session under open-loop traffic.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="poisson",
        choices=SCENARIOS,
        help="workload shape (default: poisson)",
    )
    parser.add_argument("--duration", type=float, default=600.0, metavar="S")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hosts", type=int, default=64, metavar="N")
    parser.add_argument(
        "--rate", type=float, default=0.2, metavar="HZ",
        help="baseline session-arrival rate (default: 0.2/s)",
    )
    parser.add_argument(
        "--hold", type=float, default=120.0, metavar="S",
        help="mean session lifetime (default: 120 s)",
    )
    parser.add_argument(
        "--hwm", type=int, default=8, metavar="N",
        help="join-queue high-water mark (admission control)",
    )
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument("--join-timeout", type=float, default=8.0, metavar="S")
    parser.add_argument("--probe-period", type=float, default=5.0, metavar="S")
    parser.add_argument("--burst-at", type=float, default=0.0, metavar="S")
    parser.add_argument("--burst-rate", type=float, default=0.0, metavar="HZ")
    parser.add_argument("--burst-duration", type=float, default=0.0, metavar="S")
    parser.add_argument("--diurnal-period", type=float, default=0.0, metavar="S")
    parser.add_argument("--diurnal-depth", type=float, default=0.8)
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="service chaos plan: JSON rule list (or @file), e.g. "
        '\'[{"action": "bus-stall", "at_s": 80, "duration_s": 20}]\'; '
        f"default: ${SERVICE_CHAOS_ENV}",
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        help="journal every arrival outcome in DIR; SIGTERM drains "
        "gracefully and --resume completes the run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the journaled run in --journal (re-executes from t=0; "
        "the journal is the determinism witness)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write final SLO metrics JSON here (default: stdout)",
    )
    parser.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="WALL_S",
        help="wall seconds slept per virtual second (0 = as fast as "
        "possible); lets CI land SIGTERM mid-run",
    )
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal DIR")

    config = ServiceConfig(
        scenario=args.scenario,
        duration_s=args.duration,
        seed=args.seed,
        n_hosts=args.hosts,
        arrival_rate_hz=args.rate,
        hold_s=args.hold,
        join_timeout_s=args.join_timeout,
        join_queue_hwm=args.hwm,
        join_workers=args.workers,
        probe_period_s=args.probe_period,
        burst_at_s=args.burst_at,
        burst_rate_hz=args.burst_rate,
        burst_duration_s=args.burst_duration,
        diurnal_period_s=args.diurnal_period,
        diurnal_depth=args.diurnal_depth,
    )
    chaos_plan = load_service_plan(args.chaos)
    runtime = ServiceRuntime(
        config,
        chaos_plan=chaos_plan,
        journal_outcomes=args.journal is not None,
        pace_s=args.pace,
    )

    def emit(report_json: str) -> None:
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(report_json)
        else:
            sys.stdout.write(report_json)

    if args.journal is None:
        runtime.run()
        emit(runtime.metrics_json())
        return 0

    resume_cmd = _resume_command(args)
    try:
        with journal_mod.run_context(
            args.journal,
            resume=args.resume,
            manifest={
                "service": True,
                "scenario": args.scenario,
                "seed": args.seed,
                "duration_s": args.duration,
                "chaos_plan": len(chaos_plan),
            },
        ) as ctx:
            # Layer graceful drain over run_context's SIGTERM handler:
            # first TERM drains (stop admissions, finish in-flight joins);
            # the journal already holds every completed outcome.
            signal.signal(signal.SIGTERM, lambda s, f: runtime.request_drain())
            runtime.run()
            if runtime.drained:
                ctx.write_manifest("interrupted")
                raise KeyboardInterrupt("drained on SIGTERM")
            emit(runtime.metrics_json())
    except KeyboardInterrupt:
        print(
            f"\ndrained — completed join outcomes are journaled in "
            f"{args.journal!s}; finish the run with:\n  {resume_cmd}",
            file=sys.stderr,
        )
        return 130
    return 0


def _resume_command(args: argparse.Namespace) -> str:
    """The exact invocation that continues this run from its journal."""
    parts = ["python", "-m", "repro.service", args.scenario]
    parts += ["--duration", str(args.duration)]
    parts += ["--seed", str(args.seed)]
    parts += ["--hosts", str(args.hosts)]
    parts += ["--rate", str(args.rate)]
    parts += ["--hold", str(args.hold)]
    parts += ["--hwm", str(args.hwm)]
    parts += ["--workers", str(args.workers)]
    parts += ["--join-timeout", str(args.join_timeout)]
    parts += ["--probe-period", str(args.probe_period)]
    if args.burst_rate:
        parts += [
            "--burst-at", str(args.burst_at),
            "--burst-rate", str(args.burst_rate),
            "--burst-duration", str(args.burst_duration),
        ]
    if args.diurnal_period:
        parts += ["--diurnal-period", str(args.diurnal_period)]
    if args.chaos:
        parts += ["--chaos", args.chaos]
    if args.metrics_out:
        parts += ["--metrics-out", args.metrics_out]
    parts += ["--journal", str(args.journal), "--resume"]
    return shlex.join(parts)


if __name__ == "__main__":
    sys.exit(main())

"""CLI: ``python -m repro.planetlab`` — the paper's scenario workflow.

Two subcommands mirror the dissertation's tooling:

* ``generate`` — build a scenario file for a synthesized pool (the
  paper's scenario generator, Section 5.2.2)::

      python -m repro.planetlab generate --nodes 40 --churn 0.08 \
          --out scenario.txt

* ``run`` — replay a scenario file through the Main Controller and
  print the session report (the paper's controller + result download)::

      python -m repro.planetlab run scenario.txt --protocol vdm
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.factories import btp, hmtp, vdm, vdm_r
from repro.harness.substrates import build_planetlab_underlay
from repro.planetlab.controller import MainController
from repro.planetlab.scenario import (
    generate_scenario,
    parse_scenario,
    render_scenario,
)
from repro.sim.session import SessionConfig

PROTOCOLS = {
    "vdm": vdm,
    "vdm-r": vdm_r,
    "hmtp": hmtp,
    "btp": btp,
}


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=40, help="pool selection size")
    parser.add_argument("--pool-us", type=int, default=90, help="US pool size")
    parser.add_argument("--pool-eu", type=int, default=0, help="EU pool size")
    parser.add_argument("--seed", type=int, default=0)


def cmd_generate(args: argparse.Namespace) -> int:
    substrate = build_planetlab_underlay(
        n_select=args.nodes, seed=args.seed, n_us=args.pool_us, n_eu=args.pool_eu
    )
    config = SessionConfig(
        n_nodes=args.initial or args.nodes - 1,
        join_phase_s=args.join_phase,
        total_s=args.duration,
        churn_rate=args.churn,
        seed=args.seed,
        source_host=substrate.source,
    )
    scenario = generate_scenario(config, substrate.underlay.hosts)
    text = render_scenario(scenario)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(scenario.events)} events to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text())
    substrate = build_planetlab_underlay(
        n_select=args.nodes, seed=args.seed, n_us=args.pool_us, n_eu=args.pool_eu
    )
    if scenario.source != substrate.source or not set(
        e.node for e in scenario.events
    ) <= set(substrate.underlay.hosts):
        print(
            "error: scenario does not match the pool (use the same "
            "--nodes/--pool-*/--seed as `generate`)",
            file=sys.stderr,
        )
        return 2
    factory = PROTOCOLS[args.protocol]()
    controller = MainController(
        substrate.underlay,
        scenario,
        factory,
        degree_limit=args.degree,
        measurement_noise_sigma=args.noise,
        seed=args.seed,
    )
    report = controller.run()
    print(f"session: {report.duration_s:.0f} s, {len(report.nodes)} members")
    print(f"mean startup     : {report.mean_startup:.3f} s")
    print(f"mean reconnection: {report.mean_reconnection:.3f} s")
    print(f"mean loss        : {100 * report.mean_loss:.4f} %")
    print(f"overhead         : {100 * report.overhead:.4f} %")
    print(f"control messages : {report.control_messages}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.planetlab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a scenario file")
    _add_pool_args(gen)
    gen.add_argument("--initial", type=int, default=0, help="initial joiners (default: nodes-1)")
    gen.add_argument("--join-phase", type=float, default=2000.0)
    gen.add_argument("--duration", type=float, default=5000.0)
    gen.add_argument("--churn", type=float, default=0.06)
    gen.add_argument("--out", type=str, default="")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="replay a scenario file")
    run.add_argument("scenario", type=str)
    _add_pool_args(run)
    run.add_argument("--protocol", choices=sorted(PROTOCOLS), default="vdm")
    run.add_argument("--degree", type=int, default=4)
    run.add_argument("--noise", type=float, default=0.1)
    run.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""PlanetLab-style emulation with scenario files (Chapter 5's pipeline).

Reproduces the paper's implementation architecture end to end:

1. synthesize a PlanetLab-like pool and filter out flaky nodes
   (Fig. 5.2's three-stage pipeline);
2. generate a scenario file (timed join/leave script, Section 5.2.2):
   the schedule a session with the same config would draw;
3. replay it through the Main Controller against per-node agents;
4. collect per-node reports (the paper's "calculate result" stage) and
   print session statistics plus the sample tree (Fig. 5.5 style).

Run:
    python examples/planetlab_emulation.py
"""


from repro import SessionConfig, vdm
from repro.harness.substrates import build_planetlab_underlay
from repro.planetlab import MainController, generate_scenario, render_scenario


def main() -> None:
    # --- node selection (Fig. 5.2) -------------------------------------
    substrate = build_planetlab_underlay(n_select=40, seed=13, n_us=90)
    print(
        f"pool filtered: {substrate.n_hosts} working nodes selected; "
        f"source = host {substrate.source} "
        f"({substrate.nodes[substrate.source].site.name})"
    )

    # --- scenario generation ---------------------------------------------
    config = SessionConfig(
        n_nodes=35,
        degree=4,
        source_degree=4,
        join_phase_s=600.0,
        total_s=3000.0,
        churn_rate=0.08,
        seed=5,
        source_host=substrate.source,
        measurement_noise_sigma=0.1,  # testbed probe noise
    )
    scenario = generate_scenario(config, substrate.underlay.hosts)
    text = render_scenario(scenario)
    print(f"\nscenario: {len(scenario.events)} events; first lines:")
    for line in text.splitlines()[:6]:
        print(f"  {line}")

    # --- controller run ----------------------------------------------------
    controller = MainController(
        substrate.underlay,
        scenario,
        vdm(),
        degree_limit=config.degree,
        chunk_rate=config.chunk_rate,
        measurement_noise_sigma=config.measurement_noise_sigma,
        seed=config.seed,
    )
    report = controller.run()

    # --- per-node result collection -------------------------------------------
    print(f"\nsession over ({report.duration_s:.0f} s emulated):")
    print(f"  mean startup time    : {report.mean_startup:.3f} s")
    print(f"  mean reconnection    : {report.mean_reconnection:.3f} s")
    print(f"  mean loss rate       : {100 * report.mean_loss:.3f} %")
    print(f"  control overhead     : {100 * report.overhead:.3f} %")
    print(f"  control messages     : {report.control_messages}")

    worst = sorted(report.nodes, key=lambda n: -n.loss_rate)[:3]
    print("\n  worst three viewers by loss:")
    for node in worst:
        print(
            f"    host {node.node}: loss {100 * node.loss_rate:.2f} %, "
            f"{len(node.reconnection_times)} reconnection(s)"
        )

    # --- the tree, Fig. 5.5 style -----------------------------------------------
    tree = controller.session.env.tree
    print("\nfinal overlay tree (site names show geographic clustering):")

    def walk(node: int, depth: int) -> None:
        site = substrate.nodes[node].site
        print("  " * depth + f"{node}:{site.name}")
        for child in sorted(tree.children.get(node, ())):
            walk(child, depth + 1)

    walk(tree.source, 0)


if __name__ == "__main__":
    main()

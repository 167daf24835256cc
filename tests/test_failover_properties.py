"""Property-based failover testing: precomputed backups are always safe.

Hypothesis drives session seed, churn, and the fault plan (crash-heavy
and correlated scenarios) through VDM sessions running with
``failover="precomputed"``.  Two layers of properties:

* **switch time** — every committed local switch is intercepted and must
  respect the degree bound, never attach under a descendant (the path to
  source stays acyclic), and pass VDM's direction-consistency veto
  against the new parent's other children;
* **steady state** — after the run, every stored backup of an attached
  node is a strict ancestor above its current parent and passes the
  failure-hypothesis candidacy check the refresh rule promises.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import factories
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.failover import FailoverManager
from repro.sim.faults import FAULT_PRESETS
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig

# Plans that actually kill parents (plus one pure-loss control): the
# failover machinery only acts when orphans appear.
PLAN_NAMES = ("crashy", "chaos", "domain-outage", "partition", "burst-loss")


def _checked_try_switch(original, log):
    def try_switch(self, node):
        committed = original(self, node)
        if not committed:
            return committed
        env = self.env
        tree = env.tree
        backup = tree.parent[node]
        agent = env.agents[node]
        backup_agent = env.agents[backup]

        # degree bound respected at switch time
        assert len(tree.children.get(backup, ())) <= backup_agent.degree_limit, (
            f"switch of {node} overfilled {backup}"
        )
        # never a descendant: the new path terminates at the source and
        # does not pass through the switching node again (no cycle)
        path = tree.path_to_source(node)
        assert path[-1] == tree.source
        assert path.count(node) == 1, f"cycle through {node}: {path}"
        # direction-consistent: no other child of the new parent lies
        # strictly on the way to the switched node (Case III veto)
        others = set(tree.children.get(backup, ())) - {node}
        assert agent.backup_parent_ok(backup, others), (
            f"switch of {node} under {backup} violates direction consistency"
        )
        log.append(node)
        return committed

    return try_switch


def _run_checked(plan_name: str, session_seed: int, churn: float):
    underlay = build_transit_stub_underlay(
        n_hosts=40,
        seed=7,
        ts_config=TransitStubConfig(
            total_nodes=100,
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
        ),
    )
    plan = dataclasses.replace(FAULT_PRESETS[plan_name], active_until_s=1200.0)
    cfg = SessionConfig(
        n_nodes=12,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1600.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=churn,
        seed=session_seed,
        faults=plan,
        failover="precomputed",
        invariant_mode="raise",
    )
    switches: list[int] = []
    original = FailoverManager.try_switch
    FailoverManager.try_switch = _checked_try_switch(original, switches)
    try:
        session = MulticastSession(underlay, factories.vdm(), cfg)
        manager = session.env.failover

        def holders_mirror_backups(*_event):
            # the reverse map the manager refreshes from, after every
            # mutation it has just digested
            inverse: dict[int, set[int]] = {}
            for node, backup in manager.backups.items():
                if backup is not None:
                    inverse.setdefault(backup, set()).add(node)
            assert {b: h for b, h in manager._holders.items() if h} == inverse

        session.env.tree.add_listener(holders_mirror_backups)
        result = session.run()
    finally:
        FailoverManager.try_switch = original
    return result, switches


@settings(max_examples=12, deadline=None)
@given(
    plan_name=st.sampled_from(PLAN_NAMES),
    session_seed=st.integers(min_value=0, max_value=2**16),
    churn=st.floats(min_value=0.0, max_value=0.25),
)
def test_precomputed_backups_are_always_safe(plan_name, session_seed, churn):
    result, switches = _run_checked(plan_name, session_seed, churn)
    env = result.runtime
    tree = env.tree
    assert result.violations == []
    assert result.failover_counts.get("switch", 0) == len(switches)

    # steady state: every stored backup of an attached node is a strict
    # ancestor above its parent, direction-consistent under the failure
    # hypothesis, and certainly not a descendant of its owner
    manager = env.failover
    assert isinstance(manager, FailoverManager)
    for node, backup in sorted(manager.backups.items()):
        if backup is None:
            continue
        if not (tree.is_attached(node) and tree.is_reachable(node)):
            continue  # orphans keep their last value by design
        path = tree.path_to_source(node)
        assert backup in path[2:], (
            f"backup {backup} of {node} is not an ancestor above its "
            f"parent (path {path})"
        )
        assert not tree.is_descendant(backup, node)
        chain_child = path[path.index(backup) - 1]
        agent = env.agents[node]
        children = set(tree.children.get(backup, ())) - {chain_child}
        backup_agent = env.agents[backup]
        assert backup_agent.degree_limit - len(children) > 0
        assert agent.backup_parent_ok(backup, children)

"""Property-based system tests.

These drive random join/leave sequences through full protocol stacks and
assert the structural invariants that must survive *any* schedule:
acyclicity, degree limits, parent/children consistency, and eventual
reconnection of every surviving node.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.factories import btp, hmtp, vdm
from repro.protocols.base import ProtocolRuntime
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests.helpers import line_matrix


N_HOSTS = 10

# An action script: each entry toggles one of the non-source hosts.
scripts = st.lists(
    st.integers(min_value=1, max_value=N_HOSTS - 1), min_size=1, max_size=25
)
positions = st.lists(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    min_size=N_HOSTS,
    max_size=N_HOSTS,
    unique=True,
)


def run_script(factory, coords, script, degree=3):
    ul = MatrixUnderlay(line_matrix(coords))
    sim = Simulator()
    env = ProtocolRuntime(sim, ul, source=0)

    def make(node):
        agent = factory(node, env, degree_limit=degree, rng=np.random.default_rng(node))
        env.register(agent)
        return agent

    make(0)
    alive = {0}
    for step, node in enumerate(script):
        if node in alive:
            env.agents[node].leave()
            alive.discard(node)
        else:
            make(node).start_join()
            alive.add(node)
        sim.run(max_events=50_000)
    sim.run(max_events=50_000)
    return env, alive


def check_invariants(env, alive):
    tree = env.tree
    # 1. acyclicity
    for node in tree.members():
        seen = set()
        cur = node
        while cur is not None:
            assert cur not in seen, "parent cycle"
            seen.add(cur)
            cur = tree.parent.get(cur)
    # 2. parent/children mirror
    for child, parent in tree.parent.items():
        if parent is not None:
            assert child in tree.children[parent]
    for parent, children in tree.children.items():
        for child in children:
            assert tree.parent.get(child) == parent
    # 3. degree limits
    for node in tree.members():
        agent = env.agents.get(node)
        if agent is not None:
            assert len(tree.children.get(node, ())) <= agent.degree_limit
    # 4. departed nodes are gone from the tree
    for node in tree.members():
        assert env.is_alive(node), f"dead node {node} still in tree"
    # 5. every alive node that managed to join is reachable once idle
    for node in alive - {0}:
        if tree.is_present(node):
            assert tree.is_reachable(node), f"{node} stranded"


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coords=positions, script=scripts)
def test_vdm_invariants_under_random_churn(coords, script):
    env, alive = run_script(vdm(), coords, script)
    check_invariants(env, alive)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coords=positions, script=scripts)
def test_hmtp_invariants_under_random_churn(coords, script):
    env, alive = run_script(hmtp(), coords, script)
    check_invariants(env, alive)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coords=positions, script=scripts)
def test_btp_invariants_under_random_churn(coords, script):
    env, alive = run_script(btp(), coords, script)
    check_invariants(env, alive)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coords=positions, script=scripts, degree=st.integers(1, 5))
def test_vdm_degree_limit_never_violated(coords, script, degree):
    env, alive = run_script(vdm(), coords, script, degree=degree)
    for node in env.tree.members():
        assert len(env.tree.children.get(node, ())) <= degree


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coords=positions)
def test_vdm_sequential_join_connects_everyone(coords):
    """With no churn, every join must eventually succeed."""
    env, alive = run_script(vdm(), coords, list(range(1, N_HOSTS)))
    tree = env.tree
    for node in range(1, N_HOSTS):
        assert tree.is_present(node)
        assert tree.is_reachable(node)
    # Exactly one tree: N-1 edges.
    assert len(tree.edges()) == N_HOSTS - 1

"""Every config and plan field declares its domain once, and one scan enforces it.

Three layers:

* **coverage** — each field of the thirteen in-scope classes carries a
  domain in its ``dataclasses.field`` metadata, or sits on
  :data:`EXEMPT` with a reason (nested configs validate themselves);
* **probes** — every declared domain is fed NaN, ±inf, -1, 2.5, ``True``,
  ``"x"`` and ``None``; what it refuses raises a ``ValueError`` naming the
  field at construction, and what it admits agrees with the field's
  annotation (no domain admits a non-finite number);
* **regressions** — each value the classes used to construct from without
  error is its own case.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from repro.core.capacity import UplinkPopulation
from repro.core.vdm import VDMConfig
from repro.harness.chaos import ServiceChaosRule, load_service_plan
from repro.protocols.btp import BTPConfig
from repro.protocols.hmtp import HMTPConfig
from repro.service.runtime import ServiceConfig
from repro.sim.churn import ChurnEvent
from repro.sim.faults import FaultPlan
from repro.sim.session import SessionConfig
from repro.topology.geo import GeoSite
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.retry import RetryPolicy
from repro.util.validation import check_fields

#: the in-scope classes, each with the keyword arguments of a legal instance
BASES: dict[type, dict] = {
    SessionConfig: {},
    ServiceConfig: {},
    VDMConfig: {},
    HMTPConfig: {},
    BTPConfig: {},
    TransitStubConfig: {},
    LinkErrorConfig: {},
    RetryPolicy: {},
    FaultPlan: {},
    UplinkPopulation: {},
    GeoSite: {"name": "a", "region": "us", "lat": 0.0, "lon": 0.0},
    ChurnEvent: {"time": 1.0, "action": "join", "node": 1},
    ServiceChaosRule: {"action": "clock-jump", "at_s": 1.0},
}

#: fields without a domain of their own, and why
EXEMPT: dict[str, str] = {
    "SessionConfig.faults": "nested: a FaultPlan, a FAULT_PRESETS name or None, "
    "resolved (and an unknown name refused) by resolve_fault_plan",
    "ServiceConfig.retry": "nested RetryPolicy: its own fields declare domains",
}

PROBES = [math.nan, math.inf, -math.inf, -1, 2.5, True, "x", None]
PROBE_IDS = ["nan", "inf", "-inf", "-1", "2.5", "True", "x", "None"]

#: fields whose domain admits -1: signed by nature
SIGNED = {"seed", "correlation", "lat", "lon"}


def _declared():
    for cls in BASES:
        for f in fields(cls):
            if "domain" in f.metadata:
                yield pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")


def _admits(domain, name, value) -> bool:
    try:
        domain(name, value)
    except ValueError:
        return False
    return True


def test_thirteen_classes_in_scope():
    assert len(BASES) == 13


@pytest.mark.parametrize("cls", list(BASES), ids=lambda c: c.__name__)
def test_every_field_declares_a_domain_or_is_exempt(cls):
    for f in fields(cls):
        qualified = f"{cls.__name__}.{f.name}"
        assert ("domain" in f.metadata) != (qualified in EXEMPT), qualified


def test_exemptions_name_real_fields():
    names = {f"{c.__name__}.{f.name}" for c in BASES for f in fields(c)}
    assert set(EXEMPT) <= names


@pytest.mark.parametrize("cls", list(BASES), ids=lambda c: c.__name__)
def test_bases_construct(cls):
    cls(**BASES[cls])


@pytest.mark.parametrize(("cls", "f"), list(_declared()))
def test_domain_refuses_probes_naming_the_field(cls, f):
    domain = f.metadata["domain"]
    for probe, probe_id in zip(PROBES, PROBE_IDS):
        if _admits(domain, f.name, probe):
            assert not (isinstance(probe, float) and not math.isfinite(probe))
            if probe is True:
                assert "bool" in f.type, probe_id
            elif probe == "x":
                assert "str" in f.type, probe_id
            elif probe is None:
                assert "None" in f.type, probe_id
            elif probe == 2.5:
                assert "float" in f.type or f.type == "DegreeSpec", probe_id
            elif probe == -1:
                assert f.name in SIGNED, probe_id
            continue
        with pytest.raises(ValueError, match=f.name):
            cls(**{**BASES[cls], f.name: probe})


@pytest.mark.parametrize("cls", list(BASES), ids=lambda c: c.__name__)
def test_post_init_checks_fields_first(cls):
    """``__post_init__`` is ``check_fields`` itself, or calls it first and
    then holds the cross-field rules."""
    if cls.__post_init__ is check_fields:
        return
    source = textwrap.dedent(inspect.getsource(cls.__post_init__))
    first = ast.parse(source).body[0].body[0].value
    assert isinstance(first, ast.Call) and first.func.id == "check_fields"
    assert ast.unparse(first.args[0]) == "self"


# -- stored values ------------------------------------------------------------


def test_values_are_stored_as_given():
    cfg = SessionConfig(n_nodes=np.int64(20), total_s=2000, join_phase_s=500)
    assert type(cfg.n_nodes) is np.int64
    assert type(cfg.total_s) is int
    assert ServiceConfig(degree=(2, 4)).degree == (2, 4)


def test_chaos_times_are_stored_as_floats():
    (rule,) = load_service_plan(
        '[{"action": "bus-stall", "at_s": 180, "duration_s": 40}]'
    )
    assert (type(rule.at_s), type(rule.duration_s)) == (float, float)


# -- the CI plans parse as they always did ---------------------------------------


def test_service_smoke_plan():
    plan = load_service_plan(
        '[{"action": "agent-crash", "at_s": 100, "node_index": 1},'
        ' {"action": "agent-crash", "at_s": 140, "node_index": 3},'
        ' {"action": "bus-stall", "at_s": 180, "duration_s": 40}]'
    )
    assert plan == (
        ServiceChaosRule(action="agent-crash", at_s=100.0, node_index=1),
        ServiceChaosRule(action="agent-crash", at_s=140.0, node_index=3),
        ServiceChaosRule(action="bus-stall", at_s=180.0, duration_s=40.0),
    )


@pytest.mark.parametrize(
    ("loader", "raw", "message"),
    [
        (load_service_plan, '[{"action": "clock-jump"}]',
         r"REPRO_SERVICE_CHAOS\[0\] is missing at_s"),
        pytest.param(
            load_service_plan, '[{"at_s": 1}]',
            r"REPRO_SERVICE_CHAOS\[0\] is missing action",
            id="load_service_plan-missing-action",
        ),
        pytest.param(
            load_service_plan,
            '[{"action": "clock-jump", "at_s": 1}, {"action": "clock-jump", "who": 1}]',
            r"REPRO_SERVICE_CHAOS\[1\] has unknown field\(s\) \['who'\]",
            id="load_service_plan-unknown-field-in-entry-1",
        ),
        pytest.param(
            load_service_plan,
            '[{"action": "bus-stall", "at_s": 1, "topic": "joins"}]',
            r"REPRO_SERVICE_CHAOS\[0\] has unknown field\(s\) \['topic'\]",
            id="load_service_plan-retired-topic-field",
        ),
        (load_service_plan, '[{"action": "explode", "at_s": 1}]',
         r"REPRO_SERVICE_CHAOS\[0\]\.action must be one of "
         r"\('agent-crash', 'bus-stall', 'clock-jump'\)"),
    ],
)
def test_reader_refusals_keep_their_prefix(loader, raw, message):
    with pytest.raises(ValueError, match=message):
        loader(raw)


# -- values that used to construct without error --------------------------------

_NAN, _INF = math.nan, math.inf


def _service_chaos(entry: dict):
    return lambda: load_service_plan(
        json.dumps([{"action": "agent-crash", "at_s": 1.0, **entry}])
    )


SILENT = {
    # a NaN base made every backoff the 5 s cap; a NaN cap never retried
    "RetryPolicy.backoff_base_s=nan": (lambda: RetryPolicy(backoff_base_s=_NAN),
                                       "backoff_base_s"),
    "RetryPolicy.max_attempts=nan": (lambda: RetryPolicy(max_attempts=_NAN),
                                     "max_attempts"),
    "RetryPolicy.max_attempts=1.5": (lambda: RetryPolicy(max_attempts=1.5),
                                     "max_attempts"),
    "ServiceConfig.join_queue_hwm=nan": (
        lambda: ServiceConfig(join_queue_hwm=_NAN), "join_queue_hwm"),
    "ServiceConfig.degree=(2.5, 5)": (lambda: ServiceConfig(degree=(2.5, 5)),
                                      "degree"),
    "ServiceConfig.n_hosts=nan": (lambda: ServiceConfig(n_hosts=_NAN), "n_hosts"),
    "ServiceConfig.join_workers=1.5": (lambda: ServiceConfig(join_workers=1.5),
                                       "join_workers"),
    "ServiceConfig.join_workers=True": (lambda: ServiceConfig(join_workers=True),
                                        "join_workers"),
    "SessionConfig.n_nodes=2.5": (lambda: SessionConfig(n_nodes=2.5), "n_nodes"),
    "SessionConfig.n_nodes=True": (lambda: SessionConfig(n_nodes=True), "n_nodes"),
    "SessionConfig.invariant_sweep_every=1.5": (
        lambda: SessionConfig(invariant_sweep_every=1.5), "invariant_sweep_every"),
    "SessionConfig.source_degree=-1": (lambda: SessionConfig(source_degree=-1),
                                       "source_degree"),
    "SessionConfig.source_degree=2.5": (lambda: SessionConfig(source_degree=2.5),
                                        "source_degree"),
    "SessionConfig.source_host=-3": (lambda: SessionConfig(source_host=-3),
                                     "source_host"),
    "SessionConfig.seed=nan": (lambda: SessionConfig(seed=_NAN), "seed"),
    "SessionConfig.seed=1.5": (lambda: SessionConfig(seed=1.5), "seed"),
    "SessionConfig.degree=(nan, 5)": (lambda: SessionConfig(degree=(_NAN, 5)),
                                      "degree"),
    "VDMConfig.max_adopt=1.5": (lambda: VDMConfig(max_adopt=1.5), "max_adopt"),
    "VDMConfig.max_adopt=nan": (lambda: VDMConfig(max_adopt=_NAN), "max_adopt"),
    "VDMConfig.max_adopt=True": (lambda: VDMConfig(max_adopt=True), "max_adopt"),
    # a non-empty string turned the feature on
    "VDMConfig.foster_child='no'": (lambda: VDMConfig(foster_child="no"),
                                    "foster_child"),
    "HMTPConfig.foster_child='no'": (lambda: HMTPConfig(foster_child="no"),
                                     "foster_child"),
    "FaultPlan.jitter_ms=inf": (lambda: FaultPlan(jitter_ms=_INF), "jitter_ms"),
    "FaultPlan.detect_delay_s=inf": (lambda: FaultPlan(detect_delay_s=_INF),
                                     "detect_delay_s"),
    "FaultPlan.freeze_duration_s=inf": (
        lambda: FaultPlan(freeze_duration_s=_INF), "freeze_duration_s"),
    "FaultPlan.burst_at_s=inf": (lambda: FaultPlan(burst_at_s=_INF), "burst_at_s"),
    "FaultPlan.seed=1.5": (lambda: FaultPlan(seed=1.5), "seed"),
    "FaultPlan.domain_outage_domain=1.5": (
        lambda: FaultPlan(domain_outage_domain=1.5, domain_outage_at_s=10.0),
        "domain_outage_domain"),
    "UplinkPopulation.max_degree=2.5": (
        lambda: UplinkPopulation(max_degree=2.5), "max_degree"),
    "UplinkPopulation.max_degree=nan": (
        lambda: UplinkPopulation(max_degree=_NAN), "max_degree"),
    "UplinkPopulation.max_degree=True": (
        lambda: UplinkPopulation(max_degree=True), "max_degree"),
    "UplinkPopulation.headroom=nan": (lambda: UplinkPopulation(headroom=_NAN),
                                      "headroom"),
    "UplinkPopulation.headroom=-5": (lambda: UplinkPopulation(headroom=-5),
                                     "headroom"),
    "UplinkPopulation.sigma=inf": (lambda: UplinkPopulation(sigma=_INF), "sigma"),
    "GeoSite.access_ms=nan": (
        lambda: GeoSite("a", "us", 0.0, 0.0, access_ms=_NAN), "access_ms"),
    "GeoSite.access_ms=inf": (
        lambda: GeoSite("a", "us", 0.0, 0.0, access_ms=_INF), "access_ms"),
    "ChurnEvent.time=inf": (lambda: ChurnEvent(_INF, "join", 1), "time"),
    "ChurnEvent.node=1.5": (lambda: ChurnEvent(1.0, "join", 1.5), "node"),
    "ChurnEvent.node=-1": (lambda: ChurnEvent(1.0, "join", -1), "node"),
    # chaos rules that never matched made a chaos test vacuously green
    "REPRO_SERVICE_CHAOS.at_s=NaN": (_service_chaos({"at_s": _NAN}),
                                     r"REPRO_SERVICE_CHAOS\[0\]\.at_s"),
    "REPRO_SERVICE_CHAOS.at_s=Infinity": (_service_chaos({"at_s": _INF}),
                                          r"REPRO_SERVICE_CHAOS\[0\]\.at_s"),
    "REPRO_SERVICE_CHAOS.duration_s=Infinity": (
        _service_chaos({"duration_s": _INF}), r"REPRO_SERVICE_CHAOS\[0\]\.duration_s"),
    # 2.7 truncated to 2; -1 silently picked the last member
    "REPRO_SERVICE_CHAOS.node_index=2.7": (
        _service_chaos({"node_index": 2.7}), r"REPRO_SERVICE_CHAOS\[0\]\.node_index"),
    "REPRO_SERVICE_CHAOS.node_index=-1": (
        _service_chaos({"node_index": -1}), r"REPRO_SERVICE_CHAOS\[0\]\.node_index"),
}


@pytest.mark.parametrize("case", list(SILENT))
def test_formerly_silent_acceptance_is_refused(case):
    build, message = SILENT[case]
    with pytest.raises(ValueError, match=message):
        build()

"""Service-mode cells are *typed* declines, not crashes or silent zeros.

The batched engine refuses service cells explicitly: ``decline_reason``
names why a cell cannot batch, and the scalar path runs instead.
"""

from __future__ import annotations

from repro.core.vdm import VDMConfig
from repro.harness.batchrun import (
    SERVICE,
    BatchDecline,
    CellSpec,
    cell_batch,
    decline_reason,
)
from repro.protocols.table import protocol_spec
from repro.sim.session import SessionConfig

_boom = lambda *a: (_ for _ in ()).throw(AssertionError("factory ran"))


def _spec(protocol, config_factory=_boom) -> CellSpec:
    return CellSpec(
        underlay_factory=_boom,
        config_factory=config_factory,
        protocol=protocol,
        metrics={},
    )


class TestDeclineReason:
    def test_service_cells_decline_with_service_mode_code(self):
        reason = decline_reason(_spec(SERVICE))
        assert isinstance(reason, BatchDecline)
        assert reason.code == "service-mode"
        assert "control plane" in reason.detail

    def test_unknown_protocol_declines(self):
        reason = decline_reason(_spec("narada"))
        assert reason is not None
        assert reason.code == "protocol"

    def test_bad_config_declines(self):
        reason = decline_reason(
            _spec(protocol_spec("vdm", VDMConfig(foster_child=True)))
        )
        assert reason is not None
        assert reason.code == "config"

    def test_vdm_cells_do_not_decline(self):
        plain = lambda seed: SessionConfig(seed=seed)
        assert decline_reason(_spec(protocol_spec("vdm"), plain)) is None
        assert decline_reason(_spec(protocol_spec("vdm", VDMConfig()), plain)) is None


class TestCellBatchHook:
    def test_service_cell_hook_returns_none_without_touching_factories(
        self, monkeypatch
    ):
        """A typed decline means the scalar path runs — and the underlay /
        config factories are never invoked for the refused cell."""
        monkeypatch.delenv("REPRO_BATCHED_REPS", raising=False)
        batch = cell_batch(_spec(SERVICE))
        assert batch([(0, 1234), (1, 5678)]) is None


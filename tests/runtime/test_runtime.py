"""Unit tests for the runtime substrate: cost model, network, engine."""

import pytest

from repro.errors import ProtocolError
from repro.runtime.costmodel import CostModel
from repro.runtime.engine import LocalHost, SyncEngine, TickResult
from repro.runtime.messages import COORDINATOR, DATA_KINDS, Message, MessageKind
from repro.runtime.network import Network


class TestCostModel:
    def test_query_bytes(self):
        cost = CostModel()
        assert cost.query_bytes(5, 10) == 24 + 5 * 16 + 10 * 16

    def test_var_batch_bytes(self):
        cost = CostModel()
        assert cost.var_batch_bytes(3) == 24 + 36

    def test_subgraph_bytes(self):
        cost = CostModel()
        assert cost.subgraph_bytes(10, 20) == 24 + 10 * 12 + 20 * 16

    def test_transfer_seconds(self):
        cost = CostModel(bandwidth_bytes_per_s=1000.0)
        assert cost.transfer_seconds(500) == pytest.approx(0.5)

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().latency_s = 5


class TestMessages:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, MessageKind.VAR_UPDATE, None, -1)

    def test_data_kinds_exclude_bookkeeping(self):
        assert MessageKind.QUERY not in DATA_KINDS
        assert MessageKind.CONTROL not in DATA_KINDS
        assert MessageKind.RESULT not in DATA_KINDS
        assert MessageKind.VAR_UPDATE in DATA_KINDS
        assert MessageKind.SUBGRAPH in DATA_KINDS


class TestNetwork:
    def test_accounting_by_kind(self):
        net = Network(CostModel())
        net.send(Message(0, 1, MessageKind.VAR_UPDATE, None, 100))
        net.send(Message(0, 1, MessageKind.CONTROL, None, 16))
        assert net.data_bytes == 100
        assert sum(net.breakdown().values()) == 116
        assert net.data_message_count == 1
        assert net.breakdown() == {"var_update": 100, "control": 16}

    def test_round_buffering(self):
        net = Network(CostModel())
        net.send(Message(0, 1, MessageKind.VAR_UPDATE, "a", 10))
        assert net.has_pending
        inboxes = net.deliver()
        assert not net.has_pending
        assert [m.payload for m in inboxes[1]] == ["a"]
        assert net.round_bytes == [10]

    def test_round_bytes_exclude_control(self):
        net = Network(CostModel())
        net.send(Message(0, 1, MessageKind.CONTROL, None, 16))
        net.deliver()
        assert net.round_bytes == [0]

    def test_self_addressed_mail_is_delivered_but_not_shipment(self):
        net = Network(CostModel())
        net.send(Message(1, 1, MessageKind.VAR_UPDATE, "note to self", 36))
        assert net.data_bytes == 0 and net.data_message_count == 0
        assert net.breakdown() == {}
        assert [m.payload for m in net.deliver()[1]] == ["note to self"]
        assert net.round_bytes == [0]

    def test_absorb_adds_another_networks_accounting(self):
        net, other = Network(CostModel()), Network(CostModel())
        net.send(Message(0, 1, MessageKind.VAR_UPDATE, None, 100))
        other.send(Message(2, 3, MessageKind.VAR_UPDATE, None, 10))
        other.send(Message(2, 3, MessageKind.CONTROL, None, 16))
        net.absorb(other)
        assert net.data_bytes == 110 and net.data_message_count == 2
        assert net.breakdown() == {"var_update": 110, "control": 16}
        assert sorted(net.deliver()) == [1]  # accounting only: no mail moves


class _EchoProgram:
    """Forwards one token around a ring a fixed number of hops."""

    def __init__(self, fid: int, n: int, hops: int):
        self.fid = fid
        self.n = n
        self.hops = hops

    def _msg(self, hop):
        return Message(
            src=self.fid, dst=(self.fid + 1) % self.n,
            kind=MessageKind.VAR_UPDATE, payload=hop, size_bytes=10,
        )

    def on_start(self):
        if self.fid == 0:
            return TickResult(messages=[self._msg(1)], halted=True)
        return TickResult(messages=[], halted=True)

    def on_tick(self, round_no, inbox):
        out = []
        for message in inbox:
            if message.payload < self.hops:
                out.append(self._msg(message.payload + 1))
        return TickResult(messages=out, halted=True)

    def collect(self):
        return Message(self.fid, COORDINATOR, MessageKind.RESULT, None, 8)


def _engine(programs, cost, **kwargs):
    """Every program on one LocalHost: the in-process call shape."""
    host = LocalHost(programs, Network(cost))
    engine = SyncEngine(dict.fromkeys(programs, host), Network(cost), cost, **kwargs)
    return engine, host


class TestSyncEngine:
    def test_ring_terminates_with_correct_round_count(self):
        programs = {i: _EchoProgram(i, 3, hops=7) for i in range(3)}
        engine, host = _engine(programs, CostModel())
        engine.run_fixpoint()
        # 7 hops -> 7 delivery rounds + the start round
        assert engine.n_rounds == 8
        assert host.network.data_message_count == 7

    def test_collect_results_metered(self):
        programs = {i: _EchoProgram(i, 2, hops=1) for i in range(2)}
        engine, _ = _engine(programs, CostModel())
        engine.run_fixpoint()
        results = engine.collect_results()
        assert len(results) == 2
        assert engine.network.bytes_by_kind[MessageKind.RESULT] == 16

    def test_max_rounds_guard(self):
        programs = {i: _EchoProgram(i, 2, hops=10**9) for i in range(2)}
        engine, _ = _engine(programs, CostModel(), max_rounds=50)
        with pytest.raises(ProtocolError):
            engine.run_fixpoint()

    def test_simulated_pt_includes_link_time(self):
        cost = CostModel(latency_s=0.5, bandwidth_bytes_per_s=1e12)
        programs = {i: _EchoProgram(i, 2, hops=2) for i in range(2)}
        engine, _ = _engine(programs, cost)
        engine.run_fixpoint()
        # 2 delivery rounds at 0.5s latency each
        assert engine.simulated_pt() >= 1.0

    def test_metrics_packaging(self):
        programs = {i: _EchoProgram(i, 2, hops=1) for i in range(2)}
        engine, _ = _engine(programs, CostModel())
        engine.run_fixpoint()
        engine.collect_results()  # folds the host's meter into the engine's
        metrics = engine.metrics("test", wall_seconds=1.0, supersteps=3)
        assert metrics.algorithm == "test"
        assert metrics.n_messages == 1
        assert metrics.n_rounds == 2
        assert len(metrics.per_round_compute) == 2
        assert metrics.extras == {"supersteps": 3}
        assert metrics.ds_kb == pytest.approx(metrics.ds_bytes / 1024)
        assert "test" in metrics.describe()

    def test_one_site_per_host_meters_the_same_run(self):
        """The other extreme placement: every hop crosses hosts, so the
        engine's own network carries (and meters) all of it."""
        cost = CostModel()
        hosts = {
            i: LocalHost({i: _EchoProgram(i, 3, hops=7)}, Network(cost))
            for i in range(3)
        }
        engine = SyncEngine(hosts, Network(cost), cost)
        engine.run_fixpoint()
        engine.collect_results()
        assert engine.n_rounds == 8
        assert engine.network.data_message_count == 7
        assert engine.colocated_ds_bytes == 0

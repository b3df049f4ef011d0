"""Schedule independence: dGPM's fixpoint under adversarial asynchrony.

The paper's dGPM is asynchronous ("all sites conduct these in parallel and
asynchronously", Section 4.1); its correctness argument is that the
falsification fixpoint does not depend on message timing.  These tests make
that argument executable: the network releases only a random fraction of
queued messages per round, and the answer must match the synchronous run
and the centralized oracle for every schedule.
"""

from itertools import accumulate

import pytest

from repro import partition, web_graph
from repro.core import DgpmConfig, run_dgpm
from repro.core.dgpm import DGPM
from repro.core.protocol import run_protocol
from repro.graph.examples import example8_graph, figure1, figure1_fragmentation, figure2
from repro.partition import random_partition
from repro.runtime.network import Network
from repro.runtime.costmodel import CostModel
from repro.runtime.messages import DATA_KINDS, Envelope, Message, MessageKind
from repro.simulation import simulation
from tests.conftest import random_instance, web_1k_query


class TestScrambledNetwork:
    def test_holds_back_messages(self):
        net = Network(CostModel(), scramble=(1, 0.5))
        for i in range(20):
            net.send(Message(0, 1, MessageKind.VAR_UPDATE, i, 10))
        delivered = sum(len(v) for v in net.deliver().values())
        assert 0 < delivered < 20
        assert net.has_pending

    def test_everything_eventually_delivered(self):
        net = Network(CostModel(), scramble=(2, 0.3))
        for i in range(30):
            net.send(Message(0, 1, MessageKind.VAR_UPDATE, i, 10))
        got = []
        while net.has_pending:
            for msgs in net.deliver().values():
                got.extend(m.payload for m in msgs)
        assert sorted(got) == list(range(30))

    def test_accounting_unaffected_by_holding(self):
        net = Network(CostModel(), scramble=(3, 0.5))
        for i in range(10):
            net.send(Message(0, 1, MessageKind.VAR_UPDATE, i, 10))
        assert net.data_bytes == 100  # counted at send time

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            Network(CostModel(), scramble=(1, 0.0))
        with pytest.raises(ValueError):
            Network(CostModel(), scramble=(1, 1.5))


def _rows_of(mail):
    """``(src, dst, size, payload, codes)`` per row of a message or envelope."""
    segments = [()] * len(mail.dsts)
    if mail.codes is not None:
        b = mail.bounds
        segments = [tuple(mail.codes[b[i]:b[i + 1]].tolist()) for i in range(len(b) - 1)]
    return list(zip(mail.srcs, mail.dsts, mail.sizes, mail.payloads, segments))


class TestEnvelopesAreMeteredPerRow:
    """An envelope costs exactly the logical messages it carries: the network
    meters, holds back and delivers its rows one by one."""

    @staticmethod
    def _envelope():
        np = pytest.importorskip("numpy")
        srcs = [0, 1, 2, 3, 4, 5, 6, 7, 2]
        dsts = [1, 2, 3, 4, 5, 6, 7, 0, 2]  # the last row: a site's note to itself
        counts = [1, 2, 3, 1, 2, 3, 1, 2, 1]
        sizes = [CostModel().var_batch_bytes(c) for c in counts]
        bounds = [0, *accumulate(counts)]
        return Envelope(
            MessageKind.VAR_UPDATE, srcs, dsts, sizes, list(range(9)),
            np.arange(bounds[-1]) * 7, bounds,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_a_scrambled_envelope_is_held_back_row_by_row(self, seed):
        envelope = self._envelope()
        net = Network(CostModel(), scramble=(seed, 0.5))
        net.send(envelope)
        released = []
        while net.has_pending:
            rows = [row for mails in net.deliver().values() for m in mails for row in _rows_of(m)]
            # a round moves the bytes of the rows it released, notes to self aside
            assert net.round_bytes[-1] == sum(size for src, dst, size, _, _ in rows if src != dst)
            released.append(rows)
        assert 0 < len(released[0]) < 9 and len(released) > 1  # split; the rest later
        assert sorted(row for rows in released for row in rows) == sorted(_rows_of(envelope))

        one_by_one = Network(CostModel())
        for src, dst, size, payload, _ in _rows_of(envelope):
            one_by_one.send(Message(src, dst, MessageKind.VAR_UPDATE, payload, size))
        one_by_one.deliver()
        assert net.count_by_kind == one_by_one.count_by_kind == {MessageKind.VAR_UPDATE: 8}
        assert net.bytes_by_kind == one_by_one.bytes_by_kind
        assert sum(net.round_bytes) == sum(one_by_one.round_bytes) == net.data_bytes

    def test_a_self_addressed_forward_in_an_envelope_is_delivered_not_metered(
        self, monkeypatch
    ):
        """The push rewires a leaf to its own owner; the falsification that
        owner then forwards to itself is a row of the array program's
        VAR_UPDATE envelope: delivered next round, never metered."""
        pytest.importorskip("numpy")
        sent, delivered = [], []
        send, deliver = Network.send, Network.deliver

        def spy_send(network, mail):
            sent.append(mail)
            send(network, mail)

        def spy_deliver(network):
            inboxes = deliver(network)
            delivered.extend(m for mails in inboxes.values() for m in mails)
            return inboxes

        monkeypatch.setattr(Network, "send", spy_send)
        monkeypatch.setattr(Network, "deliver", spy_deliver)
        graph = web_graph(1000, 5000, seed=3)
        result = run_protocol(DGPM, web_1k_query(), partition(graph, 16), DgpmConfig(), "array")

        def notes_to_self(mails):
            return [(m.kind, row) for m in mails for row in _rows_of(m) if row[0] == row[1]]

        notes = notes_to_self(sent)
        assert len(notes) == 6
        assert all(isinstance(m, Envelope) for m in sent)
        assert {kind for kind, _ in notes} == {MessageKind.VAR_UPDATE}
        assert notes_to_self(delivered) == notes
        metered = sum(
            src != dst for m in sent if m.kind in DATA_KINDS for src, dst in zip(m.srcs, m.dsts)
        )
        assert metered == result.metrics.n_messages == 328


class TestScheduleIndependence:
    @pytest.mark.parametrize("seed", range(8))
    def test_example8_cascade_any_schedule(self, seed):
        q, _, _ = figure1()
        g = example8_graph()
        frag = figure1_fragmentation(g)
        oracle = simulation(q, g)
        config = DgpmConfig(scramble=(seed, 0.4))
        assert run_dgpm(q, frag, config).relation == oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_open_chain_any_schedule(self, seed):
        q, g, frag = figure2(12, close_cycle=False)
        oracle = simulation(q, g)
        config = DgpmConfig(scramble=(seed, 0.3))
        result = run_dgpm(q, frag, config)
        assert result.relation == oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_random_schedules(self, seed):
        graph, pattern = random_instance(seed)
        if graph.n_nodes < 3:
            return
        frag = random_partition(graph, 3, seed=seed)
        oracle = simulation(pattern, graph)
        for schedule_seed in (0, 1):
            config = DgpmConfig(scramble=(schedule_seed, 0.4))
            assert run_dgpm(pattern, frag, config).relation == oracle

    @pytest.mark.parametrize("seed", range(6))
    def test_push_safe_under_scrambling(self, seed):
        # the push rewire race is exactly what scrambling provokes
        q, g, frag = figure2(16, close_cycle=False)
        oracle = simulation(q, g)
        config = DgpmConfig(enable_push=True, push_threshold=0.0, scramble=(seed, 0.3))
        assert run_dgpm(q, frag, config).relation == oracle

    def test_ds_identical_across_schedules_without_push(self):
        # falsification-only shipping is deterministic: every schedule
        # ships the same set of (variable, watcher) messages
        q, _, _ = figure1()
        g = example8_graph()
        frag = figure1_fragmentation(g)
        counts = set()
        for seed in range(5):
            config = DgpmConfig(enable_push=False, scramble=(seed, 0.4))
            counts.add(run_dgpm(q, frag, config).metrics.n_messages)
        sync_count = run_dgpm(q, frag, DgpmConfig(enable_push=False)).metrics.n_messages
        assert counts == {sync_count}

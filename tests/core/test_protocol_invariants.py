"""Deeper protocol invariants of dGPM, beyond end-to-end correctness."""

import pytest

from repro.core import DgpmConfig, run_dgpm
from repro.graph.digraph import DiGraph
from repro.graph.examples import figure2
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import fragment_graph
from repro.runtime.messages import MessageKind
from repro.simulation import simulation


class TestChainPropagation:
    """The open Figure-2 chain: one falsification per round, end to end."""

    def test_exactly_one_message_per_hop(self):
        n = 10
        q, g, frag = figure2(n, close_cycle=False)
        result = run_dgpm(q, frag, DgpmConfig(enable_push=False))
        # The falsification travels S_n -> S_1, one A-variable per site;
        # B-variables are local to each site (A_i, B_i colocated).
        assert result.metrics.n_messages == n - 1
        assert result.metrics.n_rounds >= n - 1

    def test_closed_cycle_ships_nothing(self):
        q, g, frag = figure2(10)
        result = run_dgpm(q, frag, DgpmConfig(enable_push=False))
        assert result.metrics.n_messages == 0
        assert result.relation == simulation(q, g)


class TestShipmentDiscipline:
    def test_no_duplicate_variable_per_watcher(self):
        # Inspect raw messages on a dense instance: each (var, dst) at most once.
        from repro.core.depgraph import DependencyGraphs
        from repro.core.dgpm import DgpmSiteProgram
        from repro.runtime.engine import LocalHost, SyncEngine
        from repro.runtime.network import Network

        g = DiGraph({i: "AB"[i % 2] for i in range(12)})
        for i in range(12):
            g.add_edge(i, (i + 1) % 12)
            g.add_edge(i, (i + 5) % 12)
        g.remove_edge(0, 1)
        frag = fragment_graph(g, {i: i % 3 for i in range(12)})
        q = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        config = DgpmConfig(enable_push=False)
        deps = DependencyGraphs(frag)
        network = Network(config.cost)
        programs = {
            f.fid: DgpmSiteProgram(f.fid, frag, q, deps, config) for f in frag
        }
        sent = []
        original_send = network.send

        def spy(message):
            if message.kind == MessageKind.VAR_UPDATE:
                sent.append((tuple(message.payload), message.dst))
            original_send(message)

        network.send = spy  # the host's network: all mail between its sites
        host = LocalHost(programs, network)
        engine = SyncEngine(
            dict.fromkeys(programs, host), Network(config.cost), config.cost
        )
        engine.run_fixpoint()
        assert len(sent) == len(set(sent)), "duplicate (variable, watcher) shipment"

    def test_messages_only_to_genuine_watchers(self):
        from repro.core.depgraph import DependencyGraphs

        q, g, frag = figure2(8, close_cycle=False)
        deps = DependencyGraphs(frag)
        # watcher sets on the chain are single-site
        for frag_i in frag:
            for node in frag_i.in_nodes:
                assert len(deps.watcher_sites(frag_i.fid, node)) == 1


class TestResultCollection:
    def test_boolean_only_payload_is_small(self):
        # two fragments with 12 matches each: the data-selecting payload
        # carries every pair, the Boolean payload one bit per query node
        from repro.graph.examples import figure2_two_site

        q, g, frag = figure2_two_site(12, close_cycle=True)
        full = run_dgpm(q, frag, DgpmConfig(boolean_only=False, enable_push=False))
        boolean = run_dgpm(q, frag, DgpmConfig(boolean_only=True, enable_push=False))
        assert full.is_match and boolean.is_match
        assert (
            boolean.metrics.ds_breakdown["result"]
            < full.metrics.ds_breakdown["result"]
        )

    def test_result_bytes_track_match_count(self):
        q, g, frag = figure2(6)
        small = run_dgpm(q, frag, DgpmConfig(enable_push=False))
        q2, g2, frag2 = figure2(24)
        big = run_dgpm(q2, frag2, DgpmConfig(enable_push=False))
        assert big.metrics.ds_breakdown["result"] > small.metrics.ds_breakdown["result"]

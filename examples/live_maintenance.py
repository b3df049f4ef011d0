#!/usr/bin/env python
"""Live maintenance: keeping Q(G) fresh while the social graph churns.

Social graphs change constantly; re-running the full distributed evaluation
per update wastes exactly the work the paper's incremental lEval (Section
4.2, built on the authors' incremental-matching work [13]) avoids.  This
script keeps one :class:`IncrementalMatchState` warm over the Figure-1
network, patches the fragmentation update by update, hands each delta to
``state.apply``, and shows the :class:`RepairCost` that comes back: an
irrelevant unfollow costs nothing; cutting a trust edge on the
recommendation cycle triggers the full cascade -- and both leave the answer
equal to a from-scratch oracle.

It finishes by validating the runtime substrate itself: the same dGPM run
with every fragment in its own OS process (``backend="sharded"``, one
fragment per worker) produces the metered simulator's exact message count,
DS bytes and round count.

Run:  python examples/live_maintenance.py
"""

from repro import ConcurrentSessionServer, DgpmConfig, run_dgpm, simulation
from repro.core import IncrementalMatchState
from repro.core.depgraph import DependencyGraphs
from repro.graph.examples import figure1


def main() -> None:
    query, graph, fragmentation = figure1()
    deps = DependencyGraphs(fragmentation)
    state = IncrementalMatchState(query, fragmentation, deps)

    def update(patch, u, v):
        """Patch the fragmentation (and, through it, ``graph``) in place,
        patch the watcher tables, repair; the answer stays oracle-exact."""
        delta = patch(u, v)
        deps.apply_delta(delta)
        cost = state.apply(delta)
        assert state.relation() == simulation(query, graph)
        return cost

    print("initial audience:", {u: sorted(state.relation().matches_of(u))
                                for u in ("YB", "F")})

    print("\n--- update 1: yb1 unfollows f1 (no surviving match involved) ---")
    cost = update(fragmentation.delete_edge, "yb1", "f1")
    print(f"  shipped {cost.n_messages} messages, {cost.ds_bytes} bytes,"
          f" {cost.n_falsified} local falsifications")

    print("\n--- update 2: sp1 stops trusting f2 (cuts the cycle) ---")
    cost = update(fragmentation.delete_edge, "f2", "sp1")
    print(f"  shipped {cost.n_messages} messages, {cost.ds_bytes} bytes,"
          f" {cost.n_rounds} rounds of cascade")
    print(f"  anyone left to advertise to? {state.relation().is_match}")

    print("\n--- update 3: the trust edge comes back ---")
    cost = update(fragmentation.insert_edge, "f2", "sp1")
    print(f"  {cost.strategy}: insertions revive matches -- here the whole cycle,"
          f" most of this small graph, so the state is rebuilt"
          f" ({cost.n_rounds} rounds); a revival of a few pairs re-opens"
          f" only those")
    print("  audience restored:", sorted(state.relation().matches_of("YB")))

    print("\n--- substrate validation: simulator vs real OS processes ---")
    config = DgpmConfig(enable_push=False)
    simulated = run_dgpm(query, fragmentation, config)
    with ConcurrentSessionServer(
        fragmentation,
        backend="sharded",
        n_workers=fragmentation.n_fragments,
        config=config,
    ) as server:
        real = server.run(query, algorithm="dgpm")
    assert simulated.relation == real.relation
    for field in ("n_messages", "ds_bytes", "n_rounds"):
        assert getattr(simulated.metrics, field) == getattr(real.metrics, field)
    print(f"  identical answers; identical accounting"
          f" ({simulated.metrics.n_messages} messages,"
          f" {simulated.metrics.ds_bytes} B, {simulated.metrics.n_rounds} rounds)")


if __name__ == "__main__":
    main()

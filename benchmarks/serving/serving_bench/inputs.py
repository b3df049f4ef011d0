"""Every generated input of the benchmark: patterns, schedules, mutations.

Nothing here comes from ``repro.bench``: the load must not change when that
package is reorganised.  The only ``repro`` names used are ``Pattern``,
``simulation`` and the mutation op classes; the data graph is whatever
``web_graph`` returned, read through its public accessors.

Patterns are kept as :class:`Shape` (labels by node index, edges by index
pair) so that a request can be an isomorphic *renaming* with fresh node
names, replies can be mapped back, and the whole input can be hashed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import Pattern, simulation
from repro.net import DeleteEdge, InsertEdge

Edge = Tuple[int, int]
#: an oracle answer by node index: matches of node ``i`` at position ``i``
Answer = Tuple[FrozenSet, ...]


@dataclass(frozen=True)
class Shape:
    """A pattern without node names."""

    labels: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    def names(self, tag: str = "q") -> List[str]:
        """Readable node names for index 0..n-1."""
        return [f"{tag}{k}" for k in range(len(self.labels))]

    def pattern(self, names: Optional[Sequence[str]] = None) -> Pattern:
        names = self.names() if names is None else names
        return Pattern(
            {names[i]: label for i, label in enumerate(self.labels)},
            [(names[u], names[v]) for u, v in self.edges],
        )

    def signature(self) -> Tuple:
        """Equal for two shapes iff they are isomorphic (labels respected).

        Patterns have at most six nodes, so the minimum over all node
        permutations is cheap and needs no refinement heuristics.
        """
        n = len(self.labels)
        best = None
        for perm in itertools.permutations(range(n)):
            labels = tuple(self.labels[i] for i in perm)
            where = {old: new for new, old in enumerate(perm)}
            edges = tuple(sorted((where[u], where[v]) for u, v in self.edges))
            cand = (labels, edges)
            if best is None or cand < best:
                best = cand
        return best


def answer_of(shape: Shape, graph) -> Answer:
    """The centralized oracle's answer for ``shape`` on ``graph``."""
    names = shape.names()
    matches = simulation(shape.pattern(names), graph).as_dict()
    return tuple(frozenset(matches[name]) for name in names)


def answer_from_reply(relation, names: Sequence[str]) -> Answer:
    """A reply's relation, mapped back from request names to node indexes."""
    matches = relation.as_dict()
    return tuple(frozenset(matches.get(name, ())) for name in names)


# ----------------------------------------------------------------------
# pattern pool
# ----------------------------------------------------------------------
def _walk_cycle(graph, rng: random.Random, start, max_len: int) -> Optional[List]:
    seen = {start: 0}
    walk = [start]
    cur = start
    for _ in range(3 * max_len):
        succ = sorted(graph.successors(cur))
        if not succ:
            return None
        cur = succ[rng.randrange(len(succ))]
        if cur in seen:
            cycle = walk[seen[cur]:]
            return cycle if 2 <= len(cycle) <= max_len else None
        seen[cur] = len(walk)
        walk.append(cur)
    return None


def sample_shape(graph, rng: random.Random, n_nodes: int, nodes: Sequence) -> Optional[Shape]:
    """A cyclic pattern cut out of ``graph``: the copied labels make the
    identity a witness, so the pattern is guaranteed to match."""
    for _ in range(400):
        cycle = _walk_cycle(graph, rng, nodes[rng.randrange(len(nodes))], n_nodes)
        if cycle is None:
            continue
        chosen = list(cycle)
        while len(chosen) < n_nodes:
            inside = set(chosen)
            frontier = sorted(
                {s for c in chosen for s in graph.successors(c)} - inside
            )
            if not frontier:
                break
            chosen.append(frontier[rng.randrange(len(frontier))])
        index = {v: i for i, v in enumerate(chosen)}
        edges = sorted(
            (index[u], index[v])
            for u in chosen
            for v in graph.successors(u)
            if v in index
        )
        return Shape(tuple(graph.label(v) for v in chosen), tuple(edges))
    return None


#: a pattern's candidate volume -- the label frequencies of its nodes, summed
#: -- may not exceed this share of |V|
MAX_CANDIDATE_SHARE = 0.7


def build_pool(graph, size: int, seed: int, min_nodes: int = 3, max_nodes: int = 5) -> List[Shape]:
    """``size`` pairwise non-isomorphic, selective, matching patterns.

    Structurally identical samples are dropped: two isomorphic pool entries
    would share one result-cache slot and quietly shrink the working set.
    Patterns built mostly from the one or two dominant labels are dropped
    too: like the paper's ``domain = '.uk'`` conditions the pool is
    selective, which also keeps a handful of 10x-cost patterns from owning
    every tail percentile.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    frequency: Dict[str, float] = {}
    for node in nodes:
        label = graph.label(node)
        frequency[label] = frequency.get(label, 0.0) + 1.0 / len(nodes)
    pool: List[Shape] = []
    seen = set()
    for _ in range(200 * size):
        if len(pool) == size:
            return pool
        shape = sample_shape(graph, rng, rng.randint(min_nodes, max_nodes), nodes)
        if shape is None:
            continue
        if sum(frequency[label] for label in shape.labels) > MAX_CANDIDATE_SHARE:
            continue
        sig = shape.signature()
        if sig not in seen:
            seen.add(sig)
            pool.append(shape)
    raise RuntimeError(f"could only sample {len(pool)} of {size} distinct patterns")


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def exact_mix(rng: random.Random, weights: Sequence[float], count: int) -> List[int]:
    """``count`` item indexes in seeded order whose mix follows ``weights``
    exactly (largest-remainder rounding), not merely in expectation.

    Drawing each request independently would let the share of the few
    expensive patterns wander from seed to seed and move the tail latency
    with it; here the seed decides the order, never the mix.
    """
    total = float(sum(weights))
    exact = [w / total * count for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    picks = [i for i, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(picks)
    return picks


def zipf_weights(n_items: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n_items)]


def jittered_schedule(rng: random.Random, rate: float, seconds: float, jitter: float) -> List[float]:
    """Due offsets: one arrival per ``1/rate`` slot, at a seeded point in
    the middle ``jitter`` share of its slot.  Fixed before the run starts,
    so a slow server cannot slow the offered load down.

    Full-slot jitter lets two arrivals land back to back; how many do is a
    coin toss per run, and with ~200 samples those few queueing collisions
    *are* the p95.  Keeping arrivals to the middle of their slots makes the
    tail measure the server's slow requests instead of the schedule's luck.
    """
    count = int(rate * seconds)
    return [(i + 0.5 + (rng.random() - 0.5) * jitter) / rate for i in range(count)]


@dataclass(frozen=True)
class ReadOp:
    """One ``run`` request: pool entry ``pool_index`` under fresh names."""

    pool_index: int
    names: Tuple[int, ...]

    kind = "query"

    def key(self) -> Tuple:
        return ("query", self.pool_index, self.names)


@dataclass(frozen=True)
class WriteOp:
    """One ``apply`` batch."""

    ops: Tuple

    kind = "mutate"

    def key(self) -> Tuple:
        return ("mutate",) + tuple((type(op).__name__, op.u, op.v) for op in self.ops)


#: request ``serial`` names its pattern nodes FIRST_NAME + 8 * serial + index
FIRST_NAME = 1_000_000


def read_op(pool: Sequence[Shape], pool_index: int, serial: int) -> ReadOp:
    """Pool entry ``pool_index`` under node names no request used before.

    The names are integers in node-index order.  String names, or a seeded
    shuffle of the numbering, change the order in which the server's sets
    of query nodes iterate, and with it the work of one and the same
    pattern by several percent -- a coin toss per request that the few
    hundred requests of a run do not average out.
    """
    first = FIRST_NAME + 8 * serial
    return ReadOp(pool_index, tuple(range(first, first + len(pool[pool_index].labels))))


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------
def critical_edges(shape: Shape, answer: Answer, graph) -> List[Edge]:
    """Data edges whose deletion must change ``shape``'s answer.

    ``(u, v)`` is critical when, for some pattern edge ``(a, b)``, ``u``
    matches ``a`` and ``v`` is ``u``'s *only* successor matching ``b``:
    without the edge ``u`` stops matching ``a``.
    """
    found = set()
    for a, b in shape.edges:
        targets = answer[b]
        for u in answer[a]:
            witnesses = [v for v in graph.successors(u) if v in targets]
            if len(witnesses) == 1:
                found.add((u, witnesses[0]))
    return sorted(found)


def _cycle_batches(edges: Sequence[Edge]) -> List[WriteOp]:
    """Delete every edge, one single-op batch each, then re-insert them in
    the same order: a deleted edge returns ``len(edges)`` batches later and
    the graph ends the cycle as it began."""
    return [
        WriteOp((op(*edge),)) for op in (DeleteEdge, InsertEdge) for edge in edges
    ]


def plain_cycles(graph, rng: random.Random, n_cycles: int, width: int) -> List[List[WriteOp]]:
    """Mutation cycles over random edges."""
    edges = sorted(graph.edges())
    return [_cycle_batches(rng.sample(edges, width)) for _ in range(n_cycles)]


def critical_cycles(
    graph,
    subs: Sequence[Shape],
    rng: random.Random,
    n_cycles: int,
) -> List[List[WriteOp]]:
    """Mutation cycles in which every batch changes a subscribed answer.

    Batch ``k`` of a cycle deletes (later re-inserts) an edge critical for
    subscription ``k``.  Criticality is computed on
    the unmodified graph, but by the time batch ``k`` runs, batches
    ``0..k-1`` have already removed edges, so each candidate cycle is
    replayed against the oracle on a copy and kept only if every one of its
    batches really changes its subscription's answer.
    """
    candidates = []
    for shape in subs:
        found = critical_edges(shape, answer_of(shape, graph), graph)
        if not found:
            raise RuntimeError("a subscribed pattern has no critical witness edge")
        candidates.append(found)
    cycles: List[List[WriteOp]] = []
    for _ in range(50 * n_cycles):
        if len(cycles) == n_cycles:
            return cycles
        crit = [found[rng.randrange(len(found))] for found in candidates]
        if len(set(crit)) < len(subs):
            continue
        batches = _cycle_batches(crit)
        if _every_batch_changes(graph, subs, batches):
            cycles.append(batches)
    raise RuntimeError(f"found only {len(cycles)} of {n_cycles} valid mutation cycles")


def apply_to_graph(graph, ops: Iterable) -> None:
    """Replay edge ops on a plain graph (the oracle's copy)."""
    for op in ops:
        if isinstance(op, DeleteEdge):
            graph.remove_edge(op.u, op.v)
        elif isinstance(op, InsertEdge):
            graph.add_edge(op.u, op.v)
        else:
            raise TypeError(f"the harness generates edge ops only, not {op!r}")


def _every_batch_changes(graph, subs: Sequence[Shape], batches: Sequence[WriteOp]) -> bool:
    work = graph.copy()
    for k, batch in enumerate(batches):
        shape = subs[k % len(subs)]
        before = answer_of(shape, work)
        apply_to_graph(work, batch.ops)
        if answer_of(shape, work) == before:
            return False
    return True


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------
def _feed(h, *parts) -> None:
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")


def dataset_digest(graph, pools: Dict[str, Sequence[Shape]], batches: Sequence[WriteOp] = ()) -> str:
    """sha256 over the graph, every pattern pool and the mutation cycles
    (everything that does not depend on the seed)."""
    h = hashlib.sha256()
    for node in sorted(graph.nodes()):
        _feed(h, node, graph.label(node))
    for edge in sorted(graph.edges()):
        _feed(h, edge)
    for name in sorted(pools):
        _feed(h, name)
        for shape in pools[name]:
            _feed(h, shape.labels, shape.edges)
    for batch in batches:
        _feed(h, batch.key())
    return h.hexdigest()


def ops_digest(dataset: str, streams: Dict[str, Sequence]) -> str:
    """sha256 over the dataset digest and every seeded op stream."""
    h = hashlib.sha256()
    _feed(h, dataset)
    for name in sorted(streams):
        _feed(h, name)
        for item in streams[name]:
            _feed(h, item.key() if hasattr(item, "key") else item)
    return h.hexdigest()

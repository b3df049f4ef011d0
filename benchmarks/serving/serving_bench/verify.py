"""Off-the-clock correctness checks against the centralized oracle.

Read-only workloads: every reply is mapped back from its request's fresh
node names and compared with ``simulation(pattern, graph)``.

Mutating workloads: the mutate replies give every op its stamp; the ops are
replayed in stamp order on a copy of the graph, and at a checkpoint in every
decade of stamps (and at the last stamp) each subscription's folded view --
its baseline plus every PUSH up to that stamp -- and every read stamped
there must equal the oracle on the replayed graph.  A checkpoint is always a
stamp some reply or PUSH carried, that is, a state the server really
exposed: a stamp swallowed inside a coalesced write batch was never visible
and has no answer to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from serving_bench import inputs
from serving_bench.loadgen import OpRecord


@dataclass
class Push:
    stamp: int
    added: Tuple
    removed: Tuple
    arrival: float
    lapsed: bool = False


@dataclass
class SubLog:
    """What one standing subscription received."""

    shape: inputs.Shape
    names: List[str]
    baseline: Dict[str, Set]
    baseline_stamp: int
    pushes: List[Push] = field(default_factory=list)

    def view_at(self, stamp: int) -> inputs.Answer:
        view = {name: set(self.baseline.get(name, ())) for name in self.names}
        for push in self.pushes:
            if push.stamp > stamp or push.lapsed:
                continue
            for q, v in push.removed:
                view[q].discard(v)
            for q, v in push.added:
                view[q].add(v)
        return tuple(frozenset(view[name]) for name in self.names)


@dataclass
class Verdict:
    checked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def mismatches(self) -> int:
        return len(self.problems)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.problems.append(what)


def verify_reads(graph, pool: Sequence[inputs.Shape], records: Sequence[OpRecord]) -> Verdict:
    verdict = Verdict()
    oracle: Dict[int, inputs.Answer] = {}
    for record in records:
        if record.error is not None or record.op.kind != "query":
            continue
        index = record.op.pool_index
        if index not in oracle:
            oracle[index] = inputs.answer_of(pool[index], graph)
        got = inputs.answer_from_reply(record.reply.relation, record.op.names)
        verdict.expect(got == oracle[index], f"pattern {index}: reply differs from oracle")
    return verdict


def verify_mutating(
    graph,
    pool: Sequence[inputs.Shape],
    records: Sequence[OpRecord],
    subs: Sequence[SubLog],
    final_stamp: int,
) -> Verdict:
    verdict = Verdict()
    by_stamp: Dict[int, object] = {}
    for record in records:
        if record.op.kind != "mutate" or record.error is not None:
            continue
        for op, outcome in zip(record.op.ops, record.reply):
            by_stamp[outcome.stamp] = op
    last = max(by_stamp, default=0)
    verdict.expect(last == final_stamp, f"server ended at stamp {final_stamp}, replies reach {last}")
    missing = [s for s in range(1, last + 1) if s not in by_stamp]
    verdict.expect(not missing, f"{len(missing)} stamps have no acknowledged op; replay impossible")
    if missing:
        return verdict

    reads_at: Dict[int, List[OpRecord]] = {}
    for record in records:
        if record.op.kind == "query" and record.error is None:
            reads_at.setdefault(record.reply.stamp, []).append(record)
    exposed = set(reads_at) | {p.stamp for sub in subs for p in sub.pushes} | {0, last}
    checkpoints = {last}
    for stamp in sorted(exposed):
        if not any(c // 10 == stamp // 10 for c in checkpoints if c != last):
            checkpoints.add(stamp)

    for sub in subs:
        verdict.expect(
            not any(p.lapsed for p in sub.pushes), "a subscription lapsed"
        )
        stamps = [p.stamp for p in sub.pushes]
        verdict.expect(stamps == sorted(stamps), "PUSH stamps out of order")

    work = graph.copy()
    for stamp in range(0, last + 1):
        if stamp:
            inputs.apply_to_graph(work, [by_stamp[stamp]])
        if stamp not in checkpoints:
            continue
        for k, sub in enumerate(subs):
            if stamp < sub.baseline_stamp:
                continue
            verdict.expect(
                sub.view_at(stamp) == inputs.answer_of(sub.shape, work),
                f"subscription {k}: folded view differs from oracle at stamp {stamp}",
            )
        oracle: Dict[int, inputs.Answer] = {}
        for record in reads_at.get(stamp, ()):
            index = record.op.pool_index
            if index not in oracle:
                oracle[index] = inputs.answer_of(pool[index], work)
            got = inputs.answer_from_reply(record.reply.relation, record.op.names)
            verdict.expect(
                got == oracle[index],
                f"pattern {index}: read differs from oracle at stamp {stamp}",
            )
    return verdict

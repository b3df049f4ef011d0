"""The mixed query stream the engine benchmark serves (tiny sizes).

The timing gate itself lives in ``benchmarks/bench_engines.py``.
"""

from __future__ import annotations

from repro import web_graph
from repro.bench.engines import mixed_query_stream


def test_mixed_stream_shape_and_freshness():
    graph = web_graph(200, 900, n_labels=6, seed=1)
    stream = mixed_query_stream(graph, n_distinct=3, repeat=2, seed=1)
    assert len(stream) == 6
    # Repeats are fresh objects (cache hits must come from canonical hashing).
    assert stream[0] is not stream[3]
    assert stream[0] == stream[3]

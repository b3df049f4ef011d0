"""The server under test, as its own process (own GIL, own RSS).

Started by :mod:`serving_bench.sut` with one JSON argument.  Builds the
instance the way the README shows -- ``web_graph`` -> ``partition`` ->
``ConcurrentSessionServer`` -> ``serve_in_thread`` -- leaving every default
alone, prints one JSON line with the bound port and its own phase timings,
then serves until stdin closes.
"""

from __future__ import annotations

import json
import sys
import time


def build_server(args: dict):
    """(server, timings) for ``args``; also used in-process by the ladder."""
    from repro import ConcurrentSessionServer, partition, web_graph

    timings = {}
    start = time.perf_counter()
    graph = web_graph(args["nodes"], args["edges"], seed=args["graph_seed"])
    timings["gen_s"] = time.perf_counter() - start

    start = time.perf_counter()
    fragmentation = partition(graph, 16, args["graph_seed"], vf_ratio=0.25)
    timings["partition_s"] = time.perf_counter() - start

    start = time.perf_counter()
    kwargs = dict(args.get("session_kwargs", {}))
    if args["engine"] != "dict":
        kwargs["engine"] = args["engine"]
    server = ConcurrentSessionServer(
        fragmentation, backend=args["backend"], n_workers=2, **kwargs
    )
    server.session.warm()
    timings["start_s"] = time.perf_counter() - start
    return server, timings


def main() -> int:
    from repro.net import serve_in_thread

    args = json.loads(sys.argv[1])
    server, timings = build_server(args)
    try:
        with serve_in_thread(server) as ingress:
            host, port = ingress.address
            print(json.dumps({"host": host, "port": port, **timings}), flush=True)
            sys.stdin.read()  # the launcher closes stdin to stop us
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

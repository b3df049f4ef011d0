"""Array engine vs dict engine: the columnar-evaluation perf gate.

The array engine (``engine="array"``) recompiles each fragment into CSR
arrays and replaces the dict engine's per-pair Python loops with numpy
kernels.  Its advantage *grows with scale* (numpy call overhead amortizes
over wider fragments), so -- unlike the other smokes, which shrink sizes --
the gate here runs at web-graph scale: at 96k nodes / 480k edges / |F|=16
the array engine must serve the mixed query stream at >= 5x the dict
engine's q/s, with every answer identical.

Run ``python benchmarks/bench_engines.py [--smoke] [--out FILE]``; CI runs
``--smoke``, which keeps the gate-scale graph but trims repeats so the step stays in tens
of seconds.  Without it the whole size sweep (small to large) is measured:
parity and the compile-cost check everywhere, the gate at the large end;
``--out BENCH_ENGINES.json`` is how the committed record is written.
"""

from repro.bench.engines import (
    DEFAULT_SIZES,
    GATE_EDGES,
    GATE_NODES,
    GATE_SPEEDUP,
    engine_series,
)
from repro.bench.smoke import write_record


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="gate point only, fewer repeats"
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--out", metavar="FILE", help="write the record (BENCH_ENGINES.json) here"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # The gate needs scale, so smoke keeps the full-size graph and
        # saves time on repeats instead.
        sizes = [(GATE_NODES, GATE_EDGES)]
        repeat = 2
    else:
        sizes = list(DEFAULT_SIZES)
        repeat = args.repeat

    series = engine_series(sizes=sizes, repeat=repeat)
    print(series.render())

    failures = []
    if not all(p.parity for p in series.points):
        failures.append("engine answers diverged")
    for p in series.points:
        # Compiling all |F| fragments must cost less than a handful of dict
        # queries -- otherwise the engine could never win on short streams.
        if p.compile_seconds >= 5.0 / max(p.dict_qps, 1e-9):
            failures.append(
                f"compiling at {p.n_nodes} nodes costs {p.compile_seconds:.3f}s, "
                f"over 5 dict queries ({p.dict_qps:.2f} q/s)"
            )
    gate = max(series.points, key=lambda p: p.n_nodes)
    if gate.n_nodes >= GATE_NODES and gate.speedup < GATE_SPEEDUP:
        failures.append(
            f"array speedup at {gate.n_nodes} nodes is {gate.speedup:.2f}x "
            f"(< {GATE_SPEEDUP}x)"
        )
    if args.out:
        write_record(
            args.out,
            "engines",
            {
                "smoke": args.smoke,
                "ok": not failures,
                "threshold": GATE_SPEEDUP,
                "points": [
                    {
                        "n_nodes": p.n_nodes,
                        "n_edges": p.n_edges,
                        "n_fragments": p.n_fragments,
                        "n_queries": p.n_queries,
                        "dict_qps": p.dict_qps,
                        "array_qps": p.array_qps,
                        "speedup": p.speedup,
                        "compile_seconds": p.compile_seconds,
                        "compilations": p.compilations,
                        "parity": p.parity,
                    }
                    for p in series.points
                ],
            },
        )
    if failures:
        print("FAIL:", "; ".join(failures))
        return 1
    print(
        f"ok: array engine {gate.speedup:.2f}x over dict at "
        f"{gate.n_nodes} nodes, answers identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``BENCH_PAPER.json``: the paper's own axes, committed and re-derived.

Rounds, messages and DS by kind are exact integers of the protocol, so the
record is compared for *equality*: a pinned subset is re-derived here (CI
re-derives all of it with ``python -m repro.bench --all --check``), and the
paper's qualitative claims are asserted on the committed file.  A change
that legitimately moves a count regenerates the file
(``python -m repro.bench --all --out BENCH_PAPER.json``) and its diff is the
review record.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench.harness import drift

RECORD = Path(__file__).resolve().parents[2] / "BENCH_PAPER.json"

GENERAL = ("6ab", "6cd", "6ef", "6mn")  # dGPM and rivals on cyclic queries
DAG = ("6gh", "6ij", "6kl")  # dGPMd and rivals on the citation DAG


@pytest.fixture(scope="module")
def record():
    document = json.loads(RECORD.read_text())
    assert document["scale"] == 1.0
    return document["experiments"]


def total(point, algorithm, counter="ds_bytes"):
    """``counter`` summed over the point's queries."""
    return sum(run[counter] for run in point["algorithms"][algorithm])


def runs(record, ids, algorithm):
    """Every ``(point, query shape, run)`` of ``algorithm`` in the experiments."""
    return [
        (point, query, run)
        for key in ids
        for point in record[key]["points"]
        for query, run in zip(point["queries"], point["algorithms"].get(algorithm, []))
    ]


@pytest.mark.parametrize(
    "key, derive",
    [
        ("table1", figures.table1_bounds),  # Figure 5 is its last row
        ("thm1-rounds", figures.theorem1_rounds),
        ("thm1-shipment", figures.theorem1_shipment),
        ("ablation", figures.ablation_optimizations),
        ("6gh", lambda: figures.fig6_gh_vary_diameter(diameters=(2, 8))),
        ("6ab", lambda: figures.fig6_ab_vary_fragments(fragments=(4,))),
    ],
)
def test_rederived_counters_equal_the_committed_record(record, key, derive):
    series = dataclasses.asdict(derive())
    committed = {point["x"]: point for point in record[key]["points"]}
    assert series["points"]
    for point in series["points"]:
        assert drift(committed[point["x"]], point) == [], f"{key} at x={point['x']}"


def test_figure5_is_12_messages_against_6(record):
    fig5 = record["table1"]["points"][-1]
    assert fig5["x"] == "Figure 5"
    assert total(fig5, "no-push", "messages") == 12
    assert total(fig5, "dGPMd", "messages") == 6


def test_dgpm_data_messages_stay_within_ef_times_vq(record):
    """Theorem 2's DS bound, O(|Ef||Vq|), as a count of data messages."""
    checked = runs(record, GENERAL + ("6op", "ablation", "table1"), "dGPM")
    assert len(checked) > 50
    for point, query, run in checked:
        assert run["messages"] <= point["instance"]["crossing_edges"] * query["n_nodes"]


def test_dgpmd_finishes_within_d_plus_one_rounds_and_tracks_d(record):
    for _, query, run in runs(record, DAG + ("table1",), "dGPMd"):
        assert run["rounds"] <= query["diameter"] + 1
    by_d = [total(point, "dGPMd", "rounds") for point in record["6gh"]["points"]]
    assert by_d == sorted(set(by_d))  # strictly growing with d


def test_dgpmt_ships_one_vector_per_fragment_in_three_rounds(record):
    """Corollary 4: DS is O(|Q||F|) -- about linear in |F|, tiny in absolute
    terms -- and the two coordinator round trips never exceed 3 rounds."""
    points = record["trees"]["points"] + [record["table1"]["points"][2]]
    for point in points:
        for run in point["algorithms"]["dGPMt"]:
            assert run["rounds"] <= 3
            assert run["ds_bytes"] < 16 * 1024
    first, last = record["trees"]["points"][0], record["trees"]["points"][-1]
    assert (first["x"], last["x"]) == (4, 20)
    assert total(last, "dGPMt") <= 2 * (20 / 4) * total(first, "dGPMt")


def test_theorem1_family_1_rounds_grow_linearly_at_constant_fm(record):
    for point in record["thm1-rounds"]["points"]:
        n = point["x"]
        assert point["instance"]["n_fragments"] == n
        assert point["instance"]["largest_fragment"] == 4
        assert total(point, "dGPM", "rounds") == n // 2 + 2


def test_theorem1_family_2_shipment_grows_linearly_at_two_fragments(record):
    """By kind: at n = 4 push fires and total DS (588 B) exceeds n = 8's."""
    for point in record["thm1-shipment"]["points"]:
        n = point["x"]
        assert point["instance"]["n_fragments"] == 2
        (run,) = point["algorithms"]["dGPM"]
        assert run["ds_breakdown"]["var_update"] == 72 * n - 36


def test_dgpm_ships_less_than_every_rival(record):
    for key in GENERAL:
        for point in record[key]["points"]:
            rivals = set(point["algorithms"]) - {"dGPM", "dGPMNOpt"}
            assert rivals >= {"disHHK", "dMes"}
            for rival in rivals:
                assert total(point, "dGPM") < total(point, rival), (key, point["x"], rival)
    assert all("Match" not in p["algorithms"] for p in record["6mn"]["points"])


def test_dgpmd_ships_less_than_dishhk_and_dmes(record):
    for key in DAG:
        for point in record[key]["points"]:
            for rival in ("disHHK", "dMes"):
                assert total(point, "dGPMd") < total(point, rival), (key, point["x"], rival)


def test_dgpm_shipment_follows_the_partition_not_the_graph(record):
    """Fig 6(f) and 6(p): a worse cut ships more; growing |G| fourfold at a
    fixed boundary keeps dGPM within 3x while disHHK more than doubles."""
    by_vf = [total(point, "dGPM") for point in record["6ef"]["points"]]
    assert by_vf == sorted(set(by_vf))
    by_size = record["6op"]["points"]
    dgpm = [total(point, "dGPM") for point in by_size]
    assert max(dgpm) <= 3 * min(dgpm)
    assert total(by_size[-1], "disHHK") > 2 * total(by_size[0], "disHHK")


def test_push_trades_shipment_for_rounds(record):
    (point,) = record["ablation"]["points"]
    assert total(point, "dGPM", "rounds") < total(point, "no-push", "rounds")
    assert total(point, "dGPM") > total(point, "no-push")

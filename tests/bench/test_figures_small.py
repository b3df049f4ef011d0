"""Tiny-scale integration tests of the figure/experiment definitions.

Each Figure-6 definition is executed at a fraction of the default scale with
narrowed sweeps, checking that the plumbing works (series shape, algorithms
present, verification against the oracle inside run_sweep) without paying
benchmark-scale runtimes.  The full-scale counters are held by
``test_paper_record.py``.
"""

from repro.bench import figures

SCALE = 0.12


def _algorithms(series):
    return {alg for point in series.points for alg in point.algorithms}


class TestExp1Definitions:
    def test_fig6_ab(self):
        series = figures.fig6_ab_vary_fragments(SCALE, fragments=(4, 8))
        assert [p.x for p in series.points] == [4, 8]
        assert [p.instance["n_fragments"] for p in series.points] == [4, 8]
        assert _algorithms(series) == {"dGPM", "disHHK", "dGPMNOpt", "dMes", "Match"}
        assert all(len(p.queries) == figures.N_QUERY_SEEDS for p in series.points)

    def test_fig6_cd(self):
        series = figures.fig6_cd_vary_query(SCALE, shapes=((4, 8), (5, 10)))
        assert len(series.points) == 2
        assert all(
            run["ds_bytes"] > 0 for p in series.points for run in p.algorithms["Match"]
        )

    def test_fig6_ef(self):
        series = figures.fig6_ef_vary_vf(SCALE, ratios=(0.25, 0.40))
        assert [p.x for p in series.points] == ["0.25", "0.40"]


class TestExp2Definitions:
    def test_fig6_gh(self):
        series = figures.fig6_gh_vary_diameter(SCALE, diameters=(2, 3))
        assert _algorithms(series) == {"dGPMd", "disHHK", "dMes", "Match"}
        assert [[q["diameter"] for q in p.queries] for p in series.points] == [[2, 2], [3, 3]]

    def test_fig6_ij(self):
        series = figures.fig6_ij_vary_fragments_dag(SCALE, fragments=(4, 8))
        assert len(series.points) == 2

    def test_fig6_kl(self):
        series = figures.fig6_kl_vary_vf_dag(SCALE, ratios=(0.25, 0.40))
        assert all("dGPMd" in p.algorithms for p in series.points)


class TestExp3Definitions:
    def test_fig6_mn(self):
        series = figures.fig6_mn_synthetic_fragments(SCALE, fragments=(4, 8))
        assert "Match" not in _algorithms(series)

    def test_fig6_op(self):
        series = figures.fig6_op_synthetic_size(SCALE, sizes=((1000, 4000), (2000, 8000)))
        assert len(series.points) == 2


class TestReportsAndAudits:
    def test_table1_report(self):
        series = figures.table1_bounds(SCALE)
        rows = {p.x: p for p in series.points}
        assert list(rows) == ["dGPM", "dGPMd", "dGPMt", "Figure 5"]
        # Figure 5 is a fixed example: the paper's counts at any scale
        assert rows["Figure 5"].algorithms["no-push"][0]["messages"] == 12
        assert rows["Figure 5"].algorithms["dGPMd"][0]["messages"] == 6

    def test_impossibility_report(self):
        rounds = figures.theorem1_rounds(sizes=(4, 8))
        shipment = figures.theorem1_shipment(sizes=(4, 8))
        assert [p.instance["n_fragments"] for p in rounds.points] == [4, 8]
        assert [p.instance["n_fragments"] for p in shipment.points] == [2, 2]

    def test_ablation(self):
        series = figures.ablation_optimizations(SCALE, thetas=(0.2,))
        assert {"dGPMNOpt", "no-push", "push θ=0.2"} <= _algorithms(series)

    def test_trees(self):
        series = figures.trees_series(SCALE, fragments=(2, 4))
        assert all(
            run["rounds"] <= 3 for p in series.points for run in p.algorithms["dGPMt"]
        )

    def test_scale_helper(self):
        assert figures._n(100, 2.0) == 200
        assert figures._n(100, 0.1) == 64  # the floor
        assert figures.yahoo_graph(SCALE).n_nodes == figures._n(8000, SCALE)

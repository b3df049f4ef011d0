"""How ``python -m repro.bench`` reads its arguments: ``--scale`` and ids."""

import json

from repro.bench.cli import main


class TestCliScale:
    def test_scale_flag_applies(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        assert main(["--scale", "0.08", "table1", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["scale"] == 0.08
        dgpm_row = record["experiments"]["table1"]["points"][0]
        assert dgpm_row["instance"]["n_nodes"] == 640  # 8000 x 0.08: it reached the graphs
        # a record is only reproduced at the scale it was made at
        assert main(["--scale", "0.08", "table1", "--check", str(out)]) == 0
        assert main(["--scale", "0.09", "table1", "--check", str(out)]) == 1
        assert "/scale: committed 0.08, measured 0.09" in capsys.readouterr().out

    def test_figure_prefix_normalization(self, capsys):
        assert main(["Fig6AB", "fignope"]) == 2  # ids are checked before anything runs
        assert "['nope']" in capsys.readouterr().err
        assert main(["figthm1-rounds"]) == 0
        assert list(json.loads(capsys.readouterr().out)["experiments"]) == ["thm1-rounds"]

"""The ``python -m repro.analysis`` CLI: exit codes and baseline flow."""

from __future__ import annotations

import json

from repro.analysis.cli import main

#: a tree with exactly one violation (module-level numpy import)
DIRTY = {"bench/helper.py": "import numpy\n"}
CLEAN = {"bench/helper.py": "def f():\n    import numpy\n"}


def make_tree(tmp_path, sources):
    root = tmp_path / "pkg"
    for rel, src in sources.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLEAN)
        code = main(["--root", str(root), "--baseline", str(tmp_path / "b.json")])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_dirty_tree_exits_one_and_prints_location(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        code = main(["--root", str(root), "--baseline", str(tmp_path / "b.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert "bench/helper.py:1:0" in out
        assert "[lazy-numpy]" in out

    def test_bad_root_exits_two(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path / "missing")])
        assert code == 2
        assert "analysis error" in capsys.readouterr().err

    def test_unparseable_source_exits_two(self, tmp_path):
        root = make_tree(tmp_path, {"m.py": "def broken(:\n"})
        assert main(["--root", str(root)]) == 2

    def test_corrupt_baseline_exits_two(self, tmp_path):
        root = make_tree(tmp_path, CLEAN)
        baseline = tmp_path / "b.json"
        baseline.write_text("{broken")
        assert main(["--root", str(root), "--baseline", str(baseline)]) == 2


class TestBaselineFlow:
    def test_write_baseline_then_suppressed(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "b.json"
        args = ["--root", str(root), "--baseline", str(baseline)]

        assert main(args + ["--write-baseline"]) == 0
        document = json.loads(baseline.read_text())
        assert document["version"] == 1
        assert len(document["suppressions"]) == 1

        capsys.readouterr()
        assert main(args) == 0  # suppressed by the baseline now
        captured = capsys.readouterr()
        assert "1 baselined" in captured.err
        assert "helper.py" not in captured.out

    def test_new_violation_still_fails_with_baseline(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "b.json"
        args = ["--root", str(root), "--baseline", str(baseline)]
        assert main(args + ["--write-baseline"]) == 0

        (root / "core").mkdir()
        (root / "core" / "fresh.py").write_text("import numpy as np\n")
        capsys.readouterr()
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "core/fresh.py" in out
        assert "helper.py" not in out  # old one stays suppressed

    def test_stale_entry_reported_once_fixed(self, tmp_path, capsys):
        root = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "b.json"
        args = ["--root", str(root), "--baseline", str(baseline)]
        assert main(args + ["--write-baseline"]) == 0

        (root / "bench" / "helper.py").write_text(CLEAN["bench/helper.py"])
        capsys.readouterr()
        assert main(args) == 0
        assert "stale baseline entry" in capsys.readouterr().err

    def test_no_baseline_flag_ignores_file(self, tmp_path):
        root = make_tree(tmp_path, DIRTY)
        baseline = tmp_path / "b.json"
        args = ["--root", str(root), "--baseline", str(baseline)]
        assert main(args + ["--write-baseline"]) == 0
        assert main(args + ["--no-baseline"]) == 1


class TestListRules:
    def test_catalogue_printed(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "lock-discipline",
            "frozen-crossing",
            "lazy-numpy",
            "protocol-exhaustive",
            "determinism",
            "bare-assert",
        ):
            assert rule in out
        assert "driver-registry" not in out  # retired with the driver registry

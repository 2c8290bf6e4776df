"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_tuple_spec, build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestTupleSpec:
    def test_types_inferred(self):
        out = _parse_tuple_spec(["season=2015-16", "k=3", "r=0.5"])
        assert out == {"season": "2015-16", "k": 3, "r": 0.5}

    def test_quoted_values_stay_strings(self):
        out = _parse_tuple_spec(
            ['name="2015"', "city='7.5'", 'word="true"']
        )
        assert out == {"name": "2015", "city": "7.5", "word": "true"}
        assert all(isinstance(v, str) for v in out.values())

    def test_boolean_values(self):
        out = _parse_tuple_spec(
            ["a=true", "b=false", "c=True", "d=FALSE"]
        )
        assert out == {"a": True, "b": False, "c": True, "d": False}

    def test_quotes_preserved_inside_value(self):
        # Mismatched or interior quotes are not stripped.
        out = _parse_tuple_spec(["x='mixed\"", "y=o'brien"])
        assert out == {"x": "'mixed\"", "y": "o'brien"}

    def test_empty_and_equals_in_value(self):
        out = _parse_tuple_spec(["x=", "expr=a=b"])
        assert out == {"x": "", "expr": "a=b"}

    def test_bad_spec_exits(self):
        with pytest.raises(SystemExit):
            _parse_tuple_spec(["noequals"])


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["generate", "nba", "--out", "/tmp/x"],
            ["workload", "Qnba1"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEndToEnd:
    def test_generate_then_explain(self, tmp_path, capsys):
        out_dir = tmp_path / "nba"
        assert main(
            ["generate", "nba", "--scale", "0.08", "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "schema.json").exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

        sql = (
            "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, "
            "season s WHERE t.team_id = g.winner_id AND "
            "g.season_id = s.season_id AND t.team = 'GSW' "
            "GROUP BY s.season_name"
        )
        code = main(
            [
                "explain", str(out_dir),
                "--sql", sql,
                "--t1", "season_name=2015-16",
                "--t2", "season_name=2012-13",
                "--edges", "1",
                "--f1-sample", "1.0",
                "--top-k", "3",
                "--sentences",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "question:" in captured.out
        assert "because" in captured.out

    def test_outlier_question_via_cli(self, tmp_path, capsys):
        out_dir = tmp_path / "nba"
        main(["generate", "nba", "--scale", "0.08", "--out", str(out_dir)])
        capsys.readouterr()
        sql = (
            "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, "
            "season s WHERE t.team_id = g.winner_id AND "
            "g.season_id = s.season_id AND t.team = 'GSW' "
            "GROUP BY s.season_name"
        )
        code = main(
            [
                "explain", str(out_dir),
                "--sql", sql,
                "--t1", "season_name=2015-16",
                "--edges", "0",
                "--f1-sample", "1.0",
            ]
        )
        assert code == 0
        assert "question:" in capsys.readouterr().out

    def test_workload_command(self, capsys):
        code = main(
            [
                "workload", "Qmimic2",
                "--scale", "0.05",
                "--edges", "1",
                "--top-k", "3",
                "--f1-sample", "1.0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Qmimic2" in captured.out


class TestEngineFlags:
    def test_invalid_workers_clean_error(self, tmp_path, capsys):
        """The removed flag is an argparse error, not an ignored one."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain", str(tmp_path), "--sql", "SELECT 1 AS x",
                    "--t1", "x=1", "--workers", "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_invalid_cache_budget_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain", str(tmp_path), "--sql", "SELECT 1 AS x",
                    "--t1", "x=1", "--apt-cache-mb", "-3",
                ]
            )
        assert "apt_cache_mb" in str(excinfo.value)


def test_malformed_store_manifest_is_one_error_line(tmp_path, capsys):
    """``explain --db-cache-dir`` over a store whose manifest is not
    JSON prints one ``error:`` line and exits 2 — no traceback."""
    from repro.db import ColumnType, Database, TableSchema

    db = Database("d")
    db.create_table(
        TableSchema.build("t", {"k": ColumnType.INT, "s": ColumnType.TEXT}),
        [(1, "a"), (2, "b")],
    )
    store = tmp_path / "store"
    db.save(store)
    (store / "manifest.json").write_text("{truncated")
    code = main(
        [
            "explain", str(tmp_path / "csv"), "--db-cache-dir", str(store),
            "--sql", "SELECT COUNT(*) AS n, s FROM t GROUP BY s",
            "--t1", "s=a",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: manifest.json: not JSON")


def test_import_repro_cli_loads_only_what_a_question_needs():
    """Start-up pin: the CLI imports no thread-pool machinery (there is
    none in the library) and none of the packages only `serve`,
    `generate`, `workload` and the experiment scripts need."""
    code = (
        "import sys, repro.cli\n"
        "lazy = ('repro.serving', 'repro.datasets', 'repro.experiments',"
        " 'repro.baselines')\n"
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures'"
        " or m.startswith(lazy)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

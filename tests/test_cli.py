"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.storage.column import Column
from repro.storage.csv_codec import write_csv_file
from repro.storage.table import Table


@pytest.fixture()
def csv_lake(tmp_path) -> Path:
    """Two joinable CSVs plus one unrelated."""
    companies = ["Acme Dynamics Corp", "Global Logistics Inc", "Nova Analytics Llc"]
    write_csv_file(
        Table(
            "purchases",
            [
                Column("supplier", companies * 4),
                Column("amount", [float(i) for i in range(12)]),
            ],
        ),
        tmp_path / "purchases.csv",
    )
    write_csv_file(
        Table(
            "ratings",
            [
                Column("vendor", [c.upper() for c in companies]),
                Column("score", [4.5, 3.8, 4.9]),
            ],
        ),
        tmp_path / "ratings.csv",
    )
    write_csv_file(
        Table("weather", [Column("temp", [1.0, 2.0, 3.0])]),
        tmp_path / "weather.csv",
    )
    return tmp_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "dir", "t.c"],
            ["index", "dir", "out.npz"],
            ["query", "a.npz", "dir", "t.c"],
            ["demo"],
            ["corpus-stats"],
        ],
    )
    def test_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.handler)

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "d", "t.c", "--model", "gpt"])


class TestDiscover:
    def test_finds_join(self, csv_lake, capsys):
        code = main(
            ["discover", str(csv_lake), "purchases.supplier", "--threshold", "0.5"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ratings.vendor" in output

    def test_lookup_flag_verifies(self, csv_lake, capsys):
        code = main(
            [
                "discover",
                str(csv_lake),
                "purchases.supplier",
                "--threshold",
                "0.5",
                "--lookup",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "match rate" in output

    def test_no_results_exit_code(self, csv_lake, capsys):
        code = main(
            ["discover", str(csv_lake), "weather.temp", "--threshold", "0.999"]
        )
        assert code == 1

    def test_empty_directory_is_error(self, tmp_path, capsys):
        code = main(["discover", str(tmp_path), "t.c"])
        assert code == 2
        assert "no CSV files" in capsys.readouterr().err


class TestIndexAndQuery:
    def test_index_then_query(self, csv_lake, tmp_path, capsys):
        artifact = tmp_path / "lake.npz"
        assert (
            main(["index", str(csv_lake), str(artifact), "--threshold", "0.5"]) == 0
        )
        assert artifact.exists()
        code = main(
            [
                "query",
                str(artifact),
                str(csv_lake),
                "purchases.supplier",
                "--threshold",
                "0.5",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "ratings.vendor" in output


class TestCorpusStats:
    def test_subset(self, capsys):
        code = main(["corpus-stats", "--corpora", "XS"])
        output = capsys.readouterr().out
        assert code == 0
        assert "testbedXS" in output

    def test_unknown_corpus(self, capsys):
        code = main(["corpus-stats", "--corpora", "nope"])
        assert code == 2

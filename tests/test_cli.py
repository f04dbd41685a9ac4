"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == "tiny"
        assert args.seed == 7
        assert not args.markdown

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "10"])

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "6"])

    def test_scale_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "run"])

    def test_validate_subcommand_parses(self):
        args = build_parser().parse_args(["--scale", "nano", "validate"])
        assert args.command == "validate"

    def test_run_storage_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.merge == "memory"
        assert not hasattr(args, "checkpoint_format")

    def test_merge_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--merge", "tape"])

    def test_checkpoint_format_validated(self):
        # Every dataset checkpoint is one LSHD segment: the flag is gone.
        for fmt in ("lshd", "csv", "jsonl.gz", "jsonl"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "--checkpoint-format", fmt])

    def test_removed_engine_flags_rejected(self):
        for flags in (["--exchange", "shm"], ["--world-source", "pack"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", *flags])

    def test_store_inspect_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "inspect"])

    def test_removed_store_commands_rejected(self):
        for args in (["append", "data.lshd", "part.lshd"],
                     ["compact", "data.lshd"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["store", *args])


class TestCommands:
    def test_top10k_command(self, capsys):
        assert main(["--scale", "nano", "top10k"]) == 0
        out = capsys.readouterr().out
        assert "confirmed instances:" in out

    def test_table_command(self, capsys):
        assert main(["--scale", "nano", "table", "9"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out

    def test_figure_command(self, capsys):
        assert main(["--scale", "nano", "figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_run_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["--scale", "nano", "run", "--markdown",
                     "--no-top1m", "--no-vps", "--no-ooni",
                     "--out", str(out_file)])
        assert code == 0
        content = out_file.read_text()
        assert "### Table 1" in content


class TestStoreInspect:
    def _segment(self, tmp_path):
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.shards import write_segment_file

        data = ScanDataset()
        data.append("a.com", "US", 200, 9_000, None)
        data.append("a.com", "IR", 403, 480, "<html>block</html>")
        path = str(tmp_path / "scan.lshd")
        write_segment_file(data.export_columns(), path)
        return path

    def test_inspect_prints_header(self, tmp_path, capsys):
        path = self._segment(tmp_path)
        assert main(["store", "inspect", path]) == 0
        out = capsys.readouterr().out
        assert "rows:        2" in out
        assert "fingerprint:" in out
        assert "dcodes" in out and "lengths" in out
        assert "bodies" in out and "interfered" in out

    def test_inspect_rejects_non_lshd(self, tmp_path):
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset

        path = str(tmp_path / "scan.jsonl.gz")
        dump_dataset(ScanDataset(), path)
        with pytest.raises(SystemExit, match="not an LSHD segment"):
            main(["store", "inspect", path])

    def test_inspect_legacy_gzip_is_one_clean_line(self, tmp_path):
        # Satellite contract: a legacy gzip checkpoint exits nonzero with
        # a single-line message, never a traceback.
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset

        path = str(tmp_path / "legacy.jsonl.gz")
        data = ScanDataset()
        data.append("a.com", "US", 200, 10, None)
        dump_dataset(data, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "inspect", path])
        message = str(excinfo.value)
        assert message.startswith(path)
        assert "jsonl.gz" in message
        assert "\n" not in message

    def test_inspect_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "inspect", str(tmp_path / "nope.lshd")])

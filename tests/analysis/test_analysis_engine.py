"""Engine behavior: suppressions, baseline handling, and the CLI."""

import json
from pathlib import Path

from repro.analysis import Baseline, FileContext, all_checkers, analyze_files
from repro.analysis.__main__ import main


def det_checker():
    return [checker for checker in all_checkers() if checker.rule == "DET001"]


def det_context(source, path="examples/clock.py"):
    return FileContext(Path(path), source, display_path=path)


WALL_CLOCK = "import time\n\n\ndef when():\n    return time.time()\n"


class TestRegistry:
    def test_the_built_in_rules(self):
        # Each rule here has its bad/good fixtures in test_analysis_checkers;
        # a rule added or deleted changes this list with them.
        rules = [checker.rule for checker in all_checkers()]
        assert rules == ["DET001", "DT001", "EX001", "RC001", "TP001"]


class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self):
        source = WALL_CLOCK.replace(
            "return time.time()",
            "return time.time()  # repro: ignore[DET001]",
        )
        assert analyze_files([det_context(source)], det_checker()) == []

    def test_comment_line_suppresses_next_line(self):
        source = WALL_CLOCK.replace(
            "    return time.time()",
            "    # repro: ignore[DET001]\n    return time.time()",
        )
        assert analyze_files([det_context(source)], det_checker()) == []

    def test_bare_ignore_suppresses_all_rules(self):
        source = WALL_CLOCK.replace(
            "return time.time()",
            "return time.time()  # repro: ignore",
        )
        assert analyze_files([det_context(source)], det_checker()) == []

    def test_other_rule_id_does_not_suppress(self):
        source = WALL_CLOCK.replace(
            "return time.time()",
            "return time.time()  # repro: ignore[RC001]",
        )
        findings = analyze_files([det_context(source)], det_checker())
        assert [f.rule for f in findings] == ["DET001"]


class TestBaseline:
    def test_roundtrip_and_partition(self, tmp_path):
        findings = analyze_files([det_context(WALL_CLOCK)], det_checker())
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(baseline_path)
        loaded = Baseline.load(baseline_path)
        assert len(loaded) == 1
        new, baselined = loaded.partition(findings)
        assert new == [] and baselined == findings

    def test_matching_survives_line_shifts(self, tmp_path):
        findings = analyze_files([det_context(WALL_CLOCK)], det_checker())
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(baseline_path)
        shifted = "# a new leading comment\n" + WALL_CLOCK
        moved = analyze_files([det_context(shifted)], det_checker())
        assert moved[0].line == findings[0].line + 1
        new, baselined = Baseline.load(baseline_path).partition(moved)
        assert new == [] and len(baselined) == 1

    def test_multiplicity_is_respected(self, tmp_path):
        findings = analyze_files([det_context(WALL_CLOCK)], det_checker())
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(baseline_path)
        doubled = WALL_CLOCK + "\n\ndef again():\n    return time.time()\n"
        moved = analyze_files([det_context(doubled)], det_checker())
        assert len(moved) == 2
        new, baselined = Baseline.load(baseline_path).partition(moved)
        # Identical content on both lines: one entry covers exactly one.
        assert len(new) == 1 and len(baselined) == 1

    def test_missing_baseline_file_means_everything_is_new(self, tmp_path):
        findings = analyze_files([det_context(WALL_CLOCK)], det_checker())
        new, baselined = Baseline.load(tmp_path / "absent.json").partition(findings)
        assert new == findings and baselined == []


class TestCli:
    def write_project(self, tmp_path):
        target = tmp_path / "clock.py"
        target.write_text(WALL_CLOCK, encoding="utf-8")
        return target

    def test_text_format_and_exit_code(self, tmp_path, capsys):
        target = self.write_project(tmp_path)
        code = main([str(target), "--baseline", str(tmp_path / "b.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "DET001" in captured.out
        assert "clock.py:5:" in captured.out

    def test_github_format(self, tmp_path, capsys):
        target = self.write_project(tmp_path)
        code = main(
            [str(target), "--format", "github", "--baseline", str(tmp_path / "b.json")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("::error file=")
        assert "line=5" in captured.out and "title=DET001" in captured.out

    def test_json_format(self, tmp_path, capsys):
        target = self.write_project(tmp_path)
        code = main(
            [str(target), "--format", "json", "--baseline", str(tmp_path / "b.json")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["rule"], f["line"]) for f in payload] == [("DET001", 5)]

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        target = self.write_project(tmp_path)
        baseline = tmp_path / "b.json"
        assert main([str(target), "--baseline", str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main([str(target), "--baseline", str(baseline)]) == 0
        assert main([str(target), "--baseline", str(baseline), "--no-baseline"]) == 1

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n", encoding="utf-8")
        assert main([str(target), "--baseline", str(tmp_path / "b.json")]) == 0

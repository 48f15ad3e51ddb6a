"""The determinism & shared-state sanitizer, end to end.

The corpus under ``tests/fixtures/sancheck/`` pins precision *and*
recall: every line marked ``# expect[RULE]`` must be flagged by exactly
that rule, and no unmarked line may be flagged at all.  The remaining
tests cover suppression comments, the baseline workflow, the CLI, and
the gate's contract on the repo itself (zero unbaselined findings).
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.static import (
    SAN_RULES,
    analyze_models,
    build_models,
    run_sancheck,
    write_baseline,
)
from repro.analysis.static.baseline import apply_baseline, load_baseline

FIXTURES = Path(__file__).parent / "fixtures" / "sancheck"
REPO_ROOT = Path(__file__).parent.parent

_EXPECT_RE = re.compile(r"#\s*expect\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]")


def corpus_expectations() -> set[tuple[str, int, str]]:
    """(file, line, rule) triples the corpus demands, from its markers."""
    expected: set[tuple[str, int, str]] = set()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, text in enumerate(path.read_text().splitlines(), 1):
            match = _EXPECT_RE.search(text)
            if match:
                for rule in match.group(1).split(","):
                    expected.add((path.name, lineno, rule.strip()))
    return expected


def corpus_findings() -> set[tuple[str, int, str]]:
    models = build_models(FIXTURES, rel_base=FIXTURES)
    findings, _ = analyze_models(models)
    return {(f.path, f.line, f.rule) for f in findings if f.active}


def analyze_source(tmp_path: Path, source: str):
    """Analyze one synthetic module; return its findings."""
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(source))
    models = build_models(target, rel_base=tmp_path)
    findings, _ = analyze_models(models)
    return findings


class TestCorpus:
    def test_recall_every_marked_line_is_caught(self):
        missed = corpus_expectations() - corpus_findings()
        assert not missed, f"true positives the sanitizer missed: {sorted(missed)}"

    def test_precision_no_benign_line_is_flagged(self):
        extra = corpus_findings() - corpus_expectations()
        assert not extra, f"benign look-alikes falsely flagged: {sorted(extra)}"

    def test_corpus_exercises_every_registered_rule(self):
        covered = {rule for _, _, rule in corpus_expectations()}
        assert covered == set(SAN_RULES), (
            "every registered rule needs at least one true positive in "
            f"the corpus; missing: {sorted(set(SAN_RULES) - covered)}"
        )

    def test_corpus_has_benign_lookalikes(self):
        # Precision is only meaningful if the corpus contains unmarked
        # near-miss code; `good_`-prefixed defs are that contract.
        for path in sorted(FIXTURES.glob("*.py")):
            assert "def good_" in path.read_text(), (
                f"{path.name} has no benign look-alike functions"
            )


class TestSuppression:
    def test_same_line_comment(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import random

            def f():
                return random.random()  # repro: allow[DET001] corpus
            """,
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].suppressed and not findings[0].active

    def test_lone_comment_line_above(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import random

            def f():
                # repro: allow[DET001] seeded at a higher layer
                return random.random()
            """,
        )
        assert findings[0].suppressed

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import random

            def f():
                return random.random()  # repro: allow[DET003] wrong id
            """,
        )
        assert not findings[0].suppressed

    def test_comment_above_code_line_does_not_leak(self, tmp_path):
        # The allowance must ride a *lone* comment line, not trailing code.
        findings = analyze_source(
            tmp_path,
            """
            import random

            def f():
                x = 1  # repro: allow[DET001] attached to the wrong line
                return random.random()
            """,
        )
        assert not findings[0].suppressed

    def test_multiple_rule_ids_in_one_comment(self, tmp_path):
        findings = analyze_source(
            tmp_path,
            """
            import random, time

            def f():
                # repro: allow[DET001,DET003] bench-only path
                return random.random() + time.time()
            """,
        )
        assert all(f.suppressed for f in findings)
        assert {f.rule for f in findings} == {"DET001", "DET003"}


class TestBaseline:
    SOURCE = """
        import random

        def f():
            return random.random()
        """

    def test_roundtrip_marks_baselined(self, tmp_path):
        findings = analyze_source(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "sancheck-baseline.json"
        write_baseline(baseline_path, findings)
        allowance = load_baseline(baseline_path)
        marked, stale = apply_baseline(findings, allowance)
        assert all(f.baselined for f in marked)
        assert not stale

    def test_baseline_survives_line_drift(self, tmp_path):
        findings = analyze_source(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "sancheck-baseline.json"
        write_baseline(baseline_path, findings)
        drifted = analyze_source(
            tmp_path, "\n\n# a new comment shifts lines\n" + textwrap.dedent(self.SOURCE)
        )
        marked, stale = apply_baseline(drifted, load_baseline(baseline_path))
        assert all(f.baselined for f in marked)
        assert not stale

    def test_fixed_site_reports_stale_entry(self, tmp_path):
        findings = analyze_source(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "sancheck-baseline.json"
        write_baseline(baseline_path, findings)
        marked, stale = apply_baseline([], load_baseline(baseline_path))
        assert marked == []
        assert len(stale) == 1 and stale[0]["rule"] == "DET001"

    def test_run_sancheck_discovers_baseline_above_root(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            "import random\n\ndef f():\n    return random.random()\n"
        )
        report = run_sancheck(root=pkg, use_baseline=True)
        assert report.exit_code == 1  # no baseline anywhere above tmp_path
        write_baseline(tmp_path / "sancheck-baseline.json", report.findings)
        report = run_sancheck(root=pkg, use_baseline=True)
        assert report.exit_code == 0
        assert report.baseline_path == str(tmp_path / "sancheck-baseline.json")


class TestConfig:
    def test_disable_rule(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import random\n\ndef f():\n    return random.random()\n")
        models = build_models(target, rel_base=tmp_path)
        findings, rules_run = analyze_models(
            models, disable=frozenset({"DET001"})
        )
        assert "DET001" not in rules_run
        assert not findings


class TestRegistry:
    def test_rules_have_docs_severities_and_hints(self):
        for rule in SAN_RULES.values():
            assert rule.doc, f"{rule.rule_id} has no docstring"
            assert rule.severity in ("error", "warning", "info")
            assert rule.fix_hint, f"{rule.rule_id} has no fix hint"

    def test_duplicate_rule_id_rejected(self):
        from repro.analysis.static import san_rule

        with pytest.raises(ValueError, match="duplicate"):
            @san_rule("DET001", "dup", "error", fix_hint="x")
            def dup(model, rule):  # pragma: no cover - never runs
                yield


class TestRepoGate:
    def test_repo_has_zero_unbaselined_findings(self):
        report = run_sancheck()
        assert report.exit_code == 0, (
            "new sanitizer findings in the repo source:\n"
            + report.format_text()
        )

    def test_committed_baseline_has_no_stale_entries(self):
        report = run_sancheck()
        assert not report.stale_baseline, (
            "baseline entries whose sites are fixed — prune them: "
            f"{report.stale_baseline}"
        )

    def test_repo_scan_paths_are_package_relative(self):
        report = run_sancheck()
        assert all(f.path.startswith("repro/") for f in report.findings)


class TestCli:
    def test_sancheck_text_and_exit(self, capsys):
        from repro.cli import main

        assert main(["sancheck"]) == 0
        out = capsys.readouterr().out
        assert "sancheck:" in out and "0 new" in out

    def test_sancheck_json_is_sorted(self, capsys):
        from repro.cli import main

        assert main(["sancheck", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 0
        assert list(payload) == sorted(payload)

    def test_sancheck_no_baseline_reports_findings(self, capsys):
        from repro.cli import main

        assert main(["sancheck", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RACE001" in out

    @pytest.mark.parametrize(
        ("argv", "registered"),
        [
            (["sancheck", "--disable", "DET05"], "DET005"),
            (["lint", "--topology", "ring", "--disable", "SS01"], "SS001"),
            (["check", "--topology", "ring", "--disable", "MC04"], "MC004"),
        ],
        ids=["sancheck", "lint", "check"],
    )
    def test_unknown_disable_id_is_rejected(self, argv, registered):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        # A string code makes the interpreter print it and exit 1.
        message = exc.value.code
        assert isinstance(message, str)
        assert f"unknown rule id(s) {argv[-1]};" in message
        assert repr(registered) in message

    def test_format_github_emits_annotations(self, capsys):
        from repro.cli import main

        # A corpus RACE001 true positive surfaces as a workflow annotation.
        fixture = str(FIXTURES / "race_state.py")
        assert main([
            "sancheck", "--root", fixture, "--no-baseline", "--format", "github",
        ]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=RACE001" in out

    def test_root_is_repeatable(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "a.py").write_text("def api_a():\n    return 1\n")
        (tmp_path / "b.py").write_text("def api_b():\n    return 2\n")
        assert main([
            "sancheck", "--root", str(tmp_path / "a.py"),
            "--root", str(tmp_path / "b.py"), "--no-baseline",
        ]) == 0
        assert "across 2 file(s)" in capsys.readouterr().out

    def test_sancheck_fail_on_stale(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n\ndef f():\n    return random.random()\n"
        )
        baseline = tmp_path / "sancheck-baseline.json"
        assert main([
            "sancheck", "--root", str(target),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        target.write_text("def f():\n    return 4\n")
        capsys.readouterr()
        assert main([
            "sancheck", "--root", str(target), "--baseline", str(baseline),
        ]) == 0
        assert main([
            "sancheck", "--root", str(target), "--baseline", str(baseline),
            "--fail-on-stale",
        ]) == 1

    def test_prune_baseline_ratchet(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "mod.py"
        target.write_text("STATE = {}\n\ndef api():\n    STATE['k'] = 1\n")
        baseline = tmp_path / "sancheck-baseline.json"
        assert main([
            "sancheck", "--root", str(target), "--baseline", str(baseline),
            "--write-baseline",
        ]) == 0
        # Fix the site, then prune: the baseline empties.
        target.write_text("STATE = {}\n\ndef api():\n    return STATE\n")
        assert main([
            "sancheck", "--root", str(target), "--baseline", str(baseline),
            "--prune-baseline",
        ]) == 0
        assert json.loads(baseline.read_text())["findings"] == []

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "mod.py"
        target.write_text("import random\n\ndef f():\n    return random.random()\n")
        baseline = tmp_path / "sancheck-baseline.json"
        assert main([
            "sancheck", "--root", str(target),
            "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert main([
            "sancheck", "--root", str(target), "--baseline", str(baseline),
        ]) == 0

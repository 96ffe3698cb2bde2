"""Static-half tests: each per-file spindle-check pass must flag its
seeded violation fixtures and stay quiet on the sanctioned idioms."""

import ast
import os
import textwrap

import pytest

from repro.analysis.lint import check_paths, check_sources
from repro.analysis.lint.findings import (
    Finding,
    format_baseline,
    load_baseline,
    parse_suppressions,
)
from repro.cli import main as cli_main


def run(source, **kwargs):
    return check_sources([("fix.py", textwrap.dedent(source))], **kwargs)


def rules_of(report):
    return [f.rule for f in report.findings]


# ==========================================================================
# Pass 1: monotonicity
# ==========================================================================


class TestMonotonicityPass:
    def test_flags_cells_subscript_store(self):
        report = run("""
            def corrupt(region):
                region.cells[3] = 0
        """)
        assert rules_of(report) == ["sst-monotonic-write"]

    def test_flags_cells_slice_and_whole_replacement(self):
        report = run("""
            def corrupt(region, values):
                region.cells[0:2] = values
                region.cells = list(values)
        """)
        assert rules_of(report) == ["sst-monotonic-write"] * 2

    def test_flags_raw_write_local_call(self):
        report = run("""
            def corrupt(row):
                row.write_local(1, -5)
        """)
        assert rules_of(report) == ["sst-monotonic-write"]

    def test_sanctioned_sst_set_is_clean(self):
        report = run("""
            def publish(sst, col):
                sst.set(col, sst.read_own(col) + 1)
        """)
        assert report.findings == []

    def test_inline_suppression(self):
        report = run("""
            def init(region, values):
                region.cells = values  # spindle-lint: allow[sst-monotonic-write]
        """)
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_on_preceding_comment_line(self):
        report = run("""
            def init(region, values):
                # construction-time fill, unobservable
                # spindle-lint: allow[sst-monotonic-write]
                region.cells = values
        """)
        assert report.findings == []
        assert report.suppressed == 1


# ==========================================================================
# Pass 2: predicate purity
# ==========================================================================


class TestPredicatePurityPass:
    def test_flags_attribute_mutation_in_evaluate(self):
        report = run("""
            class Bad(Predicate):
                def evaluate(self):
                    self.count += 1
                    return 0.1, self.count
        """)
        assert "predicate-pure-eval" in rules_of(report)

    def test_flags_push_and_set_calls_in_evaluate(self):
        report = run("""
            class Bad(Predicate):
                def evaluate(self):
                    self.sst.set(0, 1)
                    self.doorbell.ring()
                    return 0.1, True
        """)
        assert rules_of(report).count("predicate-pure-eval") == 2

    def test_flags_generator_evaluate(self):
        report = run("""
            class Bad(Predicate):
                def evaluate(self):
                    yield 0.1
                    return None
        """)
        assert "predicate-pure-eval" in rules_of(report)

    def test_flags_wrong_return_shapes(self):
        report = run("""
            class Bad(Predicate):
                def evaluate(self):
                    if self.done:
                        return
                    if self.half:
                        return True
                    return 0.1, True, "extra"
        """)
        assert rules_of(report).count("predicate-eval-shape") == 3

    def test_flags_evaluate_without_any_return(self):
        report = run("""
            class Bad(Predicate):
                def evaluate(self):
                    cost = 0.1
        """)
        assert "predicate-eval-shape" in rules_of(report)

    def test_clean_evaluate_passes(self):
        report = run("""
            class Good(Predicate):
                def evaluate(self):
                    cost = self.timing.predicate_eval
                    queued = self.queued - self.pushed
                    if queued <= 0:
                        return cost, 0
                    return cost, queued
        """)
        assert report.findings == []

    def test_non_predicate_class_is_ignored(self):
        report = run("""
            class Metric:
                def evaluate(self):
                    self.samples += 1
                    return True
        """)
        assert report.findings == []


# ==========================================================================
# Pass 3: §3.4 lock discipline
# ==========================================================================


class TestLockDisciplinePass:
    def test_flags_yield_from_push_in_trigger(self):
        report = run("""
            class Bad(Predicate):
                def trigger(self, value):
                    yield 0.1
                    yield from self.sst.push(0, 2)
                    return None
        """)
        assert rules_of(report) == ["trigger-deferred-posts"]

    def test_flags_dropped_push_generator(self):
        report = run("""
            class Bad(Predicate):
                def trigger(self, value):
                    yield 0.1
                    self.smc.push_control()
                    return None
        """)
        assert rules_of(report) == ["trigger-deferred-posts"]

    def test_returning_push_generator_is_the_sanctioned_shape(self):
        report = run("""
            class Good(Predicate):
                def trigger(self, value):
                    yield 0.1
                    return self.sst.push(0, 2)
        """)
        assert report.findings == []

    def test_nested_deferred_generator_is_clean(self):
        report = run("""
            class Good(Predicate):
                def trigger(self, value):
                    yield 0.1
                    def deferred():
                        yield from self.sst.push(0, 2)
                    return deferred()
        """)
        assert report.findings == []

    def test_push_outside_trigger_is_not_this_passes_business(self):
        report = run("""
            class Good(Predicate):
                def _deferred_posts(self, lo, hi):
                    yield from self.sst.push(lo, hi)
        """)
        assert report.findings == []


# ==========================================================================
# Pass 4: sim hygiene
# ==========================================================================


class TestSimHygienePass:
    def test_flags_bare_except(self):
        report = run("""
            def f():
                try:
                    g()
                except:
                    pass
        """)
        assert rules_of(report) == ["bare-except"]

    def test_named_except_is_clean(self):
        report = run("""
            def f():
                try:
                    g()
                except ValueError:
                    pass
        """)
        assert report.findings == []

    def test_flags_mutable_default_args(self):
        report = run("""
            def f(items=[], table={}, group=set(), q=deque()):
                return items, table, group, q
        """)
        assert rules_of(report) == ["mutable-default-arg"] * 4

    def test_flags_sync_wakeup_of_stored_continuation(self):
        report = run("""
            def fire(waiter, value):
                waiter(value)
        """)
        assert rules_of(report) == ["sync-wakeup"]

    def test_flags_direct_call_into_waiter_queue(self):
        report = run("""
            class E:
                def fire(self, value):
                    self._waiters[0](value)
        """)
        assert rules_of(report) == ["sync-wakeup"]

    def test_queued_wakeup_is_clean(self):
        report = run("""
            class E:
                def fire(self, value):
                    for waiter in self._waiters:
                        self.sim.call_after(0.0, waiter, value)
        """)
        assert report.findings == []


# ==========================================================================
# Runner / suppressions / baseline / CLI
# ==========================================================================

SEEDED_VIOLATION = """\
class EvilPredicate(Predicate):
    def evaluate(self):
        self.hits += 1
        return True

    def trigger(self, value):
        yield 0.1
        yield from self.sst.push(0, 2)
"""


class TestRunnerAndBaseline:
    def test_findings_carry_scope_and_fingerprint(self):
        report = run("""
            class C:
                def m(self, region):
                    region.cells[0] = 1
        """)
        (finding,) = report.findings
        assert finding.symbol == "C.m"
        assert finding.fingerprint == "fix.py::C.m::sst-monotonic-write"

    def test_baseline_hides_known_findings(self):
        baseline = {"fix.py::C.m::sst-monotonic-write"}
        report = run("""
            class C:
                def m(self, region):
                    region.cells[0] = 1
        """, baseline=baseline)
        assert report.findings == [] and len(report.baselined) == 1

    def test_baseline_roundtrip(self):
        finding = Finding("a.py", 3, 0, "bare-except", "msg", "f")
        text = format_baseline([finding])
        assert load_baseline(text) == {"a.py::f::bare-except"}

    def test_parse_suppressions_multiple_rules(self):
        sup = parse_suppressions(
            ["x = 1  # spindle-lint: allow[bare-except, sync-wakeup]"])
        assert sup[1] == {"bare-except", "sync-wakeup"}

    def test_check_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(SEEDED_VIOLATION)
        (tmp_path / "pkg" / "good.py").write_text("X = 1\n")
        report = check_paths([str(tmp_path)])
        assert report.files_scanned == 2
        assert {f.rule for f in report.findings} == {
            "predicate-pure-eval", "predicate-eval-shape",
            "trigger-deferred-posts",
        }

    def test_syntax_error_is_reported_not_raised(self, tmp_path,
                                                 monkeypatch):
        (tmp_path / "bad.py").write_text(SEEDED_VIOLATION)
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "good.py").write_text("X = 1\n")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = check_paths([str(tmp_path)], root=str(tmp_path))
        assert not report.ok and "syntax error" in report.errors[0]
        # one parse per file per run, the unparsable one included, and
        # the other files are still analyzed by every pass
        assert sorted(parsed) == ["bad.py", "broken.py", "good.py"]
        assert report.files_scanned == 3 and report.modules_analyzed == 2
        assert "trigger-deferred-posts" in rules_of(report)

    def test_unknown_pass_selection_raises(self):
        with pytest.raises(ValueError):
            run("x = 1", select=["no-such-pass"])


class TestCli:
    def test_cli_nonzero_on_seeded_violation(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED_VIOLATION)
        rc = cli_main(["check", str(fixture), "--no-baseline"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "trigger-deferred-posts" in out

    def test_cli_zero_on_clean_file(self, tmp_path, capsys):
        fixture = tmp_path / "clean.py"
        fixture.write_text("VALUE = 42\n")
        rc = cli_main(["check", str(fixture), "--no-baseline"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_cli_baseline_workflow(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED_VIOLATION)
        baseline = tmp_path / "baseline.txt"
        rc = cli_main(["check", str(fixture), "--baseline", str(baseline),
                       "--write-baseline"])
        assert rc == 0 and baseline.exists()
        rc = cli_main(["check", str(fixture), "--baseline", str(baseline)])
        assert rc == 0  # all findings baselined now
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_cli_shipped_tree_is_clean(self, tmp_path, capsys):
        """Acceptance: `spindle-repro check src/` exits zero on the repo."""
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(repo_root, "src")
        baseline = os.path.join(repo_root, ".spindle-check-baseline")
        rc = cli_main(["check", src, "--baseline", baseline])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 stale" in out
        # the committed baseline is what the tool itself writes
        regenerated = tmp_path / "baseline.txt"
        assert cli_main(["check", src, "--baseline", str(regenerated),
                         "--write-baseline"]) == 0
        with open(baseline, "rb") as fh:
            assert regenerated.read_bytes() == fh.read()

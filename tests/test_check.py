"""spindle-check tests: call graph, interprocedural lockset pass,
determinism pass, ``check_sources`` / ``check_paths`` and the CLI
(suppressions, formats).
"""

import json
import textwrap

import pytest

from repro.analysis.lint.callgraph import (
    build_program,
    module_name_for,
)
from repro.analysis.lint.check import (
    ALL_PASSES,
    check_paths,
    check_report_dict,
    check_sources,
)
from repro.analysis.lint.determinism import DeterminismPass
from repro.analysis.lint.findings import (
    RULES,
    parse_suppressions,
)
from repro.analysis.lint.lockset import LocksetPass
from repro.cli import main as cli_main


def src(text):
    return textwrap.dedent(text)


def program_of(*files):
    """Build a Program from (display_path, source) pairs."""
    return build_program([(path, src(body)) for path, body in files])


def lockset_findings(*files):
    return list(LocksetPass().run_program(program_of(*files)))


def determinism_findings(*files):
    return list(DeterminismPass().run_program(program_of(*files)))


# A non-exempt module path: repro.core.* is subject to guard inference.
CORE = "src/repro/core/fake_router.py"

#: The seeded race fixture: two writers agree on `lock` as the guard of
#: `pending`; a third writes it with an empty lockset.
RACY_SOURCE = """
class RouterState:
    def locked_writer(self):
        yield self.lock.acquire()
        self.pending = 1
        self.lock.release()

    def other_locked_writer(self):
        yield self.lock.acquire()
        self.pending = 2
        self.lock.release()

    def racy_writer(self):
        yield 0
        self.pending = 3
"""


# ==========================================================================
# Call graph
# ==========================================================================


class TestCallGraph:
    def test_module_name_for_strips_src_and_init(self):
        assert module_name_for("src/repro/shard/router.py") == \
            "repro.shard.router"
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
        assert module_name_for("tests/test_foo.py") == "tests.test_foo"

    def test_concurrency_roots_kinds(self):
        program = program_of(("src/repro/core/fake.py", """
            class FooPredicate:
                pass

            class MinePredicate(FooPredicate):
                def evaluate(self, sst):
                    return (0.0, 1)

                def trigger(self, value):
                    yield 0

            def worker():
                yield 1

            def plain_helper():
                return 2

            def on_write_cb(region, snap):
                return region

            def installer(node):
                node.on_remote_write.append(on_write_cb)
        """))
        roots = program.concurrency_roots()
        assert roots["repro.core.fake::MinePredicate.evaluate"] == "predicate"
        assert roots["repro.core.fake::MinePredicate.trigger"] == "predicate"
        assert roots["repro.core.fake::worker"] == "generator"
        assert roots["repro.core.fake::on_write_cb"] == "callback"
        assert "repro.core.fake::plain_helper" not in roots

    def test_reachable_follows_helper_calls(self):
        program = program_of(("src/repro/core/fake.py", """
            def worker():
                yield 0
                helper()

            def helper():
                leaf()

            def leaf():
                return 1

            def unrelated():
                return 2
        """))
        reach = program.reachable(program.concurrency_roots())
        assert "repro.core.fake::leaf" in reach
        assert "repro.core.fake::unrelated" not in reach


# ==========================================================================
# Lockset pass
# ==========================================================================


class TestLocksetPass:
    def test_unprotected_write_flagged(self):
        findings = lockset_findings((CORE, RACY_SOURCE))
        assert [f.rule for f in findings] == ["lockset-unprotected-write"]
        f = findings[0]
        assert "RouterState.pending" in f.message
        assert f.symbol == "RouterState.racy_writer"
        assert "{lock}" in f.message

    def test_racy_source_fixed_is_clean(self):
        fixed_source = RACY_SOURCE.replace(
            """\
    def racy_writer(self):
        yield 0
        self.pending = 3
""",
            """\
    def racy_writer(self):
        yield 0
        yield self.lock.acquire()
        self.pending = 3
        self.lock.release()
""")
        assert "acquire" in fixed_source.split("racy_writer")[1]
        assert check_sources([(CORE, src(fixed_source))]).ok

    def test_all_writers_locked_is_clean(self):
        findings = lockset_findings((CORE, """
            class RouterState:
                def writer_a(self):
                    yield self.lock.acquire()
                    self.pending = 1
                    self.lock.release()

                def writer_b(self):
                    yield self.lock.acquire()
                    self.pending = 2
                    self.lock.release()
        """))
        assert findings == []

    def test_inconsistent_lock_flagged(self):
        findings = lockset_findings((CORE, """
            class Counters:
                def w1(self):
                    yield self.lock.acquire()
                    self.total = 1
                    self.lock.release()

                def w2(self):
                    yield self.lock.acquire()
                    self.total = 2
                    self.lock.release()

                def w3(self):
                    yield self.view_lock.acquire()
                    self.total = 3
                    self.view_lock.release()
        """))
        assert [f.rule for f in findings] == ["lockset-inconsistent"]
        assert findings[0].symbol == "Counters.w3"
        assert "{view_lock}" in findings[0].message
        assert "{lock}" in findings[0].message

    def test_single_locked_writer_not_enough_corroboration(self):
        # One incidental locked write proves no discipline: stays quiet.
        findings = lockset_findings((CORE, """
            class RouterState:
                def writer_a(self):
                    yield self.lock.acquire()
                    self.pending = 1
                    self.lock.release()

                def writer_b(self):
                    yield 0
                    self.pending = 2
        """))
        assert findings == []

    def test_exempt_module_skipped(self):
        path = "src/repro/sim/fake_kernel.py"
        assert lockset_findings((path, RACY_SOURCE)) == []

    def test_helper_inherits_callers_lockset(self):
        # The unlocked-looking write sits in a helper only ever called
        # with the lock held: entry-lockset propagation keeps it clean.
        findings = lockset_findings((CORE, """
            class RouterState:
                def writer_a(self):
                    yield self.lock.acquire()
                    self._store(1)
                    self.lock.release()

                def writer_b(self):
                    yield self.lock.acquire()
                    self._store(2)
                    self.lock.release()

                def _store(self, value):
                    self.pending = value
        """))
        assert findings == []

    def test_container_mutation_counts_as_write(self):
        findings = lockset_findings((CORE, """
            class RouterState:
                def writer_a(self):
                    yield self.lock.acquire()
                    self.queue.append(1)
                    self.lock.release()

                def writer_b(self):
                    yield self.lock.acquire()
                    self.queue.append(2)
                    self.lock.release()

                def racy(self):
                    yield 0
                    self.queue.append(3)
        """))
        assert [f.rule for f in findings] == ["lockset-unprotected-write"]
        assert "RouterState.queue" in findings[0].message


# ==========================================================================
# Determinism pass
# ==========================================================================


class TestDeterminismPass:
    def test_wall_clock_flagged(self):
        findings = determinism_findings((CORE, """
            import time

            def handler():
                yield 0
                stamp = time.time()
                return stamp
        """))
        assert "nondet-wall-clock" in [f.rule for f in findings]

    def test_unseeded_random_flagged(self):
        findings = determinism_findings((CORE, """
            import random

            def handler():
                yield 0
                return random.random()
        """))
        assert "nondet-unseeded-random" in [f.rule for f in findings]

    def test_id_keyed_dict_flagged(self):
        findings = determinism_findings((CORE, """
            def handler(items):
                yield 0
                table = {}
                for item in items:
                    table[id(item)] = item
                return table
        """))
        assert "nondet-id-order" in [f.rule for f in findings]

    def test_set_iteration_flagged(self):
        findings = determinism_findings((CORE, """
            def handler(items):
                yield 0
                pending = set(items)
                for item in pending:
                    deliver(item)

            def deliver(item):
                return item
        """))
        assert "nondet-set-iteration" in [f.rule for f in findings]

    @pytest.mark.parametrize("wrap", ["tuple", "list"])
    def test_sequence_over_set_flagged(self, wrap):
        findings = determinism_findings((CORE, f"""
            def handler(items, members):
                yield 0
                pending = set(items)
                return {wrap}(pending), {wrap}(pending & set(members))
        """))
        hits = [f for f in findings if f.rule == "nondet-set-iteration"]
        assert len(hits) == 2
        assert findings == hits

    def test_sorted_sequence_over_set_clean(self):
        findings = determinism_findings((CORE, """
            def handler(items):
                yield 0
                return tuple(sorted(set(items)))
        """))
        assert findings == []

    def test_unreachable_code_out_of_scope(self):
        # Same wall-clock read, but nothing concurrent can reach it.
        findings = determinism_findings((CORE, """
            import time

            def cli_helper():
                return time.time()
        """))
        assert findings == []


# ==========================================================================
# The check driver
# ==========================================================================


class TestCheckDriver:
    def test_clean_sources_report_ok(self):
        report = check_sources([("src/repro/core/ok.py", src("""
            class Quiet:
                def writer_a(self):
                    yield self.lock.acquire()
                    self.pending = 1
                    self.lock.release()
        """))])
        assert report.ok
        assert report.findings == []
        assert report.modules_analyzed == 1

    def test_finding_surfaces_and_fails(self):
        report = check_sources([(CORE, src(RACY_SOURCE))])
        assert not report.ok
        assert [f.rule for f in report.findings] == \
            ["lockset-unprotected-write"]

    def test_inline_suppression_honored(self):
        suppressed = RACY_SOURCE.replace(
            "self.pending = 3",
            "self.pending = 3  # spindle-lint: allow["
            "lockset-unprotected-write]")
        report = check_sources([(CORE, src(suppressed))])
        assert report.ok
        assert report.suppressed == 1
        # one filter, one count: a suppressed per-file rule adds to it
        suppressed += """
def fill(region, values):
    region.cells = values  # spindle-lint: allow[sst-monotonic-write]
"""
        report = check_sources([(CORE, src(suppressed))])
        assert report.ok
        assert report.suppressed == 2

    def test_select_single_pass(self):
        source = src("""
            import time

            class RouterState:
                def locked_writer(self):
                    yield self.lock.acquire()
                    self.pending = 1
                    self.lock.release()

                def other_locked_writer(self):
                    yield self.lock.acquire()
                    self.pending = 2
                    self.lock.release()

                def racy_writer(self):
                    yield 0
                    self.pending = 3
                    self.stamp = time.time()
                    self.stamp = time.time()
        """)
        both = check_sources([(CORE, source)])
        rules = {f.rule for f in both.findings}
        assert "lockset-unprotected-write" in rules
        assert "nondet-wall-clock" in rules
        only = check_sources([(CORE, source)], select=["determinism"])
        assert {f.rule for f in only.findings} == {"nondet-wall-clock"}

    def test_select_program_passes_skips_per_file_passes(self):
        source = src("""
            def handler():
                yield 0
                try:
                    risky()
                except:
                    pass

            def risky():
                return 1
        """)
        every_pass = check_sources([(CORE, source)])
        assert "bare-except" in {f.rule for f in every_pass.findings}
        without = check_sources([(CORE, source)],
                                select=["lockset", "determinism"])
        assert "bare-except" not in {f.rule for f in without.findings}

    def test_syntax_error_reported_either_way(self):
        report = check_sources([(CORE, "def broken(:\n")])
        assert report.errors and not report.ok
        report = check_sources([(CORE, "def broken(:\n")],
                               select=["lockset", "determinism"])
        assert report.errors and not report.ok

    def test_json_shape(self):
        report = check_sources([(CORE, src(RACY_SOURCE))])
        payload = check_report_dict(report)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "lockset-unprotected-write"
        assert payload["findings"][0]["symbol"] == "RouterState.racy_writer"
        json.dumps(payload)  # must be serializable

    def test_check_paths_and_cli(self, tmp_path, capsys):
        target = tmp_path / "racy.py"
        target.write_text(src(RACY_SOURCE))
        report = check_paths([str(target)], root=str(tmp_path))
        assert [f.rule for f in report.findings] == \
            ["lockset-unprotected-write"]
        assert report.findings[0].path == "racy.py"

        rc = cli_main(["check", str(target)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "lockset-unprotected-write" in out

        rc = cli_main(["check", str(target), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_cli_rejects_missing_path(self, tmp_path, capsys):
        rc = cli_main(["check", str(tmp_path / "nope")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


#: One seeded violation of every rule in the catalog, in one module.
EVERY_RULE_SOURCE = """
import random
import time


class Counters:
    def w1(self):
        yield self.lock.acquire()
        self.total = 1
        yield from self.sst.push(0, 2)
        self.lock.release()

    def w2(self):
        yield self.lock.acquire()
        self.total = 2
        self.lock.release()

    def w3(self):
        yield self.view_lock.acquire()
        self.total = 3
        self.view_lock.release()

    def racy(self, region, waiter, items=[]):
        yield 0
        self.total = 4
        region.cells[0] = time.time()
        table = {id(region): random.random()}
        try:
            waiter(table)
        except:
            pass
        acc = 0.0
        for item in set(items):
            acc += item


class EvilPredicate(Predicate):
    def evaluate(self):
        self.hits += 1
        return True

    def trigger(self, value):
        yield 0.1
        yield from self.sst.push(0, 2)
"""


class TestPassTable:
    def test_every_rule_has_a_pass_and_a_fixture(self):
        assert {rule: RULES[rule][0] for rule in RULES} == {
            rule: p.name for p in ALL_PASSES for rule in p.rules}
        report = check_sources([(CORE, src(EVERY_RULE_SOURCE))])
        assert {f.rule for f in report.findings} == set(RULES)

    def test_every_pass_name_is_selectable(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 42\n")
        names = [p.name for p in ALL_PASSES]
        for name in names:
            assert cli_main(["check", str(target),
                             "--passes", name]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            cli_main(["check", "--help"])
        # argparse wraps the help text, and may break it at a hyphen
        helped = "".join(capsys.readouterr().out.split())
        assert ",".join(names) in helped


# ==========================================================================
# findings.py edge cases (suppressions)
# ==========================================================================


class TestSuppressionAndBaselineEdgeCases:
    def test_multi_rule_suppression_on_one_line(self):
        supp = parse_suppressions([
            "x = 1  # spindle-lint: allow[rule-a, rule-b,rule-c]",
        ])
        assert supp[1] == {"rule-a", "rule-b", "rule-c"}

    def test_comment_only_line_covers_next_line(self):
        supp = parse_suppressions([
            "# spindle-lint: allow[rule-a]",
            "x = 1",
        ])
        assert supp[1] == {"rule-a"}
        assert supp[2] == {"rule-a"}

    def test_trailing_suppression_does_not_leak_down(self):
        supp = parse_suppressions(["x = 1  # spindle-lint: allow[rule-a]"])
        assert 2 not in supp

    def test_stacked_suppressions_accumulate(self):
        supp = parse_suppressions([
            "# spindle-lint: allow[rule-a]",
            "y = 2  # spindle-lint: allow[rule-b]",
        ])
        assert supp[2] == {"rule-a", "rule-b"}

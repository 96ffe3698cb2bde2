"""Shared test fixtures.

Every run of the suite has the runtime sanitizer subscribed: every
SST/NIC created anywhere is watched for §3.4 lock-discipline and §2.2
monotonicity violations, which fail the test that caused them
(docs/CHECK.md). A test that must see the unobserved program asks for
``pause_session_sanitizer``.

``SPINDLE_HB=1`` additionally runs the vector-clock happens-before
tracker (docs/CHECK.md): every SST write anywhere is checked for
write-write races against the simulated schedule, and a test that
produces an unexplained race fails at teardown. So the suite has two
modes: ``pytest`` and ``SPINDLE_HB=1 pytest``.

Hypothesis runs under the derandomized ``tier1`` profile by default
(and in CI's pytest/chaos jobs): every run draws the same examples, so
tier-1 is green or red for a reason in the checkout. Random exploration
is the nightly job's: ``--hypothesis-profile=explore``.
"""

import json
import os

import pytest
from hypothesis import settings

from repro.analysis.lint.sanitizer import disable_global, enable_global

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def _truthy(value):
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


@pytest.fixture(scope="session", autouse=True)
def spindle_sanitizer():
    """Session-wide strict runtime sanitizer, always on."""
    sanitizer = enable_global(strict=True)
    try:
        yield sanitizer
    finally:
        disable_global()


@pytest.fixture
def pause_session_sanitizer(spindle_sanitizer):
    """Detach the session sanitizer for one test — one that asserts on
    its own Sanitizer instances, or counts the calls of the unobserved
    program — then subscribe a fresh one."""
    disable_global()
    yield
    enable_global(strict=True)


@pytest.fixture(scope="session", autouse=True)
def spindle_hb_session():
    """Session-wide happens-before tracker, gated on SPINDLE_HB=1."""
    if not _truthy(os.environ.get("SPINDLE_HB")):
        yield None
        return
    from repro.analysis.lint.hb import disable_hb, enable_hb

    tracker = enable_hb(strict=False)
    try:
        yield tracker
    finally:
        disable_hb()


@pytest.fixture(autouse=True)
def spindle_hb(spindle_hb_session):
    """Per-test race accounting: fail the test that raced, then reset
    the tracker so the next test starts from a clean partial order."""
    if spindle_hb_session is None:
        yield None
        return
    yield spindle_hb_session
    races = spindle_hb_session.unexplained_races()
    report = spindle_hb_session.report()
    spindle_hb_session.reset()
    if races:
        pytest.fail(f"happens-before tracker found unexplained "
                    f"race(s):\n{report}")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.json from this checkout "
             "(tests/test_*_golden.py); review the diff")


@pytest.fixture
def check_golden(request):
    """``check_golden(path, names, name, compute)``: hold ``compute()``
    to entry ``name`` of the golden file at ``path`` (whose entries must
    be exactly ``names``) — or, under ``--update-golden``, rewrite that
    entry from this checkout."""
    def check(path, names, name, compute):
        golden = json.loads(path.read_text()) if path.exists() else {}
        if request.config.getoption("--update-golden"):
            golden[name] = compute()
            path.write_text(
                json.dumps(golden, indent=1, sort_keys=True) + "\n")
            return
        assert set(golden) == set(names)
        assert compute() == golden[name]

    return check


def pytest_report_header(config):
    if _truthy(os.environ.get("SPINDLE_HB")):
        return "spindle: happens-before tracker ACTIVE (SPINDLE_HB=1)"
    return None

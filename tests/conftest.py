"""Shared test fixtures.

Every run of the suite has the runtime sanitizer subscribed: every
SST/NIC created anywhere is watched for §3.4 lock-discipline and §2.2
monotonicity violations, which fail the test that caused them
(docs/CHECK.md). A test that must see the unobserved program asks for
``pause_session_sanitizer``.

Hypothesis runs under the derandomized ``tier1`` profile by default
(and in CI's pytest/chaos jobs): every run draws the same examples, so
tier-1 is green or red for a reason in the checkout. Random exploration
is the nightly job's: ``--hypothesis-profile=explore``.
"""

import json

import pytest
from hypothesis import settings

from repro.analysis.lint.sanitizer import disable_global, enable_global

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


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


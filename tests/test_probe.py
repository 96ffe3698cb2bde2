"""The probe surface (repro.sim.probe, docs/ENGINE.md "Probes") is inert
when nobody subscribes, inert for behaviour when somebody does, and
complete: every declared site fires somewhere in the golden runs, and
the reference scheduler fires the scheduler's sites in the same order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_data_path_golden as data_path
import test_request_path_golden as request_path
import test_scheduler_conformance as conformance
from repro.sim import probe

#: Every site the surface declares, read off the base class so a site
#: added later is held to these tests without being listed here.
SITES = sorted(name for name, member in vars(probe.Probe).items()
               if callable(member) and not name.startswith("_"))


class Recorder(probe.Probe):
    """Implements every site; keeps ``(site, simulated instant)``."""

    def __init__(self):
        self.seen = []


def _recording(site):
    def method(self, *args):
        sim = args[0] if site in ("sched_post", "run_return") else None
        self.seen.append((site, sim.now if sim is not None else None))
        if site == "sched_post":
            return args[1], args[2]
    method.__name__ = site
    return method


for _site in SITES:
    setattr(Recorder, _site, _recording(_site))


def test_nothing_subscribes_unless_asked():
    """Importing all of ``repro`` attaches nothing, and enable / disable
    of both process-wide observers leaves the list as it found it. Run
    in a fresh interpreter: this session may itself be observed."""
    script = """
import importlib, pkgutil
import repro
from repro.sim import probe
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(mod.name)
assert probe.subscribers == [], probe.subscribers
from repro.analysis.lint.hb import disable_hb, enable_hb
from repro.analysis.lint.sanitizer import disable_global, enable_global
san, tracker = enable_global(), enable_hb()
assert enable_global() is san and enable_hb() is tracker
assert probe.subscribers == [san, tracker], probe.subscribers
assert disable_hb() is tracker and disable_global() is san
assert disable_hb() is None and disable_global() is None
assert probe.subscribers == [], probe.subscribers
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPINDLE_SANITIZE", "SPINDLE_HB")}
    env["PYTHONPATH"] = str(Path(probe.__file__).parents[2])
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_subscribed_detaches_when_the_block_raises():
    before = list(probe.subscribers)
    sub = probe.Probe()
    with pytest.raises(RuntimeError):
        with probe.subscribed(sub) as got:
            assert got is sub and probe.subscribers == before + [sub]
            raise RuntimeError("boom")
    assert probe.subscribers == before


def test_goldens_hold_under_a_subscriber_and_every_site_fires():
    """A subscriber on every site changes no fingerprint, log or metric
    of the 11 data-path and request-path goldens, and across them every
    declared site fires — one dropped by a refactor fails here."""
    recorder = Recorder()
    with probe.subscribed(recorder):
        for module in (data_path, request_path):
            golden = json.loads(module.GOLDEN.read_text())
            assert sorted(golden) == sorted(module.RUNS)
            for name in sorted(module.RUNS):
                assert module.digests(name) == golden[name], name
    fired = {site for site, _ in recorder.seen}
    assert sorted(fired) == SITES


def test_reference_scheduler_fires_the_same_site_sequence():
    """``references.HeapSimulator`` overrides the scheduling calls and
    the run loop, so it reports ``sched_post`` / ``run_return`` itself:
    on the conformance script (stopped mid-instant, re-run, fed between
    runs) both schedulers report the same sites at the same instants."""
    delays = [0.0, conformance.STEP, 3 * conformance.STEP, conformance.SPAN,
              0.0, conformance.SPAN + conformance.STEP, 2e-5, conformance.STEP]
    seen = {}
    for engine in conformance.ENGINES:
        recorder = Recorder()
        with probe.subscribed(recorder):
            conformance._run_interrupted(
                engine, delays, stop_at=5,
                between=[0.0, conformance.STEP / 3, conformance.SPAN])
        seen[engine] = recorder.seen
    assert {site for site, _ in seen["optimized"]} == {"sched_post",
                                                       "run_return"}
    assert seen["optimized"] == seen["reference"]

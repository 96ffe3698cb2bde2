"""Unit tests for the predicate-thread framework."""

import pytest

from repro.core.config import SpindleConfig, TimingModel
from repro.predicates import Predicate, PredicateThread
from repro.sim import Simulator
from repro.sim.units import us
from repro.workloads import Cluster, continuous_sender


class CountingPredicate(Predicate):
    """Fires ``fires`` times, then goes quiet; optionally defers posts,
    run through ``thread.post``."""

    def __init__(self, name, fires=1, eval_cost=us(0.05), body_cost=us(0.1),
                 post_cost=0.0, subgroup=None, thread=None):
        self.name = name
        self.thread = thread
        self.subgroup = subgroup
        self.remaining = fires
        self.eval_cost = eval_cost
        self.body_cost = body_cost
        self.post_cost = post_cost
        self.triggered = 0
        self.posted = 0

    def evaluate(self):
        return self.eval_cost, self.remaining > 0

    def trigger(self, value):
        self.remaining -= 1
        self.triggered += 1
        yield self.body_cost
        if self.post_cost > 0:
            return self.thread.post(self._posts())
        return None

    def _posts(self):
        yield self.post_cost
        self.posted += 1


def make_thread(config=None):
    sim = Simulator()
    thread = PredicateThread(sim, config or SpindleConfig.baseline(),
                             TimingModel())
    return sim, thread


def test_trigger_runs_when_predicate_true():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=3)
    thread.register(pred)
    thread.start()
    sim.run(until=0.001)
    assert pred.triggered == 3


def test_thread_parks_when_no_work():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=1)
    thread.register(pred)
    thread.start()
    sim.run()  # drains: thread must park on the doorbell
    assert pred.triggered == 1
    assert thread.idle_time == 0.0  # parked, not spinning
    assert thread.doorbell.waiting == 1


def test_doorbell_wakes_parked_thread():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=1)
    thread.register(pred)
    thread.start()
    sim.run()
    assert pred.triggered == 1
    pred.remaining = 1  # new work appears...
    thread.doorbell.ring()  # ...and the doorbell announces it
    sim.run()
    assert pred.triggered == 2


def test_all_predicates_evaluated_fairly():
    sim, thread = make_thread()
    preds = [CountingPredicate(f"p{i}", fires=2) for i in range(5)]
    for p in preds:
        thread.register(p)
    thread.start()
    sim.run()
    assert all(p.triggered == 2 for p in preds)


def test_stop_terminates_loop():
    sim, thread = make_thread()
    thread.register(CountingPredicate("p", fires=10**9))
    thread.start()
    sim.call_after(us(50), thread.stop)
    sim.run()
    assert not thread.running


def test_double_start_rejected():
    sim, thread = make_thread()
    thread.start()
    with pytest.raises(RuntimeError):
        thread.start()


def test_unregister_removes_predicate():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=100)
    thread.register(pred)
    thread.unregister(pred)
    thread.start()
    sim.run(until=us(10))
    assert pred.triggered == 0


def test_post_time_accounted():
    sim, thread = make_thread()
    pred = CountingPredicate("p", fires=4, post_cost=us(1.0),
                             thread=thread)
    thread.register(pred)
    thread.start()
    sim.run()
    assert pred.posted == 4
    assert thread.post_time == pytest.approx(4 * us(1.0))
    assert thread.posts_run == 4


def test_posts_inside_lock_without_early_release():
    """Baseline: the lock is held while posts run, blocking contenders."""
    sim, thread = make_thread(SpindleConfig.baseline())
    pred = CountingPredicate("p", fires=1, post_cost=us(10),
                             thread=thread)
    thread.register(pred)
    thread.start()
    acquired_at = {}

    def contender():
        yield us(0.01)  # let the thread grab the lock first
        yield thread.lock.acquire()
        acquired_at["t"] = sim.now
        thread.lock.release()

    sim.spawn(contender())
    sim.run()
    assert acquired_at["t"] >= us(10)  # had to wait out the posting


def test_posts_outside_lock_with_early_release():
    """§3.4: with early release, contenders get the lock while the
    thread is still posting."""
    sim, thread = make_thread(SpindleConfig.baseline().with_(early_lock_release=True))
    pred = CountingPredicate("p", fires=1, post_cost=us(10),
                             thread=thread)
    thread.register(pred)
    thread.start()
    acquired_at = {}

    def contender():
        yield us(0.01)
        yield thread.lock.acquire()
        acquired_at["t"] = sim.now
        thread.lock.release()

    sim.spawn(contender())
    sim.run()
    assert acquired_at["t"] < us(10)


class WorkThenPost(CountingPredicate):
    """Deferred work of ``work_cost`` that ends in one post."""

    work_cost = us(5.0)

    def trigger(self, value):
        yield from CountingPredicate.trigger(self, value)
        return self._work()

    def _work(self):
        yield self.work_cost
        yield from self.thread.post(self._posts())


@pytest.mark.parametrize("early", [False, True])
def test_deferred_work_is_the_predicates_time_not_posting(early):
    sim, thread = make_thread(
        SpindleConfig.baseline().with_(early_lock_release=early))
    pred = WorkThenPost("p", fires=3, post_cost=us(1.0), subgroup=0,
                        thread=thread)
    thread.register(pred)
    thread.start()
    sim.run()
    assert pred.posted == 3
    assert thread.post_time == pytest.approx(3 * us(1.0))
    # Each pass: two lock_ops, the evaluation, the body and the work.
    timing = thread.timing
    per_pass = 2 * timing.lock_op + pred.eval_cost + pred.body_cost
    seconds, _spans = thread.stage_time[pred.stage]
    assert seconds == pytest.approx(
        3 * (per_pass + WorkThenPost.work_cost)
        + (thread.iterations - 3) * (2 * timing.lock_op + pred.eval_cost))
    assert thread.subgroup_time[0] == pytest.approx(
        3 * (pred.body_cost + WorkThenPost.work_cost)
        + thread.iterations * pred.eval_cost)
    assert seconds + thread.post_time == pytest.approx(thread.busy_time,
                                                       rel=1e-9)


def test_a_one_member_subgroup_posts_nothing_and_counts_no_post():
    """A push with no target is no post: the sst_post stage's span
    count is the posts that put writes on the wire."""
    cluster = Cluster(num_nodes=1, config=SpindleConfig.optimized())
    cluster.add_subgroup(members=[0], senders=[0], message_size=64)
    cluster.build()
    cluster.spawn_sender(continuous_sender(cluster.mc(0, 0), count=5,
                                           size=64))
    cluster.run()
    cluster.assert_all_delivered(0, per_sender=5)
    thread = cluster.group(0).thread
    assert cluster.fabric.total_writes_posted() == 0
    assert thread.posts_run == 0
    assert thread.post_time == 0


def test_subgroup_time_accounting():
    sim, thread = make_thread()
    active = CountingPredicate("a", fires=50, body_cost=us(1.0), subgroup=0)
    idle = CountingPredicate("b", fires=0, subgroup=1)
    thread.register(active)
    thread.register(idle)
    thread.start()
    sim.run()
    frac_active = thread.subgroup_time_fraction(0)
    frac_idle = thread.subgroup_time_fraction(1)
    assert frac_active > 0.8
    assert frac_active + frac_idle == pytest.approx(1.0)


def test_iteration_and_busy_counters_advance():
    sim, thread = make_thread()
    thread.register(CountingPredicate("p", fires=5))
    thread.start()
    sim.run()
    assert thread.iterations >= 5
    assert thread.busy_time > 0

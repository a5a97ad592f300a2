"""Tests for the fluid-flow network model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.cluster.network import FlowCancelled, NetworkFabric


def make_fabric():
    env = Environment()
    return env, NetworkFabric(env)


def test_single_flow_runs_at_capacity():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link])
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_rate_cap_limits_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link], rate_cap=50.0)
    env.run(until=flow.done)
    assert env.now == pytest.approx(20.0)


def test_two_flows_share_equally():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    f1 = fabric.transfer(1000.0, [link])
    f2 = fabric.transfer(1000.0, [link])
    env.run(until=f1.done)
    # Both at 50 B/s: each takes 20 s.
    assert env.now == pytest.approx(20.0)
    env.run(until=f2.done)
    assert env.now == pytest.approx(20.0)


def test_departure_speeds_up_remaining_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    small = fabric.transfer(500.0, [link])
    big = fabric.transfer(1500.0, [link])
    env.run(until=small.done)
    # Shared at 50 B/s until small finishes at t=10 (500B each moved).
    assert env.now == pytest.approx(10.0)
    env.run(until=big.done)
    # big has 1000B left at full 100 B/s -> 10 more seconds.
    assert env.now == pytest.approx(20.0)


def test_late_arrival_slows_flow():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    first = fabric.transfer(1000.0, [link])

    def late(env):
        yield env.timeout(5.0)
        second = fabric.transfer(250.0, [link])
        yield second.done

    proc = env.process(late(env))
    env.run(until=first.done)
    # first: 500B in 5s at 100, then shares 50 B/s. second (250B at 50 B/s)
    # finishes at t=10; first then has 250B left at 100 B/s -> t=12.5.
    assert env.now == pytest.approx(12.5)
    env.run(until=proc)
    assert env.now == pytest.approx(12.5)


def test_flow_rate_is_min_across_links():
    env, fabric = make_fabric()
    fast = fabric.link("fast", 1000.0)
    slow = fabric.link("slow", 10.0)
    flow = fabric.transfer(100.0, [fast, slow])
    env.run(until=flow.done)
    assert env.now == pytest.approx(10.0)


def test_zero_byte_flow_completes_immediately():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(0.0, [link])
    env.run(until=flow.done)
    assert env.now == 0.0
    assert not link.flows


def test_negative_bytes_rejected():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    with pytest.raises(ValueError):
        fabric.transfer(-1.0, [link])


def test_link_requires_positive_capacity():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.link("bad", 0.0)


def test_link_is_cached_by_name():
    env, fabric = make_fabric()
    a = fabric.link("same", 10.0)
    b = fabric.link("same", 99.0)
    assert a is b
    assert a.capacity_bps == 10.0


def test_cancel_fails_waiters_and_frees_link():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    victim = fabric.transfer(1000.0, [link])
    bystander = fabric.transfer(1000.0, [link])
    failures = []

    def waiter(env):
        try:
            yield victim.done
        except FlowCancelled as exc:
            failures.append((env.now, exc.reason))

    def canceller(env):
        yield env.timeout(5.0)
        victim.cancel("node crash")

    env.process(waiter(env))
    env.process(canceller(env))
    env.run(until=bystander.done)
    assert failures == [(5.0, "node crash")]
    # bystander: 250B at t=5 (50 B/s shared), then 750B at 100 B/s -> 12.5s
    assert env.now == pytest.approx(12.5)


def test_transferred_tracks_partial_progress():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flow = fabric.transfer(1000.0, [link])
    env.run(until=3.0)
    assert flow.transferred() == pytest.approx(300.0)


def test_utilization_never_exceeds_one():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    flows = [fabric.transfer(10_000.0, [link]) for _ in range(7)]
    env.run(until=1.0)
    assert link.utilization() <= 1.0 + 1e-9
    for flow in flows:
        assert flow.rate == pytest.approx(100.0 / 7)


def test_unchanged_deadline_keeps_live_timer():
    """A flow whose rate a join leaves alone keeps its armed timer."""
    def run(with_joiner):
        env, fabric = make_fabric()
        narrow = fabric.link("x", 100.0)
        wide = fabric.link("y", 1000.0)
        a = fabric.transfer(1000.0, [narrow, wide])
        generation = a._timer_generation
        env.run(until=5.0)
        if with_joiner:
            scheduled = env.events_scheduled
            # B halves y's share to 500 B/s: still above A's 100 on x.
            fabric.transfer(10_000.0, [wide])
            assert a.rate == 100.0
            assert a._timer_generation == generation
            assert env.events_scheduled == scheduled + 1  # B's timer only
            assert fabric.timers_armed == 2
        env.run(until=a.done)
        return a.finished_at, fabric.stale_timer_fires

    assert run(with_joiner=True) == run(with_joiner=False) == (10.0, 0)


def test_lowered_rate_arms_exactly_one_new_timer():
    env, fabric = make_fabric()
    link = fabric.link("l", 100.0)
    a = fabric.transfer(1000.0, [link])
    generation = a._timer_generation
    env.run(until=5.0)
    scheduled = env.events_scheduled
    fabric.transfer(1000.0, [link])
    assert a.rate == 50.0
    assert a._timer_generation == generation + 1
    assert env.events_scheduled == scheduled + 2  # A's new timer and B's
    env.run()
    # Superseded: A's first timer (due at 10) and, once A ends at 15 and
    # B speeds up to 100 B/s, B's first timer (due at 25).
    assert a.finished_at == pytest.approx(15.0)
    assert fabric.timers_armed == 4
    assert fabric.stale_timer_fires == 2


class _RearmCountingFabric(NetworkFabric):
    """Classifies every re-arm of a flow that has a live timer."""

    def __init__(self, env):
        super().__init__(env)
        self.rate_changes = 0
        self.deadline_moves = 0
        self.equal_deadline_rearms = 0
        self.armed_rate = {}

    def _arm_timer(self, flow):
        if flow._deadline is not None:
            if flow.rate != self.armed_rate[flow.index]:
                self.rate_changes += 1
            elif (self._drained(flow) or self.env.now
                  + flow.remaining / flow.rate != flow._deadline):
                self.deadline_moves += 1  # float rounding moved it
            else:
                self.equal_deadline_rearms += 1
        self.armed_rate[flow.index] = flow.rate
        super()._arm_timer(flow)


class _AlwaysRearmFabric(NetworkFabric):
    """The reference rule: every rebalance re-arms every affected flow."""

    def _rebalance(self, flows):
        for flow in flows:
            flow._deadline = None
        super()._rebalance(flows)


def _contended_run(fabric_cls, seed):
    """Eight flows over three shared links with random caps and starts;
    returns the fabric and each flow's (index, finish time)."""
    import random

    rng = random.Random(seed)
    env = Environment()
    fabric = fabric_cls(env)
    # Round capacities, sizes and start times make same-time ties likely.
    links = [
        fabric.link(f"l{i}", rng.choice([100.0, 250.0, rng.uniform(10, 1000)]))
        for i in range(3)
    ]
    finished = []

    def launch(env, delay, size, chosen, cap):
        yield env.timeout(delay)
        flow = fabric.transfer(size, chosen, rate_cap=cap)
        yield flow.done
        finished.append((flow.index, flow.finished_at))

    for _ in range(8):
        env.process(launch(
            env, rng.choice([0.0, 1.0, 2.5, rng.uniform(0, 5)]),
            rng.choice([1000.0, rng.uniform(1, 5000)]),
            rng.sample(links, rng.randint(1, 3)),
            rng.choice([math.inf, 50.0, rng.uniform(10, 500)]),
        ))
    env.run()
    return fabric, sorted(finished)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_stale_fires_bounded_by_moved_deadlines(seed):
    """Every stale timer traces to a superseded deadline.

    A rebalance re-arms a live timer only when the flow's rate changed
    or float rounding moved its settled deadline; an unchanged deadline
    never queues a duplicate.  With multi-link contention and rate caps
    the second kind does occur, so rate changes alone do not bound the
    stale fires."""
    fabric, _ = _contended_run(_RearmCountingFabric, seed)
    assert fabric.equal_deadline_rearms == 0
    assert fabric.stale_timer_fires <= (
        fabric.rate_changes + fabric.deadline_moves
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_kept_timers_finish_bit_identically(seed):
    """Keeping a live timer never moves a completion, not even by an ulp."""
    kept, finished = _contended_run(NetworkFabric, seed)
    rearmed, reference = _contended_run(_AlwaysRearmFabric, seed)
    assert finished == reference
    assert kept.timers_armed <= rearmed.timers_armed


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
    ),
    capacity=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_total_bytes_conserved(sizes, capacity):
    """All bytes of all flows eventually arrive, whatever the contention."""
    env = Environment()
    fabric = NetworkFabric(env)
    link = fabric.link("l", capacity)
    flows = [fabric.transfer(size, [link]) for size in sizes]
    env.run()
    for flow, size in zip(flows, sizes):
        assert flow.done.ok
        assert flow.remaining <= 1e-6
    assert fabric.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=6
    ),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6
    ),
)
def test_property_completion_no_earlier_than_ideal(sizes, delays):
    """No flow finishes before size/capacity seconds after it starts."""
    env = Environment()
    fabric = NetworkFabric(env)
    capacity = 1000.0
    link = fabric.link("l", capacity)
    n = min(len(sizes), len(delays))
    records = []

    def launch(env, delay, size):
        yield env.timeout(delay)
        flow = fabric.transfer(size, [link])
        start = env.now
        yield flow.done
        records.append((start, env.now, size))

    for i in range(n):
        env.process(launch(env, delays[i], sizes[i]))
    env.run()
    assert len(records) == n
    for start, end, size in records:
        assert end - start >= size / capacity - 1e-6


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_deterministic_replay(seed):
    """Identical setups produce identical completion times."""
    import random

    def run_once():
        rng = random.Random(seed)
        env = Environment()
        fabric = NetworkFabric(env)
        links = [fabric.link(f"l{i}", rng.uniform(10, 1000)) for i in range(3)]
        finish_times = []

        def launch(env, delay, size, chosen):
            yield env.timeout(delay)
            flow = fabric.transfer(size, chosen)
            yield flow.done
            finish_times.append(env.now)

        for _ in range(6):
            delay = rng.uniform(0, 5)
            size = rng.uniform(1, 5000)
            chosen = rng.sample(links, rng.randint(1, 3))
            env.process(launch(env, delay, size, chosen))
        env.run()
        return finish_times

    assert run_once() == run_once()

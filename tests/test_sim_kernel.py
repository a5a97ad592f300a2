"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    RngRegistry,
    Timeout,
)


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]
    assert env.now == 2.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(env, 3, "c"))
    env.process(waiter(env, 1, "a"))
    env.process(waiter(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(env, tag))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return value * 2

    proc = env.process(parent(env))
    env.run()
    assert proc.value == 84


def test_run_until_time_stops_midway():
    env = Environment()
    seen = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            seen.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert seen == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return "finished"

    result = env.run(until=env.process(proc(env)))
    assert result == "finished"
    assert env.now == 5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    got = []

    def waiter(env):
        value = yield gate
        got.append(value)

    def opener(env):
        yield env.timeout(2)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert got == ["open"]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))

    def failer(env):
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    env.process(failer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_call_later_fires_at_now_plus_delay():
    env = Environment()
    fired = []
    env.run(until=1.5)
    timeout = env.call_later(2.0, lambda event: fired.append((env.now, event)))
    assert isinstance(timeout, Timeout)
    env.run()
    assert fired == [(3.5, timeout)]


def test_call_later_keeps_same_time_fifo_order():
    """Same-time ties pop in scheduling order, whichever way an event was
    made; a process's first timer is scheduled only when its kick-off
    pops, so it follows everything scheduled before that."""
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(1.0)
        order.append("process")

    env.call_later(1.0, lambda _event: order.append("a"))
    env.timeout(1.0).callbacks.append(lambda _event: order.append("timeout"))
    env.process(proc(env))
    env.call_later(1.0, lambda _event: order.append("b"))
    env.run()
    assert order == ["a", "timeout", "b", "process"]


def test_call_later_callback_runs_before_later_waiters():
    env = Environment()
    order = []

    def waiter(env, event):
        yield event
        order.append(("waiter", env.now))

    timeout = env.call_later(0.5, lambda _event: order.append(("callback", env.now)))
    env.process(waiter(env, timeout))
    env.run()
    assert order == [("callback", 0.5), ("waiter", 0.5)]


def test_call_later_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-0.1, lambda _event: None)
    assert env.events_scheduled == 0


def test_call_later_callback_exception_propagates_from_run():
    env = Environment()

    def crash(_event):
        raise RuntimeError("leaf crashed")

    env.call_later(2.0, crash)
    with pytest.raises(RuntimeError, match="leaf crashed"):
        env.run()
    assert env.now == 2.0


def test_kernel_counters():
    env = Environment()
    assert (env.events_scheduled, env.processes_started) == (0, 0)

    def proc(env):
        yield env.timeout(1.0)

    env.call_later(1.0, lambda _event: None)  # one event
    env.process(proc(env))  # kick-off, its timeout, its completion
    env.run()
    assert env.processes_started == 1
    assert env.events_scheduled == 4


def test_events_scheduled_counts_every_heap_insertion(monkeypatch):
    """Each heap insertion goes through ``schedule``/``schedule_urgent``,
    so wrapping those two sees every event ``events_scheduled`` counts."""
    from repro.experiments.common import make_setup
    from repro.loadgen.trace import InvocationTrace, run_trace

    calls = []
    for name in ("schedule", "schedule_urgent"):
        original = getattr(Environment, name)

        def counted(*args, original=original, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(Environment, name, counted)
    trace = InvocationTrace.from_csv(
        "at_s,tenant,app,input_bytes,fanout,seed\n"
        "0.0,a,wc,1MB,3,0\n0.2,b,wc,2MB,2,1\n",
        name="counters",
    )
    for system_name in ("dataflower", "faasflow", "sonic", "production"):
        calls.clear()
        setup = make_setup(system_name, "wc")
        run_trace(setup.system, trace, default_app="wc")
        assert setup.env.events_scheduled == len(calls) > 0
        assert 0 < setup.env.processes_started < len(calls)


def test_all_of_collects_all_values():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        values = yield t1 & t2
        results.append(sorted(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["a", "b"]]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(1, value="fast")
        values = yield t1 | t2
        results.append(list(values.values()))

    env.process(proc(env))
    env.run(until=2)
    assert results == [["fast"]]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.all_of([])
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == [{}]


def test_condition_on_already_processed_event():
    env = Environment()
    results = []

    def proc(env):
        t = env.timeout(1, value="x")
        yield t
        # t is processed; a condition on it must fire immediately.
        values = yield env.all_of([t])
        results.append(list(values.values()))

    env.process(proc(env))
    env.run()
    assert results == [["x"]]


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append((env.now, interrupt.cause))

    victim = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(3)
        victim.interrupt("wake up")

    env.process(interrupter(env))
    env.run()
    assert causes == [(3, "wake up")]


def test_interrupt_terminated_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    victim = env.process(quick(env))

    def interrupter(env):
        yield env.timeout(5)
        with pytest.raises(RuntimeError):
            victim.interrupt()

    env.process(interrupter(env))
    env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    trace = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            trace.append("interrupted")
        yield env.timeout(1)
        trace.append(env.now)

    victim = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(2)
        victim.interrupt()

    env.process(interrupter(env))
    env.run()
    assert trace == ["interrupted", 3]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    proc = env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
    assert proc.triggered


def test_rng_streams_are_deterministic_and_independent():
    a = RngRegistry(seed=7)
    b = RngRegistry(seed=7)
    assert a.stream("x").random() == b.stream("x").random()
    c = RngRegistry(seed=7)
    d = RngRegistry(seed=8)
    assert c.stream("x").random() != d.stream("x").random()
    e = RngRegistry(seed=7)
    assert e.stream("x").random() != e.stream("y").random()


def test_rng_fork_is_independent():
    root = RngRegistry(seed=3)
    fork = root.fork("child")
    assert root.stream("s").random() != fork.stream("s").random()

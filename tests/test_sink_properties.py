"""Property-based tests on the Wait-Match Memory's lifetime invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core.sink import EntryState, WaitMatchMemory
from repro.sim import Environment


class Action:
    DEPOSIT = "deposit"
    FETCH = "fetch"
    RELEASE = "release"
    WAIT = "wait"
    CLEANUP = "cleanup"


action_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            [Action.DEPOSIT, Action.FETCH, Action.RELEASE, Action.WAIT,
             Action.CLEANUP]
        ),
        st.integers(min_value=0, max_value=5),   # key index
        st.floats(min_value=1.0, max_value=1e6),  # bytes / seconds
    ),
    min_size=1,
    max_size=40,
)


def run_scenario(actions, proactive, passive):
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    node = cluster.workers[0]
    sink = WaitMatchMemory(
        env, node, cluster, ttl_s=5.0,
        proactive_release=proactive, passive_expire=passive,
    )

    def driver():
        for action, index, amount in actions:
            key = ("req", f"task{index % 3}", f"data{index}")
            if action == Action.DEPOSIT:
                sink.deposit(key, amount)
            elif action == Action.FETCH:
                if sink.is_present(key):
                    yield sink.fetch(key)
            elif action == Action.RELEASE:
                sink.release(key)
            elif action == Action.WAIT:
                yield env.timeout(amount / 1e5)
            elif action == Action.CLEANUP:
                sink.release_request("req")
            # Invariant: accounted cache never negative, and matches the
            # sum of in-memory entries.
            assert node.cache_usage.level >= 0
            resident = sink.resident_bytes()
            assert abs(node.cache_usage.level - resident) < 1.0

    proc = env.process(driver())
    env.run(until=proc)
    env.run(until=env.now + 20.0)  # let every TTL timer fire
    sink.release_request("req")
    return env, node, sink


@settings(max_examples=30, deadline=None)
@given(actions=action_strategy, proactive=st.booleans(), passive=st.booleans())
def test_property_cache_accounting_is_exact(actions, proactive, passive):
    """Cache level == sum of in-memory entries at every step; ends at 0."""
    env, node, sink = run_scenario(actions, proactive, passive)
    assert node.cache_usage.level < 1.0
    assert sink.resident_bytes() == 0


@settings(max_examples=30, deadline=None)
@given(actions=action_strategy)
def test_property_deposits_are_exactly_once(actions):
    """Duplicate deposits never double-count memory or entries."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    node = cluster.workers[0]
    sink = WaitMatchMemory(env, node, cluster, ttl_s=100.0,
                           passive_expire=False)
    seen = set()
    for action, index, amount in actions:
        key = ("req", "task", f"d{index}")
        fresh = sink.deposit(key, 100.0)
        assert fresh == (key not in seen)
        seen.add(key)
    assert sink.entry_count() == len(seen)
    assert node.cache_usage.level == 100.0 * len(seen)


@settings(max_examples=20, deadline=None)
@given(
    nbytes=st.floats(min_value=1.0, max_value=1e8),
    ttl=st.floats(min_value=0.5, max_value=10.0),
)
def test_property_unconsumed_data_always_leaves_memory(nbytes, ttl):
    """Whatever the TTL/size, unfetched data ends up spilled, not resident."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    node = cluster.workers[0]
    sink = WaitMatchMemory(env, node, cluster, ttl_s=ttl)
    sink.deposit(("r", "t", "d"), nbytes)
    env.run(until=ttl * 3)
    entry = sink._lookup(("r", "t", "d"))
    assert entry.state is EntryState.SPILLED
    assert node.cache_usage.level == 0.0
    assert node.disk.bytes_written >= nbytes

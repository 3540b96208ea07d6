"""WaitQueue: FIFO and priority disciplines under dynamic priorities."""

import pytest

from repro.kernel.scheduler import WaitQueue


def spawn_stub(kernel, name, priority):
    def body():
        yield  # pragma: no cover - never stepped

    return kernel.spawn(body(), name, priority=priority)


@pytest.fixture
def processes(kernel):
    return [spawn_stub(kernel, f"p{index}", priority=float(index))
            for index in range(4)]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="policy"):
        WaitQueue("lifo")


def test_fifo_pop_order(processes):
    queue = WaitQueue("fifo")
    for process in processes:
        queue.push(process)
    assert [queue.pop()[0] for __ in range(4)] == processes


def test_priority_pop_order(processes):
    queue = WaitQueue("priority")
    for process in processes:
        queue.push(process)
    popped = [queue.pop()[0] for __ in range(4)]
    assert popped == list(reversed(processes))  # highest priority first


def test_priority_ties_resolved_fifo(kernel):
    first = spawn_stub(kernel, "first", priority=5.0)
    second = spawn_stub(kernel, "second", priority=5.0)
    queue = WaitQueue("priority")
    queue.push(first)
    queue.push(second)
    assert queue.pop()[0] is first


def test_priority_reflects_inheritance_at_pop_time(kernel):
    low = spawn_stub(kernel, "low", priority=1.0)
    high = spawn_stub(kernel, "high", priority=5.0)
    queue = WaitQueue("priority")
    queue.push(low)
    queue.push(high)
    low.inherit(10.0)  # inheritance applied after enqueue
    assert queue.pop()[0] is low


def test_payload_round_trips(kernel):
    process = spawn_stub(kernel, "p", priority=0.0)
    queue = WaitQueue("fifo")
    queue.push(process, {"tag": 42})
    popped, payload = queue.pop()
    assert popped is process and payload == {"tag": 42}


def test_remove_specific_process(processes):
    queue = WaitQueue("fifo")
    for process in processes:
        queue.push(process)
    assert queue.remove(processes[2]) is True
    assert processes[2] not in queue
    assert queue.remove(processes[2]) is False
    assert len(queue) == 3


def test_contains(processes):
    queue = WaitQueue("fifo")
    queue.push(processes[0])
    assert processes[0] in queue
    assert processes[1] not in queue


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        WaitQueue("fifo").pop()


def test_peek_does_not_remove(processes):
    queue = WaitQueue("priority")
    queue.push(processes[0])
    queue.push(processes[3])
    assert queue.peek()[0] is processes[3]
    assert len(queue) == 2


def test_max_priority(processes):
    queue = WaitQueue("fifo")
    assert queue.max_priority() is None
    for process in processes:
        queue.push(process)
    assert queue.max_priority() == 3.0


def test_processes_iterates_in_arrival_order(processes):
    queue = WaitQueue("priority")
    for process in processes:
        queue.push(process)
    assert list(queue.processes()) == processes

"""Property tests: event queue ordering and cancellation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.events import EventQueue


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_pop_order_is_nondecreasing_in_time(times):
    queue = EventQueue()
    for time in times:
        queue.schedule(time, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)
    assert sorted(popped) == sorted(times)


@given(st.integers(min_value=1, max_value=200).flatmap(
    lambda size: st.lists(st.floats(min_value=0.0, max_value=100.0,
                                    allow_nan=False),
                          min_size=size, max_size=size)),
       st.data())
def test_cancellation_removes_exactly_the_cancelled(times, data):
    # Sizes up to 200, drawn evenly so most exceed _COMPACT_MIN, and
    # each entry cancelled with even odds: cancelling more than half
    # compacts the heap.
    queue = EventQueue()
    events = [queue.schedule(time, lambda: None) for time in times]
    cancel = data.draw(st.lists(st.booleans(), min_size=len(times),
                                max_size=len(times)))
    for event, dropped in zip(events, cancel):
        if dropped:
            queue.cancel(event)
    surviving = sorted((event.time, event.seq)
                       for event, dropped in zip(events, cancel)
                       if not dropped)
    assert len(queue) == len(surviving)
    popped = []
    while queue:
        event = queue.pop()
        popped.append((event.time, event.seq))
    assert popped == surviving


@given(st.integers(min_value=1, max_value=60))
def test_equal_time_events_preserve_fifo(count):
    queue = EventQueue()
    order = []
    for index in range(count):
        queue.schedule(7.0, lambda index=index: order.append(index))
    while queue:
        queue.pop().callback()
    assert order == list(range(count))


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()), max_size=40))
def test_len_is_consistent_with_pops(entries):
    queue = EventQueue()
    live = 0
    for time, cancel in entries:
        event = queue.schedule(time, lambda: None)
        if cancel:
            queue.cancel(event)
        else:
            live += 1
    assert len(queue) == live
    count = 0
    while queue.pop() is not None:
        count += 1
    assert count == live

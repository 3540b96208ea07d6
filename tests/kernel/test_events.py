"""Event queue: ordering, stability, cancellation."""


from repro.kernel.events import EventQueue


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    fired = []
    queue.schedule(3.0, lambda: fired.append(3))
    queue.schedule(1.0, lambda: fired.append(1))
    queue.schedule(2.0, lambda: fired.append(2))
    while queue:
        queue.pop().callback()
    assert fired == [1, 2, 3]


def test_same_time_events_fire_in_schedule_order():
    queue = EventQueue()
    fired = []
    for index in range(10):
        queue.schedule(5.0, lambda index=index: fired.append(index))
    while queue:
        queue.pop().callback()
    assert fired == list(range(10))


def test_key_breaks_ties_before_sequence():
    queue = EventQueue()
    fired = []
    queue.schedule(5.0, lambda: fired.append("late"), key=1.0)
    queue.schedule(5.0, lambda: fired.append("early"), key=-1.0)
    while queue:
        queue.pop().callback()
    assert fired == ["early", "late"]


def test_cancelled_event_is_skipped():
    queue = EventQueue()
    fired = []
    keep = queue.schedule(1.0, lambda: fired.append("keep"))
    drop = queue.schedule(1.0, lambda: fired.append("drop"))
    queue.cancel(drop)
    while queue:
        queue.pop().callback()
    assert fired == ["keep"]
    assert not keep.cancelled


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.schedule(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_len_counts_only_live_events():
    queue = EventQueue()
    first = queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(first)
    assert len(queue) == 1
    queue.pop()
    assert len(queue) == 0


def test_pop_tied_entries_skips_a_cancelled_tie():
    queue = EventQueue()
    first = queue.schedule(1.0, lambda: None)
    middle = queue.schedule(1.0, lambda: None)
    last = queue.schedule(1.0, lambda: None)
    queue.schedule(2.0, lambda: None)
    queue.cancel(middle)
    assert [entry[3] for entry in queue.pop_tied_entries()] == [first, last]
    assert len(queue) == 1


def test_pop_tied_entries_empty_returns_nothing():
    assert EventQueue().pop_tied_entries() == []


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    event = queue.schedule(1.0, lambda: None)
    assert queue
    queue.cancel(event)
    assert not queue

"""RNG streams: determinism and independence."""

from repro.kernel.rng import RngStreams


def test_same_seed_same_stream_reproduces():
    first = [RngStreams(7).stream("a").random() for __ in range(1)]
    second = [RngStreams(7).stream("a").random() for __ in range(1)]
    assert first == second


def test_sequences_reproduce_across_instances():
    one = RngStreams(99)
    two = RngStreams(99)
    assert [one.stream("x").random() for __ in range(20)] == \
           [two.stream("x").random() for __ in range(20)]


def test_different_names_give_different_sequences():
    rng = RngStreams(1)
    a = [rng.stream("alpha").random() for __ in range(10)]
    b = [rng.stream("beta").random() for __ in range(10)]
    assert a != b


def test_different_seeds_give_different_sequences():
    a = [RngStreams(1).stream("s").random() for __ in range(10)]
    b = [RngStreams(2).stream("s").random() for __ in range(10)]
    assert a != b


def test_consuming_one_stream_does_not_shift_another():
    lonely = RngStreams(5)
    expected = [lonely.stream("target").random() for __ in range(5)]

    mixed = RngStreams(5)
    for __ in range(100):
        mixed.stream("noise").random()  # heavy traffic on another stream
    observed = [mixed.stream("target").random() for __ in range(5)]
    assert observed == expected

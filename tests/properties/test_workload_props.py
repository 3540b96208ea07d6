"""Property tests: workload generator invariants, and the generator
against its stdlib oracle (``tests/txn/generator_oracle.py``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import LockMode
from repro.db.replication import ReplicaCatalog
from repro.kernel.rng import RngStreams
from repro.txn import TransactionType, WorkloadGenerator
from repro.txn.generator import _below, _sample, _shuffle
from tests.txn import generator_oracle

params = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31),
    "db_size": st.integers(min_value=20, max_value=200),
    "size": st.integers(min_value=1, max_value=10),
    "read_only": st.floats(min_value=0.0, max_value=1.0),
    "write_fraction": st.floats(min_value=0.05, max_value=1.0),
    "n": st.integers(min_value=1, max_value=40),
})


def build(config, catalog=None, n_sites=1):
    return WorkloadGenerator(
        RngStreams(config["seed"]), config["db_size"],
        mean_interarrival=3.0, transaction_size=config["size"],
        n_transactions=config["n"],
        read_only_fraction=config["read_only"],
        write_fraction=config["write_fraction"],
        n_sites=n_sites, catalog=catalog)


@settings(max_examples=40)
@given(params)
def test_specs_well_formed(config):
    specs = build(config).generate()
    assert len(specs) == config["n"]
    previous = 0.0
    for spec in specs:
        assert spec.arrival >= previous
        previous = spec.arrival
        oids = [oid for oid, __ in spec.operations]
        assert len(oids) == len(set(oids))
        assert all(0 <= oid < config["db_size"] for oid in oids)
        assert 1 <= spec.size <= config["db_size"]
        if spec.txn_type is TransactionType.READ_ONLY:
            assert all(mode is LockMode.READ
                       for __, mode in spec.operations)
        else:
            assert any(mode is LockMode.WRITE
                       for __, mode in spec.operations)


@settings(max_examples=40)
@given(params)
def test_determinism_per_seed(config):
    assert build(config).generate() == build(config).generate()


@settings(max_examples=30)
@given(params, st.integers(min_value=2, max_value=4))
def test_distributed_placement_invariants(config, n_sites):
    catalog = ReplicaCatalog(config["db_size"], n_sites)
    specs = build(config, catalog=catalog, n_sites=n_sites).generate()
    for spec in specs:
        assert 0 <= spec.site < n_sites
        if spec.txn_type is TransactionType.UPDATE:
            for oid, mode in spec.operations:
                if mode is LockMode.WRITE:
                    assert catalog.primary_site(oid) == spec.site


# ----------------------------------------------------------------------
# the generator against its stdlib oracle
# ----------------------------------------------------------------------
seeds = st.integers(min_value=0, max_value=2**32)


@st.composite
def workloads(draw):
    """Generator arguments over both ``sample`` branches: a population
    of at most ``sample``'s set-size threshold (21 for five draws or
    fewer, 85 up to 21) takes the pool branch, a longer one the set
    branch; write fractions under 1 add the read-pool draw."""
    db_size = draw(st.integers(min_value=2, max_value=300))
    size = draw(st.integers(min_value=1, max_value=min(db_size, 40)))
    n_sites = draw(st.integers(min_value=1, max_value=4))
    return dict(
        db_size=db_size, transaction_size=size,
        size_jitter=draw(st.integers(min_value=0,
                                     max_value=min(db_size - size, 6))),
        mean_interarrival=draw(st.floats(min_value=0.01,
                                         max_value=50.0)),
        n_transactions=draw(st.integers(min_value=0, max_value=30)),
        read_only_fraction=draw(st.sampled_from(
            [0.0, 1.0, draw(st.floats(min_value=0.0, max_value=1.0))])),
        write_fraction=draw(st.sampled_from(
            [1.0, draw(st.floats(min_value=0.01, max_value=1.0))])),
        n_sites=n_sites,
        catalog=(ReplicaCatalog(db_size, n_sites)
                 if n_sites > 1 and draw(st.booleans()) else None))


@settings(max_examples=150, deadline=None)
@given(seeds, workloads())
def test_generator_matches_stdlib_oracle(seed, arguments):
    mine = WorkloadGenerator(RngStreams(seed), **arguments)
    oracle = WorkloadGenerator(RngStreams(seed), **arguments)
    assert mine.generate() == generator_oracle.generate(oracle)
    # Same words consumed, stream by stream (a stream only one side
    # created must be untouched on the other).
    for name in set(mine.rng._streams) | set(oracle.rng._streams):
        assert (mine.rng.stream(name).getstate()
                == oracle.rng.stream(name).getstate()), name


@settings(max_examples=200)
@given(seeds, st.integers(min_value=1, max_value=5000))
def test_below_is_randrange(seed, n):
    mine, stdlib = random.Random(seed), random.Random(seed)
    assert ([_below(mine.getrandbits, n) for __ in range(8)]
            == [stdlib.randrange(n) for __ in range(8)])
    assert mine.getstate() == stdlib.getstate()


@settings(max_examples=200)
@given(seeds, st.integers(min_value=0, max_value=2000), st.data())
def test_sample_is_random_sample(seed, n, data):
    k = data.draw(st.integers(min_value=0, max_value=min(n, 400)))
    population = [3 + 7 * i for i in range(n)]
    mine, stdlib = random.Random(seed), random.Random(seed)
    assert (_sample(mine.getrandbits, population, k)
            == stdlib.sample(population, k))
    assert mine.getstate() == stdlib.getstate()
    assert population == [3 + 7 * i for i in range(n)]


@settings(max_examples=200)
@given(seeds, st.integers(min_value=0, max_value=2000))
def test_shuffle_is_random_shuffle(seed, n):
    mine, stdlib = random.Random(seed), random.Random(seed)
    ours, theirs = list(range(n)), list(range(n))
    _shuffle(mine.getrandbits, ours)
    stdlib.shuffle(theirs)
    assert ours == theirs
    assert mine.getstate() == stdlib.getstate()


def test_sample_rejects_what_random_sample_rejects():
    with pytest.raises(ValueError, match="Sample larger than population"):
        _sample(random.Random(1).getrandbits, [1, 2], 3)
    with pytest.raises(ValueError, match="Sample larger than population"):
        _sample(random.Random(1).getrandbits, [1, 2], -1)

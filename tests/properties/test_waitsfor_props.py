"""Property tests: waits-for cycle detection vs networkx as oracle."""

import networkx
from hypothesis import given
from hypothesis import strategies as st

from repro.cc.deadlock import find_cycle_through

NODES = list(range(8))

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    max_size=40)


def successors_of(edge_list):
    """A dict's successor lookup, as the detector passes
    ``blocked_by``."""
    table = {}
    for src, dst in edge_list:
        table.setdefault(src, []).append(dst)
    return lambda node: table.get(node, ())


@given(edges, st.sampled_from(NODES))
def test_cycle_detection_matches_networkx(edge_list, start):
    reference = networkx.DiGraph()
    reference.add_nodes_from(NODES)
    reference.add_edges_from(edge_list)

    found = find_cycle_through(start, successors_of(edge_list))
    on_reference_cycle = any(
        start in cycle for cycle in networkx.simple_cycles(reference))

    if found is not None:
        # Our cycle must be a genuine cycle through start.
        assert start in found
        for i, node in enumerate(found):
            succ = found[(i + 1) % len(found)]
            assert reference.has_edge(node, succ)
        assert on_reference_cycle
    else:
        assert not on_reference_cycle


@given(edges)
def test_detection_is_deterministic(edge_list):
    first = successors_of(edge_list)
    second = successors_of(edge_list)
    for start in NODES:
        a = find_cycle_through(start, first)
        b = find_cycle_through(start, second)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b

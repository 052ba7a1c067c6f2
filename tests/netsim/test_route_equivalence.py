"""Routes equal networkx's weighted shortest paths, ties included.

:meth:`Network.route` is a port of networkx's bidirectional Dijkstra.
Every digest and table in the repository depends on which of several
equal-delay paths it picks, so this test builds random small digraphs
where ties are the rule (propagation delays of 0-3 ms) and checks every
(src, dst) pair against ``networkx.shortest_path(..., weight="weight")``
on a mirror graph built in the same insertion order.  networkx is a
test-only dependency, loaded here and nowhere else.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.boundary import attach_egress
from repro.netsim.partition import CutLink
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Simulator
from repro.sim.shard import Outbox

nx = pytest.importorskip("networkx")

GHOST = "ghost"

#: One construction step: (a, b, delay in ms, duplex, route probed after).
_links = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(1, 7), st.integers(0, 3),
        st.booleans(), st.booleans(),
    ),
    max_size=20,
)


@st.composite
def topologies(draw):
    """Node kinds, link steps, and where (if at all) the ghost cut lands."""
    routers = draw(st.lists(st.booleans(), min_size=2, max_size=8))
    steps = draw(_links)
    ghost = draw(st.none() | st.tuples(
        st.integers(0, len(steps)), st.integers(0, 7), st.integers(1, 3),
    ))
    return routers, steps, ghost


def _route(route, src, dst):
    try:
        return route(src, dst)
    except (ValueError, nx.NetworkXNoPath):
        return None


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_routes_equal_networkx_shortest_paths(topology):
    routers, steps, ghost = topology
    n = len(routers)
    names = [f"n{i}" for i in range(n)]
    net = Network(Simulator(), RandomStreams(0))
    graph = nx.DiGraph()
    for name, is_router in zip(names, routers):
        (net.add_router if is_router else net.add_host)(name)
        graph.add_node(name)

    def add_ghost(at, delay_ms):
        cut = CutLink(src=names[at % n], dst=GHOST, src_shard=0,
                      dst_shard=1, bandwidth_bps=1e6,
                      prop_delay=delay_ms * 1e-3)
        attach_egress(net, cut, Outbox())
        graph.add_edge(cut.src, GHOST, weight=cut.prop_delay)

    for index, (a, offset, delay_ms, duplex, probe) in enumerate(steps):
        if ghost is not None and ghost[0] == index:
            add_ghost(*ghost[1:])
        src, dst = names[a % n], names[(a + offset % n) % n]
        if src == dst:
            continue
        net.add_link(src, dst, 1e6, prop_delay=delay_ms * 1e-3,
                     bidirectional=duplex)
        graph.add_edge(src, dst, weight=delay_ms * 1e-3)
        if duplex:
            graph.add_edge(dst, src, weight=delay_ms * 1e-3)
        if probe:
            # Cache a route so the next link must invalidate it.
            _route(net.route, names[0], dst)
    if ghost is not None and ghost[0] == len(steps):
        add_ghost(*ghost[1:])

    everyone = names + ([GHOST] if ghost is not None else [])
    for src in everyone:
        for dst in everyone:
            expected = _route(
                lambda s, t: nx.shortest_path(graph, s, t, weight="weight"),
                src, dst,
            )
            assert _route(net.route, src, dst) == expected, (src, dst)

import math
import random
import sys
from collections import Counter

import pytest

import hamsurf.hamgraph
from hamsurf.hamgraph import (CycleType, GraphError, HamCycle, LabeledGraph, angular_girth,
                              classify_cycle, coxeter_graph, enumerate_hamiltonian_cycles,
                              label_type, label_weight, labeled_isomorphic,
                              labeled_isomorphisms)
from oracles import (brute_weighted_girth, degree, naive_hamiltonian_cycles,
                     networkx_connected, networkx_hamiltonian_count,
                     networkx_isomorphic, networkx_isomorphisms,
                     networkx_vertex_transitive)


def cycle_graph(n, labels=None):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, labels[i] if labels else None)
    return g


def complete_graph(n):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j, None)
    return g


def rungs(g):
    """The rungs of g: its L edges, as node pairs."""
    return {frozenset((u, v)) for u, v, lbl, _t in g.edges if lbl == "L"}


def from_networkx(G):
    g = LabeledGraph()
    for n in G.nodes:
        g.add_node(n)
    for u, v in G.edges:
        g.add_edge(u, v, None)
    return g


def random_graph(rng, n, p, parallel=False):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, None)
    if parallel and g.edges:
        u, v, _l, _t = g.edges[rng.randrange(len(g.edges))]
        g.add_edge(u, v, None)
    return g


def test_rejects_self_loops():
    g = LabeledGraph()
    with pytest.raises(GraphError):
        g.add_edge("a", "a", None)


def test_rejects_unknown_label():
    g = LabeledGraph()
    with pytest.raises(GraphError):
        g.add_edge(0, 1, "q")


def test_label_weights():
    assert [label_weight(x) for x in ("t", "l", "L")] == [1, 1, 2]
    with pytest.raises(ValueError):
        label_weight("M")


# --- enumeration ---------------------------------------------------------

def test_triangle_has_one_cycle():
    assert len(enumerate_hamiltonian_cycles(cycle_graph(3))) == 1


def test_k4_has_three_cycles():
    assert len(enumerate_hamiltonian_cycles(complete_graph(4))) == 3


def test_too_small_and_disconnected_rejected():
    tiny = LabeledGraph()
    tiny.add_edge(0, 1, None)
    with pytest.raises(GraphError):
        enumerate_hamiltonian_cycles(tiny)
    g = cycle_graph(3)
    g.add_node(99)
    with pytest.raises(GraphError):
        enumerate_hamiltonian_cycles(g)
    two = cycle_graph(3)
    for i in range(3):
        two.add_edge(3 + i, 3 + (i + 1) % 3, None)
    with pytest.raises(GraphError, match="disconnected"):
        enumerate_hamiltonian_cycles(two)


def test_enumeration_matches_permutation_oracle():
    rng = random.Random(1702)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.uniform(0.25, 0.9), parallel=rng.random() < 0.3)
        if not networkx_connected(g):
            continue
        mine = {c.edge_indices for c in enumerate_hamiltonian_cycles(g)}
        assert mine == naive_hamiltonian_cycles(g)
        checked += 1
    assert checked >= 40


def test_parallel_edges_give_distinct_cycles():
    g = cycle_graph(3)
    g.add_edge(0, 1, None)
    assert len(enumerate_hamiltonian_cycles(g)) == 2


def test_canonical_form_is_rotation_reflection_invariant():
    g = complete_graph(5)
    for c in enumerate_hamiltonian_cycles(g):
        n = len(c.nodes)
        rotations = [tuple(c.nodes[r:] + c.nodes[:r]) for r in range(n)]
        rotations += [tuple(reversed(r)) for r in rotations]
        assert min(rotations, key=lambda t: tuple(str(x) for x in t)) == c.nodes


def test_known_cycle_counts_beyond_the_oracle():
    # past the permutation oracle's eight nodes: the Petersen graph is the
    # least cubic graph with no Hamiltonian cycle, and the dodecahedron has
    # 30 (Hamilton's icosian game)
    import networkx as nx

    assert enumerate_hamiltonian_cycles(from_networkx(nx.petersen_graph())) == []
    assert len(enumerate_hamiltonian_cycles(from_networkx(nx.dodecahedral_graph()))) == 30


def test_tutte_graph_has_no_cycle():
    # Tutte's 1946 counterexample to Tait's conjecture: cubic, planar,
    # 3-connected, 46 nodes, and not Hamiltonian
    import networkx as nx

    assert enumerate_hamiltonian_cycles(from_networkx(nx.tutte_graph())) == []


def test_random_cubic_graphs_against_the_oracles():
    # edge sets against the permutation oracle up to 8 nodes; at 10 nodes
    # its 9! orderings are too slow, so counts against networkx
    import networkx as nx

    rng = random.Random(3101)
    with_cycles = 0
    for n in (6, 8, 10) * 6:
        G = nx.random_regular_graph(3, n, seed=rng.randrange(10**6))
        if not nx.is_connected(G):
            continue
        g = from_networkx(G)
        mine = [c.edge_indices for c in enumerate_hamiltonian_cycles(g)]
        assert len(set(mine)) == len(mine)
        if n <= 8:
            assert set(mine) == naive_hamiltonian_cycles(g)
        else:
            assert len(mine) == networkx_hamiltonian_count(g)
        with_cycles += bool(mine)
    assert with_cycles >= 12


def test_parallel_edge_ties_are_sorted_by_edge_indices():
    # K4 with every edge doubled: each node sequence is 16 cycles, one per
    # choice of parallel edge, and they come out by sorted edge indices
    g = complete_graph(4)
    for u, v, _l, _t in list(g.edges):
        g.add_edge(u, v, None)
    cycles = enumerate_hamiltonian_cycles(g)
    keys = [(tuple(map(str, c.nodes)), sorted(c.edge_indices)) for c in cycles]
    assert len(cycles) == 3 * 16 and len(set(c.edge_indices for c in cycles)) == 48
    assert keys == sorted(keys)
    assert Counter(c.nodes for c in cycles) == Counter({c.nodes: 16 for c in cycles})


def str_keyed_cycles(g, cycles):
    """The given cycles in the canonical form and order keyed on ``str``:
    each cycle's walk from the least node by ``str``, read the way whose
    ``str`` tuple is less, and the list sorted by those tuples, then by
    sorted edge indices; walked on g's edges alone."""
    start, keyed = min(g.nodes, key=str), []
    for c in cycles:
        walk, x, left = [start], start, set(c.edge_indices)
        while len(walk) < len(c.edge_indices):
            e = min(e for e in left if x in g.edges[e][:2])
            left.discard(e)
            u, v = g.edges[e][:2]
            x = v if u == x else u
            walk.append(x)
        walk = tuple(walk)
        nodes = min(walk, walk[:1] + walk[:0:-1], key=lambda seq: tuple(map(str, seq)))
        keyed.append((nodes, c.edge_indices))
    return sorted(keyed, key=lambda k: (tuple(map(str, k[0])), sorted(k[1])))


def renumbered(rng, G):
    """G's nodes as distinct integers from 10 to 999, added in random order:
    by ``str`` 100 comes before 20, so ``str`` and number order differ."""
    names = dict(zip(G.nodes, rng.sample(range(10, 1000), len(G))))
    g = LabeledGraph()
    for n in rng.sample(list(G.nodes), len(G)):
        g.add_node(names[n])
    for u, v in G.edges:
        g.add_edge(names[u], names[v], None)
    return g


def test_cycles_keep_the_str_keyed_form_and_order(ladder, V):
    # the search reads node indices in str order; where node strs are
    # distinct that is the str order itself, on every graph
    import networkx as nx

    graphs = [ladder, coxeter_graph(), from_networkx(nx.tutte_graph())]
    graphs += [V.vertex_link(p) for p in V.vertices]
    rng = random.Random(4417)
    while len(graphs) < 6 + 12:
        G = nx.random_regular_graph(3, rng.choice((8, 10, 12)), seed=rng.randrange(10**6))
        if nx.is_connected(G):
            graphs.append(renumbered(rng, G))
    with_cycles = 0
    for g in graphs:
        cycles = enumerate_hamiltonian_cycles(g)
        assert len({str(n) for n in g.nodes}) == g.node_count()
        assert [(c.nodes, c.edge_indices) for c in cycles] == str_keyed_cycles(g, cycles)
        with_cycles += bool(cycles)
    assert with_cycles >= 12
    assert any(sorted(g.nodes, key=str) != sorted(g.nodes) for g in graphs[6:])


def test_coxeter_search_effort():
    # the search branches 98 times on the Coxeter graph; left out, either
    # degree rule costs thousands of branches, so a weaker search shows
    # here as more calls, not only as a slower run
    calls = []

    def profile(frame, event, _arg):
        if (event == "call" and frame.f_code.co_name == "search"
                and frame.f_code.co_filename == hamsurf.hamgraph.__file__):
            calls.append(event)

    g = coxeter_graph()
    sys.setprofile(profile)
    try:
        cycles = enumerate_hamiltonian_cycles(g)
    finally:
        sys.setprofile(None)
    assert cycles == [] and len(calls) == 98


def test_repeated_calls_agree():
    # the search undoes every decision from its trail, so nothing carries
    # over from one call to the next, nor from a branch to its sibling
    import networkx as nx

    for g in (coxeter_graph(), from_networkx(nx.dodecahedral_graph()), complete_graph(6)):
        first = enumerate_hamiltonian_cycles(g)
        assert enumerate_hamiltonian_cycles(g) == first


def test_pendant_node_gives_no_cycles():
    g = complete_graph(4)
    g.add_edge(0, 4, None)
    assert networkx_connected(g)
    assert enumerate_hamiltonian_cycles(g) == []


def test_parallel_closing_edges_are_refused():
    # node 4's two edges go IN at the root, and both parallel 0-1 edges
    # then close the fragment 0-4-1 early, so both are pushed OUT.  The
    # first OUT leaves node 1 two edges that are not OUT, which pushes the
    # second IN above its own pending OUT: only the early-closing refusal
    # stops the 3-cycle 0-1-4 (without it a leaf's walk raises)
    g = LabeledGraph()
    for u, v in [(0, 1), (0, 1), (0, 2), (0, 4), (1, 4), (2, 3), (2, 3)]:
        g.add_edge(u, v, None)
    assert enumerate_hamiltonian_cycles(g) == []
    assert naive_hamiltonian_cycles(g) == set()


@pytest.mark.parametrize("name, count", [
    ("heawood_graph", 24), ("moebius_kantor_graph", 6),
    ("pappus_graph", 36), ("desargues_graph", 24)])
def test_cycle_counts_against_networkx(name, count):
    import networkx as nx

    g = from_networkx(getattr(nx, name)())
    assert len(enumerate_hamiltonian_cycles(g)) == networkx_hamiltonian_count(g) == count


def test_complete_graph_cycle_counts():
    for n in range(3, 8):
        g = complete_graph(n)
        count = math.factorial(n - 1) // 2
        assert len(enumerate_hamiltonian_cycles(g)) == networkx_hamiltonian_count(g) == count


def test_coxeter_with_a_chord_against_networkx():
    # the Coxeter graph has no Hamiltonian cycle; one chord gives it some,
    # so a search that prunes too much shows on a 28-node graph
    g = coxeter_graph()
    g.add_edge("a0", "a2", None)
    assert len(enumerate_hamiltonian_cycles(g)) == networkx_hamiltonian_count(g) == 24


def test_coxeter_with_another_chord_pinned():
    # 28 = networkx_hamiltonian_count of this graph, about 1 s to recount
    g = coxeter_graph()
    g.add_edge("a0", "b3", None)
    assert len(enumerate_hamiltonian_cycles(g)) == 28


def least_node_variant(rng, kind):
    """A random graph on 5-7 nodes whose least node 0 has parallel edges,
    degree 2, or degree 5 or more; away from node 0 it may have a parallel
    edge too.  Each cycle must still come out once, in one direction."""
    n = rng.randint(5, 7)
    g = random_graph(rng, n, 0.6, parallel=True)
    rest = [(u, v) for u, v, _l, _t in g.edges if 0 not in (u, v)]
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for u, v in rest:
        g.add_edge(u, v, None)
    if kind == "parallel":
        picks = rng.sample(range(1, n), 2)
        for m in picks + [picks[0]] * rng.randint(1, 2):
            g.add_edge(0, m, None)
    elif kind == "degree 2":
        for m in rng.sample(range(1, n), 2):
            g.add_edge(0, m, None)
    else:
        for m in rng.sample(range(1, n), 4) + [rng.randrange(1, n)]:
            g.add_edge(0, m, None)
    return g


@pytest.mark.parametrize("kind", ["parallel", "degree 2", "degree 5"])
def test_one_direction_at_the_least_node(kind):
    rng = random.Random(f"least node {kind}")
    checked = with_cycles = 0
    while checked < 25:
        g = least_node_variant(rng, kind)
        if not networkx_connected(g):
            continue
        cycles = enumerate_hamiltonian_cycles(g)
        edge_sets = [c.edge_indices for c in cycles]
        assert len(set(edge_sets)) == len(edge_sets)
        assert set(edge_sets) == naive_hamiltonian_cycles(g)
        checked += 1
        with_cycles += bool(cycles)
    assert with_cycles >= 10


# --- the ladder ----------------------------------------------------------

def test_ladder_shape(ladder):
    assert ladder.node_count() == 8
    assert len(ladder.edges) == 12
    assert all(degree(ladder, n) == 3 for n in ladder.nodes)
    assert len(rungs(ladder)) == 4


def test_ladder_is_vertex_transitive(ladder):
    # the orbit of node 0 under the labeled automorphisms, as check-ladder
    # certifies it, and the unlabeled claim by networkx
    assert {auto[0] for auto in labeled_isomorphisms(ladder, ladder)} == set(range(8))
    assert networkx_vertex_transitive(ladder)


def test_ladder_census(ladder):
    cycles = enumerate_hamiltonian_cycles(ladder)
    assert len(cycles) == 5
    assert Counter(c.rung_count for c in cycles) == Counter({0: 1, 2: 4})


def test_cycles_are_hashable_immutable_values(ladder):
    cycle = enumerate_hamiltonian_cycles(ladder)[0]
    again = HamCycle(nodes=cycle.nodes, edge_indices=cycle.edge_indices, labels=cycle.labels)
    assert again == cycle and len({again, cycle}) == 1
    assert again.rung_count == cycle.labels.count("L")
    for name in ("nodes", "rung_count", "other"):
        with pytest.raises(AttributeError):
            setattr(cycle, name, ())


def test_ladder_cycle_types(ladder):
    cycles = enumerate_hamiltonian_cycles(ladder)
    types = Counter(classify_cycle(c) for c in cycles)
    assert types == Counter({CycleType.TYPE1: 1, CycleType.TYPE2: 2, CycleType.TYPE3: 2})
    assert CycleType.OTHER not in types
    rung_free = [c for c in cycles if c.rung_count == 0]
    assert classify_cycle(rung_free[0]) is CycleType.TYPE1


def test_ladder_cycle_weights(ladder):
    # frozen from enumeration: the rung-free cycle is 8 units, the rest 10
    cycles = enumerate_hamiltonian_cycles(ladder)
    weights = sorted(sum(label_weight(lbl) for lbl in c.labels) for c in cycles)
    assert weights == [8, 10, 10, 10, 10]


def test_two_rung_cycles_omit_consecutive_rungs(ladder):
    cycles = [c for c in enumerate_hamiltonian_cycles(ladder) if c.rung_count == 2]
    assert len(cycles) == 4
    rim = {frozenset((i, (i + 1) % 8)) for i in range(8)}
    for c in cycles:
        edges = {frozenset((ladder.edges[i][0], ladder.edges[i][1]))
                 for i in c.edge_indices}
        omitted = [r for r in rungs(ladder) if r not in edges]
        assert len(omitted) == 2
        (a1, a2), (b1, b2) = (sorted(r) for r in sorted(omitted, key=sorted))
        assert (frozenset((a1, b1)) in rim and frozenset((a2, b2)) in rim) or \
               (frozenset((a1, b2)) in rim and frozenset((a2, b1)) in rim)


def test_two_rung_cycles_used_rungs_three_apart(ladder):
    # the complementary reading: inside each cycle the two used rungs are
    # separated by rim paths of exactly three horizontal edges
    for c in enumerate_hamiltonian_cycles(ladder):
        if c.rung_count != 2:
            continue
        seq = list(c.nodes)
        n = len(seq)
        marks = [i for i in range(n)
                 if frozenset((seq[i], seq[(i + 1) % n])) in rungs(ladder)]
        assert len(marks) == 2
        gap = marks[1] - marks[0] - 1
        assert {gap, n - 2 - gap} == {3}


def test_tutte_parity_on_ladder(ladder):
    counts = Counter()
    for c in enumerate_hamiltonian_cycles(ladder):
        for i in c.edge_indices:
            counts[i] += 1
    assert all(v % 2 == 0 for v in counts.values())


def test_tutte_parity_on_random_cubic_graphs():
    import networkx as nx

    rng = random.Random(77)
    found = 0
    for trial in range(12):
        G = nx.random_regular_graph(3, 8, seed=rng.randrange(10**6))
        if not nx.is_connected(G):
            continue
        g = from_networkx(G)
        cycles = enumerate_hamiltonian_cycles(g)
        if not cycles:
            continue
        found += 1
        counts = Counter()
        for c in cycles:
            for i in c.edge_indices:
                counts[i] += 1
        for idx in range(len(g.edges)):
            assert counts.get(idx, 0) % 2 == 0
    assert found >= 5


def test_classify_requires_labels():
    g = cycle_graph(3)
    with pytest.raises(GraphError):
        classify_cycle(enumerate_hamiltonian_cycles(g)[0])


@pytest.mark.parametrize("labels, ctype", [
    ("ttttllll", CycleType.TYPE1),
    ("ttllllLL", CycleType.TYPE2),
    ("ttttllLL", CycleType.TYPE3),
])
def test_label_type_reads_the_multiset(labels, ctype):
    # the order of the labels does not matter, only their multiset
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(labels)
        rng.shuffle(shuffled)
        assert label_type(shuffled) is ctype
        assert label_type(iter(shuffled)) is ctype


@pytest.mark.parametrize("labels", [
    "", "ttttlll", "ttttlllll", "tttllllL", "ttttllL", "ttttllLLL", "tttlllLL",
    "ttttllLx", "LLLLLLLL",
])
def test_label_type_near_misses_are_other(labels):
    assert label_type(labels) is CycleType.OTHER


# --- isomorphism ---------------------------------------------------------

def test_ladder_self_isomorphism(ladder):
    iso = labeled_isomorphic(ladder, ladder)
    assert iso is not None
    assert sorted(iso) == sorted(iso.values())


def test_ladder_not_isomorphic_to_rim(ladder):
    rim = cycle_graph(8, labels=["l", "t"] * 4)
    assert labeled_isomorphic(ladder, rim) is None
    # the rim develops onto the ladder's rim, but misses the rungs
    assert labeled_isomorphic(rim, ladder) is None


def coloured_cubic(rng, n):
    """A connected graph on nodes 0..n-1 (n even) made of three random
    perfect matchings, labeled t, l and L: properly 3-edge-coloured."""
    while True:
        g = LabeledGraph()
        for i in range(n):
            g.add_node(i)
        for lbl in ("t", "l", "L"):
            order = rng.sample(range(n), n)
            for u, v in zip(order[::2], order[1::2]):
                g.add_edge(u, v, lbl)
        if networkx_connected(g):
            return g


def relabeled(g, edges, perm=None):
    """A graph on g's nodes, renamed by perm, with the given edges."""
    perm = perm or {n: n for n in g.nodes}
    h = LabeledGraph()
    for n in g.nodes:
        h.add_node(perm[n])
    for u, v, lbl, _t in edges:
        h.add_edge(perm[u], perm[v], lbl)
    return h


def shuffled(g, rng):
    """g with its nodes renamed at random and its edges in random order."""
    images = rng.sample(g.nodes, len(g.nodes))
    return relabeled(g, rng.sample(g.edges, len(g.edges)), dict(zip(g.nodes, images)))


def map_set(maps):
    return {frozenset(m.items()) for m in maps}


def labeled_edges(g, perm):
    """The multiset of g's edges as (node pair, label), nodes renamed by perm."""
    return Counter((frozenset((perm[u], perm[v])), lbl) for u, v, lbl, _t in g.edges)


def test_isomorphism_respects_labels():
    rng = random.Random(11)
    g = coloured_cubic(rng, 8)
    # one edge recoloured: the source is no longer properly coloured
    u, v, lbl, _t = g.edges[0]
    recoloured = relabeled(g, [(u, v, {"t": "l", "l": "L", "L": "t"}[lbl], None)]
                           + g.edges[1:])
    assert labeled_isomorphic(recoloured, g) is None
    assert not networkx_isomorphic(recoloured, g)
    with pytest.raises(GraphError):
        labeled_isomorphic(g, recoloured)


def test_isomorphism_against_networkx():
    rng = random.Random(4242)
    switched = Counter()
    for _ in range(60):
        g = coloured_cubic(rng, rng.randrange(8, 41, 2))
        h = shuffled(g, rng)
        maps = list(labeled_isomorphisms(g, h))
        assert maps and map_set(maps) == map_set(networkx_isomorphisms(g, h))
        assert labeled_edges(g, maps[0]) == labeled_edges(h, {n: n for n in h.nodes})
        # two L edges swap partners: a, b and c, d become a, d and c, b; the
        # L edges are a matching, so the four nodes differ and no loop forms
        (i, (a, b, _l, _t)), (j, (c, d, _l2, _t2)) = rng.sample(
            [(k, e) for k, e in enumerate(h.edges) if e[2] == "L"], 2)
        edges = [e for k, e in enumerate(h.edges) if k not in (i, j)]
        switch = relabeled(h, edges + [(a, d, "L", None), (c, b, "L", None)])
        if not networkx_connected(switch):
            continue
        verdict = labeled_isomorphic(g, switch) is not None
        assert verdict == networkx_isomorphic(g, switch)
        switched[verdict] += 1
    assert sum(switched.values()) >= 40 and set(switched) == {True, False}


def test_differing_node_counts_yield_nothing(ladder):
    # a double cover develops onto its base from every node, but not one
    # to one; a spare node is never reached
    rim = cycle_graph(8, labels=["l", "t"] * 4)
    assert labeled_isomorphic(cycle_graph(16, labels=["l", "t"] * 8), rim) is None
    spare = relabeled(ladder, ladder.edges)
    spare.add_node(8)
    assert labeled_isomorphic(spare, ladder) is None


def test_disjoint_k4s_are_not_the_ladder(ladder):
    # two properly coloured K4s: 8 nodes and 12 edges, like the ladder
    two_k4 = LabeledGraph()
    for base in (0, 4):
        for lbl, pairs in (("t", ((0, 1), (2, 3))), ("l", ((0, 2), (1, 3))),
                           ("L", ((0, 3), (1, 2)))):
            for u, v in pairs:
                two_k4.add_edge(base + u, base + v, lbl)
    assert labeled_isomorphic(two_k4, ladder) is None
    assert not networkx_isomorphic(two_k4, ladder)
    with pytest.raises(GraphError, match="connected"):
        labeled_isomorphic(ladder, two_k4)


@pytest.mark.parametrize("damage", ["unlabeled edge", "two l edges", "disconnected"])
def test_isomorphism_target_must_be_connected_and_properly_coloured(ladder, damage):
    edges = list(ladder.edges)
    if damage == "unlabeled edge":
        edges[0] = (*edges[0][:2], None, None)
    elif damage == "two l edges":
        edges[1] = (*edges[1][:2], "l", None)
    target = relabeled(ladder, edges)
    if damage == "disconnected":
        target.add_node(8)
    with pytest.raises(GraphError):
        labeled_isomorphic(ladder, target)


def test_enumeration_makes_one_development_per_target_node(monkeypatch):
    # a return to backtracking would show here as more developments, not as
    # a slower run
    calls = []

    def counting(*args):
        calls.append(args)
        return develop(*args)

    develop = hamsurf.hamgraph._develop
    monkeypatch.setattr(hamsurf.hamgraph, "_develop", counting)
    g = coloured_cubic(random.Random(40), 40)
    autos = list(labeled_isomorphisms(g, g))
    assert {n: n for n in g.nodes} in autos
    assert len(calls) <= g.node_count() == 40


def test_isomorphism_deterministic(ladder):
    maps = [labeled_isomorphic(ladder, ladder) for _ in range(3)]
    assert maps[0] == maps[1] == maps[2]


def test_all_isomorphisms_of_ladder(ladder, V):
    # the labeled ladder has a dihedral symmetry group of order 8, and each
    # link of V has 8 isomorphisms onto it: exactly those networkx lists
    autos = list(labeled_isomorphisms(ladder, ladder))
    assert len(autos) == len(map_set(autos)) == 8
    assert map_set(autos) == map_set(networkx_isomorphisms(ladder, ladder))
    assert V.vertices == ("P", "Q", "R")
    for v in V.vertices:
        link = V.vertex_link(v)
        maps = map_set(labeled_isomorphisms(link, ladder))
        assert len(maps) == 8 and maps == map_set(networkx_isomorphisms(link, ladder))


# --- angular girth -------------------------------------------------------

def test_angular_girth_of_ladder(ladder):
    assert angular_girth(ladder) == 6


def test_angular_girth_triangle_and_rim():
    assert angular_girth(cycle_graph(3, labels=["t"] * 3)) == 3
    assert angular_girth(cycle_graph(8, labels=["l", "t"] * 4)) == 8


def test_angular_girth_requires_labels():
    with pytest.raises(GraphError):
        angular_girth(cycle_graph(4))


def test_angular_girth_against_brute_force():
    from hamsurf.hamgraph import LABEL_WEIGHTS

    rng = random.Random(999)
    checked = 0
    for _ in range(30):
        n = rng.randint(3, 7)
        g = LabeledGraph()
        for i in range(n):
            g.add_node(i)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    g.add_edge(i, j, rng.choice(["t", "l", "L"]))
        ref = brute_weighted_girth(g, LABEL_WEIGHTS)
        if ref is None:
            continue
        assert angular_girth(g) == ref
        checked += 1
    assert checked >= 15


# --- the Coxeter graph ---------------------------------------------------

def test_coxeter_graph_is_the_fano_plane_construction():
    # an independent definition: the 3-subsets of {0..6} that are not lines
    # of a Fano plane, joined when disjoint
    from itertools import combinations

    lines = {frozenset((i, (i + 1) % 7, (i + 3) % 7)) for i in range(7)}
    triples = [t for t in map(frozenset, combinations(range(7), 3)) if t not in lines]
    fano = LabeledGraph()
    for t, u in combinations(triples, 2):
        if not t & u:
            fano.add_edge(t, u, None)
    assert fano.node_count() == 28
    assert networkx_isomorphic(coxeter_graph(), fano)


def test_coxeter_fixture_shape():
    g = coxeter_graph()
    assert g.node_count() == 28
    assert len(g.edges) == 42
    assert all(degree(g, n) == 3 for n in g.nodes)
    # unweighted girth 7, via breadth-first search per edge
    from collections import deque
    adj = {n: [] for n in g.nodes}
    for idx, (u, v, _l, _t) in enumerate(g.edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    girth = None
    for idx, (u, v, _l, _t) in enumerate(g.edges):
        dist = {u: 0}
        q = deque([u])
        while q:
            x = q.popleft()
            for y, j in adj[x]:
                if j != idx and y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if v in dist:
            girth = dist[v] + 1 if girth is None else min(girth, dist[v] + 1)
    assert girth == 7

import math
import random
from collections import Counter
from importlib import resources

import pytest

from hamsurf.hamgraph import (CycleType, GraphError, LabeledGraph, angular_girth,
                              classify_cycle, enumerate_hamiltonian_cycles,
                              is_vertex_transitive, label_weight, labeled_isomorphic,
                              labeled_isomorphisms, moebius_ladder, parse_graph_file)
from oracles import (brute_weighted_girth, degree, naive_hamiltonian_cycles,
                     networkx_hamiltonian_count, networkx_isomorphic,
                     networkx_vertex_transitive)


def cycle_graph(n, labels=None):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, labels[i] if labels else None)
    return g


def unlabeled(g):
    """A copy of g with the same nodes and edges and no edge labels."""
    bare = LabeledGraph()
    for n in g.nodes:
        bare.add_node(n)
    for u, v, _lbl, _tag in g.edges:
        bare.add_edge(u, v)
    return bare


def complete_graph(n):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def rungs(g):
    """The rungs of g: its L edges, as node pairs."""
    return {frozenset((u, v)) for u, v, lbl, _t in g.edges if lbl == "L"}


def from_networkx(G):
    g = LabeledGraph()
    for n in G.nodes:
        g.add_node(n)
    for u, v in G.edges:
        g.add_edge(u, v)
    return g


def random_graph(rng, n, p, parallel=False):
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    if parallel and g.edges:
        u, v, _l, _t = g.edges[rng.randrange(len(g.edges))]
        g.add_edge(u, v)
    return g


def test_rejects_self_loops():
    g = LabeledGraph()
    with pytest.raises(GraphError):
        g.add_edge("a", "a")


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
    tiny.add_edge(0, 1)
    with pytest.raises(GraphError):
        enumerate_hamiltonian_cycles(tiny)
    g = cycle_graph(3)
    g.add_node(99)
    with pytest.raises(GraphError):
        enumerate_hamiltonian_cycles(g)


def test_enumeration_matches_permutation_oracle():
    rng = random.Random(1702)
    checked = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.uniform(0.25, 0.9), parallel=rng.random() < 0.3)
        if not g.is_connected():
            continue
        mine = {c.edge_indices for c in enumerate_hamiltonian_cycles(g)}
        assert mine == naive_hamiltonian_cycles(g)
        checked += 1
    assert checked >= 40


def test_parallel_edges_give_distinct_cycles():
    g = cycle_graph(3)
    g.add_edge(0, 1)
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


def test_pendant_node_gives_no_cycles():
    g = complete_graph(4)
    g.add_edge(0, 4)
    assert g.is_connected()
    assert enumerate_hamiltonian_cycles(g) == []


def coxeter_graph():
    text = resources.files("hamsurf.data").joinpath("coxeter.graph").read_text()
    return parse_graph_file(text)


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
    # so a search that prunes too much shows at the size of the fixture
    g = coxeter_graph()
    g.add_edge("a0", "a2")
    assert len(enumerate_hamiltonian_cycles(g)) == networkx_hamiltonian_count(g) == 24


def test_coxeter_with_another_chord_pinned():
    # 28 = networkx_hamiltonian_count of this graph, about 1 s to recount
    g = coxeter_graph()
    g.add_edge("a0", "b3")
    assert len(enumerate_hamiltonian_cycles(g)) == 28


def least_node_variant(rng, kind):
    """A random graph on 5-7 nodes whose least node 0 has parallel edges,
    degree 2, or degree 5 or more; away from node 0 it may have a parallel
    edge too, which can let a cycle's reverse copy pass the pruning rule."""
    n = rng.randint(5, 7)
    g = random_graph(rng, n, 0.6, parallel=True)
    rest = [(u, v) for u, v, _l, _t in g.edges if 0 not in (u, v)]
    g = LabeledGraph()
    for i in range(n):
        g.add_node(i)
    for u, v in rest:
        g.add_edge(u, v)
    if kind == "parallel":
        picks = rng.sample(range(1, n), 2)
        for m in picks + [picks[0]] * rng.randint(1, 2):
            g.add_edge(0, m)
    elif kind == "degree 2":
        for m in rng.sample(range(1, n), 2):
            g.add_edge(0, m)
    else:
        for m in rng.sample(range(1, n), 4) + [rng.randrange(1, n)]:
            g.add_edge(0, m)
    return g


@pytest.mark.parametrize("kind", ["parallel", "degree 2", "degree 5"])
def test_one_direction_at_the_least_node(kind):
    rng = random.Random(f"least node {kind}")
    checked = with_cycles = 0
    while checked < 25:
        g = least_node_variant(rng, kind)
        if not g.is_connected():
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
    assert ladder.edge_count() == 12
    assert all(degree(ladder, n) == 3 for n in ladder.nodes)
    assert len(rungs(ladder)) == 4


def test_ladder_is_vertex_transitive(ladder):
    assert is_vertex_transitive(ladder)
    paw = cycle_graph(3)
    paw.add_edge(2, 3)
    assert not is_vertex_transitive(paw)


def test_vertex_transitivity_against_networkx_orbits():
    import networkx as nx

    paw = cycle_graph(3)
    paw.add_edge(2, 3)
    graphs = {name: from_networkx(getattr(nx, name)())
              for name in ("petersen_graph", "dodecahedral_graph", "heawood_graph",
                           "frucht_graph")}
    graphs["paw"] = paw
    verdicts = {name: is_vertex_transitive(g) for name, g in graphs.items()}
    assert verdicts == {name: networkx_vertex_transitive(g) for name, g in graphs.items()}
    assert verdicts == {"petersen_graph": True, "dodecahedral_graph": True,
                        "heawood_graph": True, "frucht_graph": False, "paw": False}


def test_ladder_census(ladder):
    cycles = enumerate_hamiltonian_cycles(ladder)
    assert len(cycles) == 5
    assert Counter(c.rung_count for c in cycles) == Counter({0: 1, 2: 4})


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
        for idx in range(g.edge_count()):
            assert counts.get(idx, 0) % 2 == 0
    assert found >= 5


def test_classify_requires_labels():
    g = cycle_graph(3)
    with pytest.raises(GraphError):
        classify_cycle(enumerate_hamiltonian_cycles(g)[0])


# --- isomorphism ---------------------------------------------------------

def test_ladder_self_isomorphism(ladder):
    iso = labeled_isomorphic(ladder, ladder)
    assert iso is not None
    assert sorted(iso) == sorted(iso.values())


def test_ladder_not_isomorphic_to_rim(ladder):
    rim = cycle_graph(8, labels=["l", "t"] * 4)
    assert labeled_isomorphic(ladder, rim) is None


def test_isomorphism_respects_labels():
    g1 = cycle_graph(3, labels=["t", "t", "t"])
    g2 = cycle_graph(3, labels=["t", "t", "l"])
    assert labeled_isomorphic(g1, g2) is None
    assert next(labeled_isomorphisms(unlabeled(g1), unlabeled(g2)), None) is not None


def test_isomorphism_against_networkx():
    rng = random.Random(4242)
    agreements = 0
    for _ in range(40):
        n = rng.randint(3, 7)
        g1 = random_graph(rng, n, rng.uniform(0.3, 0.8))
        labels = [rng.choice(["t", "l", "L"]) for _ in g1.edges]
        g1l = LabeledGraph()
        for i in range(n):
            g1l.add_node(i)
        for (u, v, _l, _t), lbl in zip(g1.edges, labels):
            g1l.add_edge(u, v, lbl)
        perm = list(range(n))
        rng.shuffle(perm)
        g2l = LabeledGraph()
        for i in range(n):
            g2l.add_node(i)
        edge_order = list(g1l.edges)
        rng.shuffle(edge_order)
        for (u, v, lbl, _t) in edge_order:
            g2l.add_edge(perm[u], perm[v], lbl)
        mine = labeled_isomorphic(g1l, g2l) is not None
        assert mine == networkx_isomorphic(g1l, g2l)
        assert mine
        # and against a graph with one relabeled edge
        if g2l.edges:
            u, v, lbl, _t = g2l.edges[0]
            g3 = LabeledGraph()
            for i in range(n):
                g3.add_node(i)
            swapped = {"t": "l", "l": "L", "L": "t"}
            g3.add_edge(u, v, swapped[lbl])
            for (a, b, l2, _t2) in g2l.edges[1:]:
                g3.add_edge(a, b, l2)
            assert (labeled_isomorphic(g2l, g3) is not None) == networkx_isomorphic(g2l, g3)
        agreements += 1
    assert agreements == 40


def test_isomorphism_deterministic(ladder):
    maps = [labeled_isomorphic(ladder, ladder) for _ in range(3)]
    assert maps[0] == maps[1] == maps[2]


def test_all_isomorphisms_of_ladder(ladder):
    # the labeled ladder has a dihedral symmetry group of order 8
    autos = list(labeled_isomorphisms(ladder, ladder))
    assert len(autos) == 8
    assert len({tuple(sorted(a.items())) for a in autos}) == 8


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


# --- fixture parsing ------------------------------------------------------

def test_parse_graph_file_roundtrip():
    text = "node a\nnode b\nnode c\nedge a b L\nedge b c\n# comment\n"
    g = parse_graph_file(text)
    assert g.node_count() == 3 and g.edge_count() == 2
    assert rungs(g) == {frozenset(("a", "b"))}


def test_parse_graph_file_errors():
    with pytest.raises(GraphError, match="line 1"):
        parse_graph_file("edge a a\n")
    with pytest.raises(GraphError, match="line 2"):
        parse_graph_file("node a\nwhat is this\n")
    # a rung is an edge labeled L; there is no separate rung record
    with pytest.raises(GraphError, match="line 3: malformed record 'rung a b'"):
        parse_graph_file("node a\nnode b\nrung a b\n")


def test_coxeter_fixture_shape():
    g = coxeter_graph()
    assert g.node_count() == 28
    assert g.edge_count() == 42
    assert all(degree(g, n) == 3 for n in g.nodes)
    # unweighted girth 7, via breadth-first search per edge
    from collections import deque
    adj = g.adjacency()
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

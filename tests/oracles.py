"""Independent reference implementations used only by the tests.

These deliberately avoid the library's algorithms: Hamiltonian cycles by
raw permutation search, orientability by trying all face orientation
assignments, weighted girth by enumerating simple cycles, isomorphism via
networkx VF2.
"""

from itertools import permutations, product


def degree(g, n):
    """Number of edge ends of the LabeledGraph g at node n."""
    return sum((u == n) + (v == n) for (u, v, _l, _t) in g.edges)


def naive_hamiltonian_cycles(g):
    """All Hamiltonian cycles as frozensets of edge indices, brute force."""
    nodes = g.sorted_nodes()
    n = len(nodes)
    pairs = {}
    for idx, (u, v, _l, _t) in enumerate(g.edges):
        pairs.setdefault(frozenset((u, v)), []).append(idx)
    out = set()
    if n < 3:
        return out
    first = nodes[0]
    for perm in permutations(nodes[1:]):
        seq = [first] + list(perm)
        keys = [frozenset((seq[i], seq[(i + 1) % n])) for i in range(n)]
        if any(k not in pairs for k in keys):
            continue
        for combo in product(*(pairs[k] for k in keys)):
            out.add(frozenset(combo))
    return out


def brute_orientable(cx):
    """Try all 2^F orientation flips; None when some edge is not 2-sided."""
    fids = cx.face_ids()
    sides = {}
    for sym in cx.edges:
        s = cx.edge_sides(sym)
        if len(s) != 2:
            return None
        sides[sym] = s
    for bits in product((0, 1), repeat=len(fids)):
        flip = dict(zip(fids, bits))
        good = True
        for sym, ((f1, _i1, s1), (f2, _i2, s2)) in sides.items():
            d1 = s1 * (-1 if flip[f1] else 1)
            d2 = s2 * (-1 if flip[f2] else 1)
            if d1 == d2:
                good = False
                break
        if good:
            return True
    return False


def brute_weighted_girth(g, weights):
    """Minimum cycle weight by enumerating all simple cycles."""
    adj = g.adjacency()
    best = [None]

    def walk(start, node, used_edges, used_nodes, total):
        for nbr, idx in adj[node]:
            if idx in used_edges:
                continue
            w = total + weights[g.edges[idx][2]]
            if best[0] is not None and w >= best[0]:
                continue
            if nbr == start and len(used_edges) >= 1:
                best[0] = w if best[0] is None or w < best[0] else best[0]
                continue
            if nbr in used_nodes:
                continue
            walk(start, nbr, used_edges | {idx}, used_nodes | {nbr}, w)

    for start in g.sorted_nodes():
        walk(start, start, frozenset(), frozenset((start,)), 0)
    return best[0]


def to_networkx(g, labeled=True):
    import networkx as nx

    G = nx.MultiGraph()
    for n in g.nodes:
        G.add_node(n)
    for (u, v, lbl, _t) in g.edges:
        G.add_edge(u, v, label=lbl if labeled else None)
    return G


def networkx_isomorphic(g1, g2):
    import networkx as nx

    G1, G2 = to_networkx(g1), to_networkx(g2)
    return nx.is_isomorphic(
        G1, G2,
        edge_match=lambda a, b: sorted(d["label"] or "" for d in a.values())
        == sorted(d["label"] or "" for d in b.values()))

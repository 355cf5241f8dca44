"""Exhaustive surface census on a ball: the independent oracle.

Depth-first search over in/out assignments of the constrained faces, in a
fixed order along face adjacency, with two local prune rules:

* the edge rule: a constrained edge never carries more than two member
  sides and keeps two reachable among member and undecided sides;
* the cycle rule: a member corner at an interior vertex never closes a
  trace cycle through fewer germs than the vertex has.

The constrained edges are the interior edges and every edge at an
interior vertex; the constrained faces are those with a side on one of
them, which include every face with a corner at an interior vertex.

The lemma that makes two rules enough: a germ of a vertex is one end of
an edge, and its corners are exactly that edge's face-sides, since each
side (f, i) on an edge gives one corner at each of its two germs.  So the
trace degree of a germ always equals the member sides of its edge, and
the edge rule on the edges at an interior vertex is the rule that no germ
has trace degree above 2 and that every germ keeps two usable corners.
Once every face at an interior vertex is decided, its germs all have
degree 2; the trace is then a union of cycles through every germ, each
checked by the cycle rule when it closed, so it is one spanning cycle.

Full assignments are kept when every constrained edge has coverage
exactly 2 (so every interior vertex carries one spanning trace cycle) and
the member set is nonempty.  The members need not be connected: a surface
cut down to a ball need not stay connected, so a census that demanded it
could miss a local solution.  Without the test it returns a superset of
the connected solutions, and its agreement with propagation's pair (whose
connectivity ``surfaces.is_enveloping`` checks) says at least as much as
before.  Nothing here knows about cycle types or the ladder, and the
module imports nothing else from the package: agreement with the
propagation engine is the point of the module.

The search is incremental.  Faces, constrained edges and the germs of
interior vertices are numbered once per call, and deciding a face updates
only the state of its own cells: per edge, the member sides and the
undecided sides; per germ, a union-find over the germs joined by member
corners, by size and without path compression.  Backtracking undoes a
decision by reversing its counter updates and popping the unions it made
off a stack.
"""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    pass


def _face_order(ball, rel):
    """The faces of rel in decision order: breadth first through the edges
    of the ball from the shallowest face, so that the local checks
    constrain every new decision immediately."""
    if not rel:
        return []
    cx = ball.complex

    def key(f):
        return (ball.face_depth(f), int(f[1:]))

    neighbors = {f: set() for f in rel}
    for sym in cx.edges:
        inc = [fid for fid, _i, _s in cx.edge_sides(sym) if fid in rel]
        for a in inc:
            for b in inc:
                if a != b:
                    neighbors[a].add(b)
    start = min(rel, key=key)
    order = [start]
    placed = {start}
    frontier = sorted(neighbors[start], key=key)
    while len(order) < len(rel):
        if not frontier:
            frontier = sorted(rel - placed, key=key)[:1]
        f = frontier.pop(0)
        if f in placed:
            continue
        order.append(f)
        placed.add(f)
        frontier.extend(g for g in sorted(neighbors[f], key=key) if g not in placed)
    return order


def count_surfaces_exhaustive(ball, budget=10**8):
    """All nonempty face sets of the ball with coverage 2 on every interior
    edge and one spanning trace cycle at every interior vertex, connected
    or not, as sorted id tuples, and the number of search nodes visited.

    Raises BudgetExceeded when the number of explored assignments passes
    the budget.

    Lemma: each face-side on an edge gives one corner at each of the
    edge's two germs, so a germ's trace degree is the number of member
    sides of its edge.  The edge rule on the edges at an interior vertex
    is therefore also the rule that no germ branches and every germ keeps
    two usable corners, and the two rules reject exactly the partial
    assignments that a search re-checking every edge, germ and vertex of
    a decided face from scratch rejects.  Since the checks of a cell can
    only change when one of its faces is decided, it is enough to
    re-check what that decision changed:

    * Member sides only grow and undecided sides only shrink, so only the
      counters just moved can newly pass a bound.
    * With every germ degree at most 2, a member corner whose two germs
      already share a component closes a cycle.  A closed cycle is a
      component that no later corner can join without a degree above 2,
      so the trace is spoiled exactly when a cycle closes with fewer germs
      than the vertex has.
    * A decided vertex needs no check of its own: its edges have no
      undecided sides left, so the edge rule holds each germ at degree
      exactly 2, and every cycle of the trace passed the cycle rule.
    * An edge with fewer than two sides fails whatever is decided.  On a
      ball over V it cannot occur, since interior edges have three sides;
      on a damaged ball the search checks it once, at its root, and
      visits nothing else.
    """
    cx = ball.complex
    vertices = sorted(ball.interior_vertices, key=lambda v: (ball.depth[v], int(v[1:])))
    edges = sorted(ball.interior_edges | {sym for v in vertices for sym, _ in cx.germs_at(v)},
                   key=str)
    edge_faces = [[fid for fid, _i, _s in cx.edge_sides(sym)] for sym in edges]
    order = _face_order(ball, set().union(*edge_faces))
    pos = {f: k for k, f in enumerate(order)}
    n = len(order)

    # number every cell once; per face k, the cells its decision touches
    edges_of = [[] for _ in range(n)]
    for e, faces in enumerate(edge_faces):
        for f in faces:
            edges_of[pos[f]].append(e)
    # per face, its corners as pairs of germs, numbered on first sight; per
    # germ, the number of germs at its vertex
    pairs_of = [[] for _ in range(n)]
    span = []
    for v in vertices:
        germ = {}
        for f, i in cx.corners_at(v):
            a, b = (germ.setdefault(g, len(span) + len(germ)) for g in cx.corner_germs(f, i))
            pairs_of[pos[f]].append((a, b))
        span += [len(germ)] * len(germ)

    member_sides = [0] * len(edges)
    open_sides = [len(faces) for faces in edge_faces]
    parent = list(range(len(span)))
    size = [1] * len(span)
    unions = []

    def find(g):
        while parent[g] != g:
            g = parent[g]
        return g

    def keep(k):
        ok = True
        for e in edges_of[k]:
            member_sides[e] += 1
            open_sides[e] -= 1
            if member_sides[e] > 2:
                ok = False
        for a, b in pairs_of[k]:
            ra, rb = find(a), find(b)
            if ra == rb:
                if size[ra] != span[a]:
                    ok = False
            else:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                unions.append(rb)
        return ok

    def unkeep(k, mark):
        while len(unions) > mark:
            rb = unions.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb
        for e in edges_of[k]:
            member_sides[e] -= 1
            open_sides[e] += 1

    def drop(k):
        ok = True
        for e in edges_of[k]:
            open_sides[e] -= 1
            if member_sides[e] + open_sides[e] < 2:
                ok = False
        return ok

    def undrop(k):
        for e in edges_of[k]:
            open_sides[e] += 1

    solutions = []
    tried = [0] * n  # values tried at each level: 0, 1 (kept), 2 (dropped)
    marks = [0] * n
    nodes = 1
    if nodes > budget:
        raise BudgetExceeded(f"census exceeded {budget} nodes")
    # the edge rule at the root: an edge with fewer than two sides fails
    # whatever is decided, so the search stops there
    k = 0 if all(s >= 2 for s in open_sides) else -1
    while k >= 0:
        if k == n:
            members = [order[j] for j in range(n) if tried[j] == 1]
            if members and all(m == 2 for m in member_sides):
                solutions.append(tuple(sorted(members)))
            k -= 1
            continue
        t = tried[k]
        if t == 1:
            unkeep(k, marks[k])
        elif t == 2:
            undrop(k)
        if t == 2:
            tried[k] = 0
            k -= 1
            continue
        tried[k] = t + 1
        if t == 0:
            marks[k] = len(unions)
            ok = keep(k)
        else:
            ok = drop(k)
        if ok:
            k += 1
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"census exceeded {budget} nodes")
    return sorted(set(solutions)), nodes

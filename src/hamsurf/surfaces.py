"""Hamiltonian-surface predicates and unique-extension propagation.

A candidate surface is a FaceSet: a subset of the faces of an ambient
complex, either a compact quotient (Complex2) or a Ball.  All predicates
quantify over interior cells only; in a compact complex every cell is
interior, in a ball interiority comes from the star-completeness flags.

Formalization used throughout: a surface "visits every edge precisely
once" iff every (interior) edge lies in exactly two member faces, one
surface sheet per edge.  "No multiple vertex" iff the trace of the member
faces in each (interior) vertex link is one spanning cycle, as
``corecomplex.trace_status`` classifies it.  In a ball, traces are
classified once per lifted trace: the interior vertices over one vertex of
V whose member corners lift to the same corners there share one reading
(``FaceSet.traces``).

Propagation forces by the vertex rule alone: the admissible link cycles
at an interior vertex are the type-3 cycles of its image in V, enumerated
once per V (``Complex2.type3_cycles``) and carried to the vertex by the
inverse of ``Ball.corner_lift``.  Coverage 2 on an interior edge follows
from that rule at the edge's interior end (``_propagate``).  ``_rule``
lifts a vertex's cycles and compiles them into face-id lists once per ball
vertex (``_VertexRule``, kept in ``Ball.vertex_rules``): a check scans the
lists for the admissible cycles and reads the faces to settle from a table
keyed by that set.  A run's result depends on the seed only through the
anchor vertex and the chosen link cycle, so each ball keeps one result per
such pair, its key, and every seed that maps to the key shares it
(``propagate_surface``).  The same table lets a run stop early: a check
that narrows a vertex's admissible cycles to one settles every face there,
so the run's state then holds the start state of that vertex's key with
that cycle, and when that key is known to end in a surface that agrees
with the run's start, the run ends in that surface (the lemma at
``_propagate``).  On V's cover almost every run stops after a few steps,
and all keys share the two surfaces' results.  Forced steps commute, so
the order in which the worklist is processed does not change the result;
the tests check this by substituting a worklist that pops a random entry.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property

from .corecomplex import Complex2, LOZENGE, trace_status
from .cover import Ball
from .hamgraph import components


class SurfaceError(ValueError):
    pass


class Contradiction(Exception):
    """Propagation dead end; carries the blocking cell and the trail."""

    def __init__(self, cell, reason, trail):
        super().__init__(f"contradiction at {cell}: {reason}")
        self.cell = cell
        self.reason = reason
        self.trail = trail


class FaceSet:
    """A candidate surface: member face ids inside an ambient complex.

    The ambient is a Complex2, where every cell is interior, or a Ball,
    whose star flags mark the interior cells; both are resolved once here.
    """

    def __init__(self, ambient, members):
        self.ball = ambient if isinstance(ambient, Ball) else None
        if self.ball is not None:
            self.cx = ambient.complex
            self.interior_vertices = sorted(ambient.interior_vertices, key=str)
            self.interior_edges = sorted(ambient.interior_edges, key=str)
        elif isinstance(ambient, Complex2):
            self.cx = ambient
            self.interior_vertices = list(ambient.vertices)
            self.interior_edges = ambient.edge_symbols()
        else:
            raise SurfaceError(f"unsupported ambient {type(ambient).__name__}")
        self.members = frozenset(members)
        unknown = [f for f in self.members if f not in self.cx.faces]
        if unknown:
            raise SurfaceError(f"faces not in ambient: {sorted(unknown)}")

    @cached_property
    def traces(self):
        """(v, status, detail) of ``trace_status`` at each interior vertex,
        in ``interior_vertices`` order; computed once per face set.

        In a ball, ``corner_lift(v)`` is a label-preserving isomorphism of
        v's link onto the link of its image p, so it carries the trace of
        the members at v onto the lifted member corners at p.  Two vertices
        with one key, p and those lifted corners, have isomorphic traces and
        so one status, path count and cycle type: the first is classified
        on its own link and the later ones share its result.  Never shared:
        a vertex with no lift (a damaged ball may still claim it interior),
        and a violation, whose detail may name a germ of v's own link.
        """
        cx, members, ball = self.cx, self.members, self.ball
        shared = {}
        out = []
        for v in self.interior_vertices:
            lift = ball.corner_lift(v) if ball is not None else None
            if lift is not None:
                key = (ball.vertex_image[v],
                       frozenset(lift[c] for c in cx.corners_at(v) if c[0] in members))
                if key in shared:
                    out.append((v, *shared[key]))
                    continue
            status, detail = trace_status(cx.vertex_link(v), members)
            if lift is not None and status != "violation":
                shared[key] = status, detail
            out.append((v, status, detail))
        return out


def is_enveloping(fs):
    """(ok, witness): every interior edge in exactly 2 members, connected.

    A member's letters are its sides, so one pass over the members' words
    counts the member sides of every edge; the first interior edge off 2,
    in ``interior_edges`` order, is the witness."""
    members = fs.members
    if not members:
        return False, {"reason": "empty face set"}
    faces, edge_sides = fs.cx.faces, fs.cx.edge_sides
    coverage = Counter(sym for f in members for sym, _sign in faces[f].word)
    for sym in fs.interior_edges:
        if coverage[sym] != 2:
            return False, {"reason": "edge coverage", "edge": sym, "coverage": coverage[sym]}
    # members are adjacent across the sides of their edges
    if len(components(members, lambda f: (g for sym, _sign in faces[f].word
                                          for g, _i, _s in edge_sides(sym) if g in members))) > 1:
        return False, {"reason": "member faces not connected through shared edges"}
    return True, {"reason": "ok"}


def is_hamiltonian(fs):
    """(ok, witness): enveloping and one spanning link cycle per vertex."""
    ok, witness = is_enveloping(fs)
    if not ok:
        return False, witness
    for v, status, detail in fs.traces:
        if status != "cycle":
            return False, {"reason": "vertex trace", "vertex": v,
                           "status": status, "detail": detail}
    return True, {"reason": "ok"}


def vertex_trace_types(fs):
    """Cycle type of the trace at each interior vertex (requires cycles)."""
    out = {}
    for v, status, ctype in fs.traces:
        if status != "cycle":
            raise SurfaceError(f"trace at {v} is not a single cycle")
        out[v] = ctype
    return out


IN, OUT = 1, 0


class _Surface:
    """A run that ended in a surface: its member FaceSet and its OUT faces.

    One object per distinct result: the keys whose runs stop early at it
    share it.  The OUT faces make the agreement check of an early stop
    exact (``_propagate``).
    """

    __slots__ = ("faceset", "out")

    def __init__(self, faceset, out):
        self.faceset = faceset
        self.out = out


def propagate_surface(ball, seed_lozenge, choice):
    """Grow the unique surface compatible with a local choice at a seed.

    The seed lozenge anchors the propagation at its least-depth interior
    corner vertex; the local choice picks one of the two admissible link
    cycles there: "with" takes the one through the seed's corner (so the
    seed lies on the surface), "other" takes its companion.  A bad seed or
    choice raises SurfaceError.

    Worklist propagation: a face joins when every admissible cycle at some
    interior vertex uses one of its corners and leaves when none does,
    which also keeps every interior edge at coverage 2 (``_propagate``).
    Returns the member FaceSet on success and raises Contradiction
    otherwise.

    One run per (anchor, chosen cycle) and ball.  The seeding settles
    exactly the corners at the anchor, in or out as the chosen cycle
    dictates, and after it the worklist never reads the seed; so two seeds
    with the same anchor and chosen cycle start from the same state, queue
    the same vertices and end in the same result.  The first call for a key
    runs (``_propagate``) and keeps the surface, or the contradiction's
    cell, reason and trail, in ``ball.propagations``; later calls with the
    key return that surface's FaceSet or raise that contradiction again.
    The runs read the same table to stop early: a run that reaches the
    start state of a key known to end in a surface that agrees with its own
    start ends in that surface (the lemma at ``_propagate``), so the keys
    of one surface share one FaceSet.
    """
    key = _anchor_cycle(ball, seed_lozenge, choice)
    if key not in ball.propagations:
        try:
            ball.propagations[key] = _propagate(ball, *key)
        except Contradiction as exc:
            ball.propagations[key] = (exc.cell, exc.reason, exc.trail)
    found = ball.propagations[key]
    if isinstance(found, tuple):
        raise Contradiction(*found)
    return found.faceset


def _anchor_cycle(ball, seed_lozenge, choice):
    """The anchor vertex of a seed and the admissible cycle a choice picks."""
    if ball.complex.faces[seed_lozenge].kind != LOZENGE:
        raise SurfaceError(f"seed {seed_lozenge} is not a lozenge")
    anchors = ball.face_interior_vertices[seed_lozenge]
    if not anchors:
        raise SurfaceError("seed lozenge has no interior corner vertex")
    anchor = min(anchors, key=lambda v: (ball.depth[v], int(v[1:])))

    rule = _rule(ball, anchor, [])
    # the cycles through a corner of the seed, and the others
    with_seed = sum(bit for bit, on, _off in rule.tests if seed_lozenge in on)
    without = ((1 << len(rule.cycles)) - 1) & ~with_seed
    if not with_seed or with_seed & (with_seed - 1):
        raise SurfaceError("seed corner is not on exactly one admissible cycle")
    if choice == "with":
        return anchor, rule.cycles[with_seed.bit_length() - 1]
    if choice == "other":
        if not without or without & (without - 1):
            raise SurfaceError("no unique companion cycle at the anchor")
        return anchor, rule.cycles[without.bit_length() - 1]
    raise SurfaceError(f"unknown choice {choice!r}")


def _propagate(ball, anchor, chosen):
    """One propagation run from the anchor state: the ``_Surface`` it ends in.

    Raises Contradiction, with the trail of settled faces, at a dead end.

    A state settles some faces IN or OUT.  The start state settles the
    faces at the anchor, IN exactly on the chosen cycle.  The worklist
    applies the forced steps of ``check_vertex`` to every interior vertex,
    and again to each interior vertex of a face it settles, so a run that
    does not contradict ends in a fixpoint: a state in which no step forces
    anything and no check fails.

    The edge rule, coverage 2 on interior edges, needs no step of its own.
    A germ's corners are its edge's face-sides (the lemma in ``census``),
    every interior edge has an end v at an interior vertex (as
    ``verify_cover`` checks), and a Hamiltonian link cycle at v uses two of
    the three corners at each germ.  So two sides IN leave the third on no
    admissible cycle at v, one side OUT puts the other two on all of them,
    and three IN or two OUT leave none: each edge step or refutation is a
    vertex step or refutation at v, which every settled face there queues.

    Early stop.  Let A be the end state of a run that ended in a surface.
    A state agrees with A when A contains it.  Lemma: if a run starts in
    agreement with A, and its state settles every face at an interior
    vertex v whose key (v, the member trace at v) is known to end in A,
    then the run ends in A.

    - A is a fixpoint of a run that did not contradict.
    - From any state that agrees with A, every forced step agrees with A,
      and no check fails.  At a vertex, the admissible cycles can only
      shrink as the state grows, so those of the smaller state include
      A's: a corner on all of them lies on all of A's, and one on none of
      them on none of A's, and A, a fixpoint, already settles its face that
      way.  A check that failed on the smaller state would fail on A.
    - So a run that starts in agreement with A never leaves A, and its
      fixpoint lies in A.  Once the run's state contains the start state of
      a key known to end in A, each step of that key's run applies to the
      run's fixpoint as well, which therefore contains that key's end
      state, A.  So it equals A, and the run stops and returns A.
    - Without the agreement condition the stop would be unsound: a run
      whose start settles a face at its anchor otherwise than A does still
      ends above A, so its true outcome is a contradiction or a strictly
      larger state.

    A check reads v's compiled rule (``_VertexRule``).  Its face lists
    admit the cycles that testing every corner tag admits, and its step for
    that set lists the faces in sorted tag order, as sorting the cycles'
    intersection and the corners off their union does.  The check skips a
    face already settled that way, which ``settle`` would leave as it is,
    so faces settle in the order and with the reasons of the direct rule:
    the trail, the worklist and any contradiction are unchanged.

    The stop is read where a check narrows v's admissible cycles to one
    cycle c.  Its step then settles every face at v, IN on c and OUT off
    it, so the run's state contains the start state of the key (v, c),
    which the check looks up in ``ball.propagations``.  A state that
    settles every face at v by other steps comes to such a step, or to a
    refutation, at v's next check, which the worklist or the sweep still
    owes v.  The agreement condition reads only the faces at the anchor.
    On V's cover it is checked once per run that stops early, and holds
    there: on each ball of radius 2-5 from P, Q and R, every run but the
    two that find the surfaces makes one check and stops (16 / 96 / 424 /
    1,672 checks per ball).  A run whose start agrees with no
    known surface runs in full, as without the table, so a contradiction
    keeps its cell, reason and trail.  The run state is sparse and the
    worklist walks the ball's sweep lazily, so a run that stops early costs
    time in proportion to the faces it settles, not to the size of the
    ball.
    """
    face_interior_vertices = ball.face_interior_vertices
    rules, propagations = ball.vertex_rules, ball.propagations
    trail = []
    state = {}         # the settled faces, IN or OUT
    get = state.get
    anchor_corners = _rule(ball, anchor, trail).corners

    def agrees(known):
        # A settles every corner at the anchor as the start does: IN exactly
        # on the chosen cycle, OUT elsewhere
        return all(tag[0] in (known.faceset.members if tag in chosen else known.out)
                   for tag in anchor_corners)

    work = deque()
    pending = set()
    swept = None       # the vertices the sweep has passed, once it has begun

    def settle(fid, value, why):
        # called only for a face whose state differs from value
        if fid in state:
            raise Contradiction(fid, f"reassignment via {why}", trail)
        state[fid] = value
        trail.append((fid, "in" if value == IN else "out", why))
        for v in face_interior_vertices[fid]:
            # a queued vertex reads the state when it is popped, so one entry
            # is enough; a vertex the sweep has not reached yet is queued there
            if v not in pending and (swept is None or v in swept):
                pending.add(v)
                work.append(v)

    def check_vertex(v):
        # returns the known surface the run ends in if this check stops it
        rule = rules[v] if v in rules else _rule(ball, v, trail)
        # a cycle is ruled out by an OUT face with a corner on it, or by an IN
        # face with a corner at v off it
        mask = 0
        for bit, on, off in rule.tests:
            if OUT not in map(get, on) and IN not in map(get, off):
                mask |= bit
        if not mask:
            raise Contradiction(v, "no admissible link cycle", trail)
        forced, excluded = rule.steps[mask] if mask in rule.steps else rule.step(mask)
        for fid in forced:
            if get(fid) != IN:
                settle(fid, IN, rule.forced_why)
        for fid in excluded:
            if get(fid) != OUT:
                settle(fid, OUT, rule.excluded_why)
        if not mask & (mask - 1):
            # one cycle left: every face at v is settled, the state holds the
            # start state of v's key with that cycle
            known = propagations.get((v, rule.cycles[mask.bit_length() - 1]))
            if isinstance(known, _Surface) and agrees(known):
                return known
        return None

    def pop():
        v = work.popleft()
        pending.discard(v)
        return v

    def order():
        # the vertices the seeding queued, then the sweep: every other
        # interior vertex once, by depth, then the vertices queued since the
        # sweep began
        for _ in range(len(work)):
            yield pop()
        for v in ball.interior_vertices_by_depth:
            if v not in swept:
                swept.add(v)
                yield v
        while work:
            yield pop()

    # seed the anchor: its trace is exactly the chosen cycle
    for tag in sorted(anchor_corners):
        value = IN if tag in chosen else OUT
        if get(tag[0]) != value:
            settle(tag[0], value, f"anchor {anchor}")
    swept = set(pending)
    for v in order():
        known = check_vertex(v)
        if known is not None:
            return known
    members = frozenset(f for f, s in state.items() if s == IN)
    return _Surface(FaceSet(ball, members), frozenset(state.keys() - members))


def _rule(ball, v, trail):
    """v's vertex rule, built on first use and kept in ``ball.vertex_rules``.

    v's admissible cycles are the type-3 cycles of its image in V, carried
    to v by the inverse of ``corner_lift``, a label-preserving isomorphism
    of the links.  A vertex whose link does not lift gets no rule: it
    raises Contradiction with the trail of the run that checks it.
    """
    if v not in ball.vertex_rules:
        lift = ball.corner_lift(v)
        if lift is None:
            raise Contradiction(v, "link does not lift to its image link in V", trail)
        corner = {image: c for c, image in lift.items()}
        cycles = tuple(frozenset(corner[t] for t in cyc)
                       for cyc in ball.v_complex.type3_cycles(ball.vertex_image[v]))
        ball.vertex_rules[v] = _VertexRule(v, cycles, frozenset(lift))
    return ball.vertex_rules[v]


class _VertexRule:
    """The vertex rule at v, built once per ball vertex (``_rule``).

    ``cycles``: v's admissible cycles as frozensets of corner tags (fid, i);
    ``corners``: all corner tags at v.  ``tests``: for each cycle its bit,
    the faces of its corners and those of v's other corners; it stays
    admissible while none of the first is OUT and none of the second IN.
    ``steps``: for a mask of admissible cycles, filled on first use, the
    faces with a corner on all of them (IN) and on none (OUT), in corner tag
    order.
    """

    __slots__ = ("cycles", "corners", "tests", "steps", "forced_why", "excluded_why")

    def __init__(self, v, cycles, corners):
        self.cycles, self.corners = cycles, corners
        self.tests = [(1 << i, sorted(tag[0] for tag in c),
                       sorted(tag[0] for tag in corners - c))
                      for i, c in enumerate(cycles)]
        self.steps = {}
        self.forced_why, self.excluded_why = f"forced at {v}", f"excluded at {v}"

    def step(self, mask):
        admissible = [c for i, c in enumerate(self.cycles) if mask >> i & 1]
        union = frozenset.union(*admissible)
        self.steps[mask] = ([tag[0] for tag in sorted(frozenset.intersection(*admissible))],
                            [tag[0] for tag in sorted(self.corners - union)])
        return self.steps[mask]


def periodicity_check(ball, fs):
    """Project a ball surface through the covering map: S, S' or neither.

    S and S' are the face sets of those names in the chart that V was built
    from (``V.facesets``).
    """
    images = {ball.face_image[fid] for fid in fs.members}
    named = ball.v_complex.facesets
    for name in ("S", "S'"):
        if images == set(named.get(name, ())):
            return name
    return "neither"

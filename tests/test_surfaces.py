import hashlib
import json
import random
import sys
from collections import deque
from itertools import combinations, product

import pytest

import hamsurf.census
import hamsurf.cli
import hamsurf.corecomplex
import hamsurf.surfaces
from hamsurf.cellmap import automorphism_group, theta_maps
from hamsurf.cli import ball_surface_certs
from hamsurf.census import BudgetExceeded, count_surfaces_exhaustive
from hamsurf.corecomplex import Complex2, Face, LOZENGE, TRIANGLE, trace_status
from hamsurf.cover import Ball, expand_ball, expand_to_radius
from hamsurf.hamgraph import (CycleType, LabeledGraph, angular_girth, classify_cycle,
                              enumerate_hamiltonian_cycles, labeled_isomorphic)
from hamsurf.surfaces import (IN, OUT, Contradiction, FaceSet, SurfaceError, is_enveloping,
                              is_hamiltonian, periodicity_check, propagate_surface,
                              vertex_trace_types)
from oracles import brute_surfaces


def interior_lozenge_seeds(ball):
    cx = ball.complex
    return [f for f in cx.face_ids() if cx.faces[f].kind == LOZENGE
            and any(cx.src(oe) in ball.interior_vertices for oe in cx.faces[f].word)]


def interior_triangles(ball):
    cx = ball.complex
    return {f for f in cx.face_ids() if cx.faces[f].kind == TRIANGLE
            and all(cx.src(oe) in ball.interior_vertices for oe in cx.faces[f].word)}


# --- predicates on the quotient --------------------------------------------

def test_s_is_enveloping_and_hamiltonian(V, chartdata):
    fs = FaceSet(V, chartdata.surface_faces("S"))
    assert is_enveloping(fs)[0]
    ok, witness = is_hamiltonian(fs)
    assert ok, witness
    assert set(vertex_trace_types(fs).values()) == {CycleType.TYPE3}


def test_sprime_is_hamiltonian(V, chartdata):
    fs = FaceSet(V, chartdata.surface_faces("S'"))
    assert is_hamiltonian(fs)[0]


def test_all_faces_overcover(V):
    fs = FaceSet(V, V.face_ids())
    ok, witness = is_enveloping(fs)
    assert not ok
    assert witness["reason"] == "edge coverage"
    assert witness["coverage"] == 3


def test_missing_lozenge_uncovers_edges(V, chartdata):
    members = set(chartdata.surface_faces("S")) - {"x"}
    ok, witness = is_enveloping(FaceSet(V, members))
    assert not ok and witness["reason"] == "edge coverage"


def test_two_disjoint_cycles_is_a_violation(V):
    lozenges = [f for f in V.face_ids() if V.faces[f].kind == LOZENGE]
    fs = FaceSet(V, lozenges)
    for v in V.vertices:
        status, _detail = trace_status(V.vertex_link(v), fs.members)
        assert status == "violation"
    ok, witness = is_hamiltonian(fs)
    assert not ok


def test_mixed_lozenge_choices_fail_at_a_vertex(V):
    # the triangles and one lozenge of each pair x/x', y/y', z/z' cover
    # every edge twice; only S and S' give one spanning cycle at every
    # vertex, and each of the six mixed choices splits a vertex's trace
    split = {"reason": "vertex trace", "status": "violation",
             "detail": "trace splits into several components including a cycle"}
    first_split = {}
    for choice in product(("x", "x'"), ("y", "y'"), ("z", "z'")):
        fs = FaceSet(V, ["a", "b", "c", "d", *choice])
        assert is_enveloping(fs)[0]
        ok, witness = is_hamiltonian(fs)
        if not ok:
            assert witness == {**split, "vertex": witness["vertex"]}
            first_split["".join(choice)] = witness["vertex"]
    assert first_split == {"xyz'": "R", "xy'z": "P", "xy'z'": "P",
                           "x'yz": "Q", "x'yz'": "R", "x'y'z": "Q"}


def test_empty_and_partial_traces(V):
    fs = FaceSet(V, ["a"])
    status, _ = trace_status(V.vertex_link("P"), fs.members)
    assert status == "paths"
    fs0 = FaceSet(V, [])
    assert trace_status(V.vertex_link("P"), fs0.members)[0] == "empty"
    assert not is_enveloping(fs0)[0]


def test_face_set_rejects_unknown_faces(V):
    with pytest.raises(SurfaceError):
        FaceSet(V, ["nope"])


def _renamed(cx, tag):
    # cx's vertices, edges and faces with tag appended to every id
    return ([v + tag for v in cx.vertices],
            {sym + tag: (s + tag, t + tag) for sym, (s, t) in cx.edges.items()},
            [Face(f + tag, cx.faces[f].kind, [(sym + tag, sign) for sym, sign in cx.faces[f].word])
             for f in cx.face_ids()])


def test_disjoint_copies_of_s_are_not_connected(S):
    # two disjoint copies of S cover every edge twice, so only the
    # connectivity check can refuse them
    first, second = _renamed(S, "1"), _renamed(S, "2")
    two = Complex2(first[0] + second[0], {**first[1], **second[1]}, first[2] + second[2])
    ok, witness = is_enveloping(FaceSet(two, two.face_ids()))
    assert not ok
    assert witness == {"reason": "member faces not connected through shared edges"}


def test_union_of_the_two_surfaces_overcovers(ball2):
    # the two propagated surfaces share their triangles: the first interior
    # edge, in interior-edge order, carries three of their sides
    union = set().union(*propagated_pair(ball2))
    ok, witness = is_enveloping(FaceSet(ball2, union))
    assert not ok
    assert witness == {"reason": "edge coverage", "edge": "e0", "coverage": 3}


def test_links_are_built_once_per_complex(monkeypatch, V):
    # the surface predicates read a ball link only at the first interior
    # vertex of each (image, lifted trace) key, and once however many face
    # sets and predicates read it: both surfaces have one key over each of
    # P, Q and R, first met at the same three vertices.  V's own links,
    # which propagation lifts its cycles from, are built before counting
    ball = expand_to_radius(V, "P", 3)
    for v in V.vertices:
        assert V.vertex_link(v) is V.vertex_link(v)
    built = []

    class CountingGraph(LabeledGraph):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(hamsurf.corecomplex, "LabeledGraph", CountingGraph)
    for _ in range(2):
        certs = {c.ref: c for c in ball_surface_certs(ball)}
        assert certs["surfaces.hamiltonian"].ok() and certs["surfaces.type-three"].ok()
    assert len(ball.interior_vertices) == 49
    assert len(built) == 3
    for _ in range(2):
        with pytest.raises(KeyError):
            V.vertex_link("nope")


def _direct_traces(fs):
    # the reference: every interior vertex classified on its own link
    return [(v, *trace_status(fs.cx.vertex_link(v), fs.members)) for v in fs.interior_vertices]


@pytest.mark.parametrize("base, radius", [(base, r) for r in (2, 3) for base in "PQR"])
def test_shared_traces_equal_direct_traces(V, base, radius):
    # every face set of a ball reads, vertex by vertex, what each vertex's
    # own link gives: the two surfaces (cycles), all faces and the empty set,
    # and seeded random subsets of every density
    ball = expand_to_radius(V, base, radius)
    faces = ball.complex.face_ids()
    rng = random.Random(10 * radius + "PQR".index(base))
    face_sets = [faces, [], *propagated_pair(ball)]
    for _ in range(20):
        density = rng.random()
        face_sets.append([f for f in faces if rng.random() < density])
    statuses = set()
    for members in face_sets:
        fs = FaceSet(ball, members)
        assert fs.traces == _direct_traces(fs)
        statuses |= {status for _v, status, _detail in fs.traces}
    assert statuses == {"empty", "paths", "cycle", "violation"}
    # all faces have one key per image vertex, yet more distinct violation
    # details: a violation shared by key would name another vertex's germ
    details = {detail for _v, _status, detail in FaceSet(ball, faces).traces}
    assert len(details) > 3


def test_unlifted_vertices_are_classified_on_their_own_links(V):
    # a lozenge at the base deleted: the base and the lozenge's other
    # corner vertices still claim complete stars but have no lift
    ball = expand_to_radius(V, "P", 2)
    cx = ball.complex
    lozenge = next(f for f, _i in cx.corners_at(ball.base) if cx.faces[f].kind == LOZENGE)
    broken = _delete_faces(ball, {lozenge})
    assert ball.base in broken.interior_vertices and broken.corner_lift(ball.base) is None
    faces = broken.complex.face_ids()
    rng = random.Random(0)
    face_sets = [faces, *(set(pair) - {lozenge} for pair in propagated_pair(ball))]
    face_sets += [[f for f in faces if rng.random() < 0.5] for _ in range(5)]
    for members in face_sets:
        fs = FaceSet(broken, members)
        assert fs.traces == _direct_traces(fs)


@pytest.mark.parametrize("base, radius", [(base, r) for r in (2, 3, 4) for base in "PQR"])
def test_surfaces_lift_to_their_projections_at_every_vertex(V, base, radius):
    # the fact the shared traces rest on: at each interior vertex a
    # propagated surface's corners lift onto the corners at the image of the
    # face set it projects to, so it has one key per vertex of V
    ball = expand_to_radius(V, base, radius)
    cx = ball.complex
    for members in propagated_pair(ball):
        fs = FaceSet(ball, members)
        named = set(V.facesets[periodicity_check(ball, fs)])
        keys = set()
        for v in fs.interior_vertices:
            lift, p = ball.corner_lift(v), ball.vertex_image[v]
            lifted = frozenset(lift[c] for c in cx.corners_at(v) if c[0] in fs.members)
            assert lifted == {c for c in V.corners_at(p) if c[0] in named}
            keys.add((p, lifted))
        assert len(keys) == 3


# --- link facts lifted from V ---------------------------------------------------

def test_lifted_cycles_match_direct_enumeration(V):
    """At every interior vertex the type-3 cycles carried over from V's link
    are exactly those enumerated on the vertex's own link, and the link is
    labeled-isomorphic to its image with angular girth six."""
    balls = []
    for base in V.vertices:
        b2 = expand_to_radius(V, base, 2)
        balls += [b2, expand_ball(b2)]
    checked = 0
    for ball in balls:
        for v in sorted(ball.interior_vertices, key=str):
            link = ball.complex.vertex_link(v)
            direct = {frozenset(link.edges[i][3] for i in cyc.edge_indices)
                      for cyc in enumerate_hamiltonian_cycles(link)
                      if classify_cycle(cyc) is CycleType.TYPE3}
            rule = hamsurf.surfaces._rule(ball, v, [])
            cycles, corners = rule.cycles, rule.corners
            assert len(direct) == 2
            assert set(cycles) == direct and len(cycles) == len(direct), v
            assert corners == {tag for _u, _w, _lbl, tag in link.edges}
            image_link = V.vertex_link(ball.vertex_image[v])
            assert labeled_isomorphic(link, image_link) is not None
            assert angular_girth(link) == 6
            checked += 1
    assert checked == 3 * (9 + 49)


# --- propagation -------------------------------------------------------------

def test_two_choices_two_surfaces(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    fs_with = propagate_surface(ball2, seed, "with")
    fs_other = propagate_surface(ball2, seed, "other")
    assert seed in fs_with.members
    assert seed not in fs_other.members
    assert fs_with.members != fs_other.members
    for fs in (fs_with, fs_other):
        ok, witness = is_hamiltonian(fs)
        assert ok, witness
        assert set(vertex_trace_types(fs).values()) == {CycleType.TYPE3}


def test_all_seeds_give_the_same_two_surfaces(ball2):
    surfaces = set()
    for seed in interior_lozenge_seeds(ball2):
        for choice in ("with", "other"):
            surfaces.add(propagate_surface(ball2, seed, choice).members)
    assert len(surfaces) == 2


def test_interior_triangles_lie_on_both_surfaces(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    tris = interior_triangles(ball2)
    assert tris
    for choice in ("with", "other"):
        assert tris <= propagate_surface(ball2, seed, choice).members


@pytest.mark.parametrize("base", ["P", "Q", "R"])
def test_interior_triangles_have_three_interior_corners(V, ball2, base):
    # ball_surface_certs counts a triangle's entries in face_interior_vertices;
    # on a ball grown from V its corners lie over P, Q and R, so they are
    # three distinct vertices and the count agrees with a scan of its word
    def by_table(ball):
        cx = ball.complex
        return {f for f in cx.face_ids() if cx.faces[f].kind == TRIANGLE
                and len(ball.face_interior_vertices[f]) == 3}

    balls = [expand_to_radius(V, base, radius) for radius in (2, 3, 4)]
    if base == "P":
        tri = sorted(interior_triangles(ball2))[0]
        balls.append(_delete_face(ball2, tri))
    for ball in balls:
        assert by_table(ball) == interior_triangles(ball) != set()


def _end_state(surface):
    return surface.faceset.members, surface.out


def test_propagation_confluence(V, monkeypatch):
    # forced steps commute: a sweep in a random order and a worklist that
    # pops a random entry reach the end state of the ordered run.  The
    # ball's table stays empty, so no run stops early: each is a full run
    ball = expand_to_radius(V, "P", 2)
    seed = interior_lozenge_seeds(ball)[5]
    key = hamsurf.surfaces._anchor_cycle(ball, seed, "with")
    reference = _end_state(hamsurf.surfaces._propagate(ball, *key))
    pops = []

    class RandomPops(deque):
        def popleft(self):
            pops.append(len(self))
            self.rotate(-rng.randrange(len(self)))
            return super().popleft()

    monkeypatch.setattr(hamsurf.surfaces, "deque", RandomPops)
    vertices = ball.interior_vertices_by_depth
    for shuffle in range(8):
        rng = random.Random(shuffle)
        ball.interior_vertices_by_depth = tuple(rng.sample(vertices, len(vertices)))
        assert _end_state(hamsurf.surfaces._propagate(ball, *key)) == reference
    assert pops and max(pops) > 1
    assert not ball.propagations


def test_propagation_deterministic(V, ball2):
    # a second call on ball2 would read the shared result, so run again on a
    # freshly expanded ball
    seed = interior_lozenge_seeds(ball2)[3]
    a = propagate_surface(ball2, seed, "with").members
    b = propagate_surface(expand_to_radius(V, "P", 2), seed, "with").members
    assert a == b


def _outcome(run):
    try:
        return run()
    except Contradiction as exc:
        return ("contradiction", exc.cell, exc.reason, exc.trail)


@pytest.mark.parametrize("base, radius, results", [
    ("P", 2, 96), ("Q", 2, 96), ("R", 2, 96), ("P", 3, 448), ("Q", 3, 448)])
def test_shared_runs_equal_unshared_runs(V, base, radius, results):
    # every seed and choice reads the same result from the per-ball table,
    # where most runs stop early at a known surface, as a full run from its
    # anchor state on a fresh ball, which has no table entries: the same
    # members and OUT faces, or a contradiction raised again with its cell,
    # reason and trail
    ball = expand_to_radius(V, base, radius)
    fresh = expand_to_radius(V, base, radius)
    compared = 0
    for seed in interior_lozenge_seeds(ball):
        for choice in ("with", "other"):
            shared = _outcome(lambda: propagate_surface(ball, seed, choice).members)
            key = hamsurf.surfaces._anchor_cycle(fresh, seed, choice)
            alone = _outcome(lambda: hamsurf.surfaces._propagate(fresh, *key))
            if isinstance(alone, hamsurf.surfaces._Surface):
                assert ball.propagations[key].out == alone.out, (seed, choice)
                alone = alone.faceset.members
            assert shared == alone, (seed, choice)
            compared += 1
    assert compared == results
    assert not fresh.propagations


# frozen from verified runs: every (anchor, chosen cycle) key of the ball
# run in full, its members and OUT faces or its contradiction's cell, reason
# and trail; the damaged digest is the radius-2 ball from P with a lozenge at
# the base deleted.  Any change to the forcing rules or their order that
# changes a result moves them
PROPAGATION_DIGESTS = {
    ("P", 1): "282bca2928ef09760372f00078acff54cb328aa77d695ed97689fa0c07b5c5d8",
    ("Q", 1): "3009858a4b2751041520b9a97ef85b9f6eb34fb2c58ca2e23e965c0f779947f6",
    ("R", 1): "dff9cbf295be598ee409a978ef94bfd08c4cda89c26a0fababd3b11c34b7e33a",
    ("P", 2): "79a3eeff9d174797468e9fda201e7c9ce3b4aa539601c7e32caf27354ffa7267",
    ("Q", 2): "d4f0821677ed02f65ba7d0a4a77984b158ae4f0c233e7e5e907b0f1cfee8de84",
    ("R", 2): "76df267faac6a3e94200e5fa94b97c6ace9bab1dcc4cf4695a057b737119bb5c",
    ("P", 3): "39205ee47362ca38d817ea1e22d5f88855bb0f7dba8eb3748b21cda2373b578d",
    ("Q", 3): "35bb7dbb042a010b1001facd440845a2782310f60227431160d9d1a1559845d8",
    ("R", 3): "01d0f61a9a5a0552a99292e7e775e37ebb36502e7c7a2e8e9cc27a5273644e81",
}
DAMAGED_PROPAGATION_DIGEST = "8316d62ef693544b68718e50b2be7394f9afc91a80cdff8b547deea535f85d68"


def _run_keys(ball):
    # the (anchor, chosen cycle) key of every seed and choice that
    # ``_anchor_cycle`` accepts; on a damaged ball some anchors do not lift
    keys = set()
    for seed in interior_lozenge_seeds(ball):
        for choice in ("with", "other"):
            try:
                keys.add(hamsurf.surfaces._anchor_cycle(ball, seed, choice))
            except (Contradiction, SurfaceError):
                pass
    return keys


def _runs_digest(ball):
    # every key of the ball run in full, in key order: its members and OUT
    # faces, or its contradiction's cell, reason and trail
    runs = []
    for anchor, chosen in sorted(_run_keys(ball), key=lambda key: (key[0], sorted(key[1]))):
        found = _outcome(lambda: hamsurf.surfaces._propagate(ball, anchor, chosen))
        if isinstance(found, hamsurf.surfaces._Surface):
            found = (sorted(found.faceset.members), sorted(found.out))
        runs.append((anchor, sorted(chosen), found))
    assert not ball.propagations
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


@pytest.mark.parametrize("base, radius", list(PROPAGATION_DIGESTS))
def test_pinned_propagation_runs(V, base, radius):
    ball = expand_to_radius(V, base, radius)
    assert _runs_digest(ball) == PROPAGATION_DIGESTS[base, radius]


def test_pinned_propagation_runs_on_a_damaged_ball(V):
    # the radius-2 ball from P with one lozenge at the base deleted: runs
    # that end in a contradiction keep their cell, reason and whole trail
    ball = expand_to_radius(V, "P", 2)
    cx = ball.complex
    lozenge = next(f for f, _i in cx.corners_at(ball.base) if cx.faces[f].kind == LOZENGE)
    assert _runs_digest(_delete_face(ball, lozenge)) == DAMAGED_PROPAGATION_DIGEST


# frozen from verified runs: the number of keys, the number of trail entries
# and a digest of every key's full-run trail, (face, "in"/"out", reason) in
# settle order.  A run that ends in a surface returns no trail, so the test
# reads it from the run's locals when the run builds its surface's FaceSet.
# Any change to the order in which faces settle, or to their reasons, moves
# them, also where every result stays the same
PROPAGATION_TRAIL_DIGESTS = {
    ("P", 2): (18, 1368,
        "b1c1fd605af89b98420b1e4e8caaf127d2dcbe82a0bc5a47aed5ab9503b2a83f"),
    ("P", 3): (98, 34888,
        "b48ef0cb2e3e2c32807b124f1f4938af5af7c05339845f45c42c1b66874368c3"),
    ("Q", 3): (98, 34888,
        "f02d62c2b076795774cc4c1db9e1275114a8b9b9cafab0bf5060fbbc0952f7e0"),
    ("R", 3): (98, 34888,
        "53c07c4b181ebd5f464de71188cd9d06cb645257b26938a0d063ab48286e21d7"),
}


@pytest.mark.parametrize("base, radius", list(PROPAGATION_TRAIL_DIGESTS))
def test_pinned_propagation_trails(V, monkeypatch, base, radius):
    trails = []
    faceset = hamsurf.surfaces.FaceSet

    def spy(ambient, members):
        trails.append(list(sys._getframe(1).f_locals["trail"]))
        return faceset(ambient, members)

    monkeypatch.setattr(hamsurf.surfaces, "FaceSet", spy)
    ball = expand_to_radius(V, base, radius)
    runs = []
    for anchor, chosen in sorted(_run_keys(ball), key=lambda key: (key[0], sorted(key[1]))):
        try:
            hamsurf.surfaces._propagate(ball, anchor, chosen)
            trail = trails.pop()
        except Contradiction as exc:
            trail = exc.trail
        runs.append((anchor, sorted(chosen), trail))
    assert not trails and not ball.propagations
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert (len(runs), sum(len(trail) for *_key, trail in runs), digest) == \
        PROPAGATION_TRAIL_DIGESTS[base, radius]


@pytest.mark.parametrize("base", ["P", "Q", "R"])
def test_vertex_rules_restate_the_vertex_rule(V, base):
    # one full run checks every interior vertex, so it compiles every rule.
    # For each set of admissible cycles, the steps the run filled and those
    # filled here settle the faces of the corners on all of them IN and of
    # those on none OUT, in tag order; and on random states the scan admits
    # a cycle exactly when no OUT face has a corner on it and no IN face a
    # corner at v off it
    ball = expand_to_radius(V, base, 2)
    key = hamsurf.surfaces._anchor_cycle(ball, interior_lozenge_seeds(ball)[0], "with")
    hamsurf.surfaces._propagate(ball, *key)
    assert set(ball.vertex_rules) == ball.interior_vertices
    rng = random.Random(base)
    steps = 0
    for v, rule in ball.vertex_rules.items():
        cycles, all_tags = rule.cycles, rule.corners
        filled = dict(rule.steps)
        assert filled
        for mask in range(1, 1 << len(cycles)):
            admissible = [c for i, c in enumerate(cycles) if mask & 1 << i]
            expected = ([f for f, _i in sorted(frozenset.intersection(*admissible))],
                        [f for f, _i in sorted(all_tags - frozenset.union(*admissible))])
            got = filled[mask] if mask in filled else rule.step(mask)
            assert got == expected == rule.steps[mask], (v, mask)
            steps += 1
        assert (rule.forced_why, rule.excluded_why) == (f"forced at {v}", f"excluded at {v}")
        for _ in range(20):
            state = {f: rng.choice((IN, OUT)) for f, _i in all_tags if rng.random() < 0.4}
            scanned = {bit for bit, on, off in rule.tests
                       if all(state.get(f) != OUT for f in on)
                       and all(state.get(f) != IN for f in off)}
            direct = {1 << i for i, c in enumerate(cycles)
                      if not any(state.get(f) == OUT for f, _i in c)
                      and not any(state.get(f) == IN for f, _i in all_tags - c)}
            assert scanned == direct
    assert steps == 3 * len(ball.interior_vertices)


def test_unlifted_vertex_contradicts_with_the_run_trail(V):
    # around a deleted face the links do not lift: a run that checks such a
    # vertex raises there with its own trail, which begins at its anchor,
    # and the vertex gets no rule, so the next run raises with its own trail
    ball = expand_to_radius(V, "P", 2)
    cx = ball.complex
    lozenge = next(f for f, _i in cx.corners_at(ball.base) if cx.faces[f].kind == LOZENGE)
    broken = _delete_face(ball, lozenge)
    keys = sorted(_run_keys(broken), key=lambda key: (key[0], sorted(key[1])))
    assert len(keys) > 1
    for anchor, chosen in keys:
        with pytest.raises(Contradiction) as raised:
            hamsurf.surfaces._propagate(broken, anchor, chosen)
        exc = raised.value
        assert exc.reason == "link does not lift to its image link in V"
        assert exc.cell in broken.interior_vertices and broken.corner_lift(exc.cell) is None
        assert exc.cell not in broken.vertex_rules
        assert exc.trail and exc.trail[0][2] == f"anchor {anchor}"
        assert {fid for fid, _value, why in exc.trail if why == f"anchor {anchor}"} == {
            f for f, _i in broken.corner_lift(anchor)}


def test_runs_stop_early_at_known_surfaces(V, monkeypatch):
    # the 98 keys of the radius-3 ball from P through the table, where a run
    # stops once a check narrows a vertex to one admissible cycle whose key
    # is known to end in a surface that agrees with its start, against the
    # same keys run in full on a ball whose table stays empty: 364 worklist
    # pops against 5,442
    pops = [0]

    class CountedPops(deque):
        def popleft(self):
            pops[0] += 1
            return super().popleft()

    monkeypatch.setattr(hamsurf.surfaces, "deque", CountedPops)
    ball = expand_to_radius(V, "P", 3)
    for seed in interior_lozenge_seeds(ball):
        for choice in ("with", "other"):
            propagate_surface(ball, seed, choice)
    assert len(ball.propagations) == 98
    shared, pops[0] = pops[0], 0
    fresh = expand_to_radius(V, "P", 3)
    for key in ball.propagations:
        hamsurf.surfaces._propagate(fresh, *key)
    assert not fresh.propagations
    assert (shared, pops[0]) == (364, 5442)
    # the early stops share the two full runs' results
    assert len({id(found) for found in ball.propagations.values()}) == 2


def test_early_stop_needs_agreement_at_the_anchor(V):
    # a planted entry says that the key of surface B at a vertex v ends in
    # the other surface A.  A run that agrees with B at its anchor settles
    # every face at v with B's trace, but A settles the anchor otherwise
    # than the run's start, so the run goes on and ends in B
    ball = expand_to_radius(V, "P", 2)
    seed = interior_lozenge_seeds(ball)[0]
    key_a = hamsurf.surfaces._anchor_cycle(ball, seed, "with")
    key_b = hamsurf.surfaces._anchor_cycle(ball, seed, "other")
    a = hamsurf.surfaces._propagate(ball, *key_a)
    b = hamsurf.surfaces._propagate(ball, *key_b)
    assert a.faceset.members != b.faceset.members
    anchor = key_b[0]
    v = next(v for v in ball.interior_vertices_by_depth if v != anchor)
    trace_b = frozenset(c for c in ball.complex.corners_at(v) if c[0] in b.faceset.members)
    ball.propagations[v, trace_b] = a
    assert _end_state(hamsurf.surfaces._propagate(ball, *key_b)) == _end_state(b)
    # the run does reach v's key: an entry there that agrees stops it
    ball.propagations[v, trace_b] = b
    assert hamsurf.surfaces._propagate(ball, *key_b) is b


@pytest.fixture
def counted_runs(monkeypatch):
    runs = []
    full = hamsurf.surfaces._propagate

    def counting(*args, **kwargs):
        runs.append(args[1:3])
        return full(*args, **kwargs)

    monkeypatch.setattr(hamsurf.surfaces, "_propagate", counting)
    return runs


def test_one_run_per_anchor_state(V, counted_runs):
    # a radius-3 ball from P has 224 lozenge seeds, 448 seed choices, and 98
    # distinct (anchor, chosen cycle) pairs
    ball = expand_to_radius(V, "P", 3)
    choices = [(seed, choice) for seed in interior_lozenge_seeds(ball)
               for choice in ("with", "other")]
    for seed, choice in choices:
        propagate_surface(ball, seed, choice)
    assert len(choices) == 448
    assert len(counted_runs) == len(set(counted_runs)) == 98
    assert len(ball.propagations) == 98


def test_contradiction_is_raised_again_from_the_table(ball2):
    cx = ball2.complex
    base_lozenges = [f for f, _i in cx.corners_at(ball2.base)
                     if cx.faces[f].kind == LOZENGE]
    broken = _delete_face(ball2, base_lozenges[0])
    by_key = {}
    for seed in interior_lozenge_seeds(broken):
        for choice in ("with", "other"):
            try:
                key = hamsurf.surfaces._anchor_cycle(broken, seed, choice)
            except (Contradiction, SurfaceError):
                continue
            with pytest.raises(Contradiction) as raised:
                propagate_surface(broken, seed, choice)
            by_key.setdefault(key, []).append(raised.value)
    shared = [excs for excs in by_key.values() if len(excs) > 1]
    assert shared
    for excs in shared:
        first = excs[0]
        assert all((e.cell, e.reason, e.trail) == (first.cell, first.reason, first.trail)
                   for e in excs)


def test_bad_seed_and_choice_rejected(ball2):
    tri = sorted(interior_triangles(ball2))[0]
    with pytest.raises(SurfaceError, match=f"^seed {tri} is not a lozenge$"):
        propagate_surface(ball2, tri, "with")
    seed = interior_lozenge_seeds(ball2)[0]
    with pytest.raises(SurfaceError, match="^unknown choice 'sideways'$"):
        propagate_surface(ball2, seed, "sideways")
    # every lozenge of a ball has an interior corner, so the seed's corners
    # are claimed not interior on a copy of ball2
    claimed = Ball(ball2.complex, ball2.v_complex, ball2.base, ball2.radius,
                   ball2.vertex_image, ball2.edge_image, ball2.face_image, ball2.depth)
    claimed.interior_vertices = ball2.interior_vertices - set(ball2.face_interior_vertices[seed])
    with pytest.raises(SurfaceError, match="^seed lozenge has no interior corner vertex$"):
        propagate_surface(claimed, seed, "with")


def _scanned_anchor(ball, seed):
    """The least interior corner of the seed by (depth, number), from its word."""
    cx = ball.complex
    corners = [v for v in map(cx.src, cx.faces[seed].word) if v in ball.interior_vertices]
    return min(corners, key=lambda v: (ball.depth[v], int(v[1:])))


@pytest.mark.parametrize("base, radius, damage",
                         [(b, r, None) for b in "PQR" for r in (1, 2, 3, 4)]
                         + [("P", 2, "deleted lozenge"), ("P", 2, "base alone interior")])
def test_seeds_and_anchors_agree_with_the_corner_scan(V, monkeypatch, base, radius, damage):
    # seeds and anchors read the ball's interior corner table; a scan of the
    # seed words gives the same ones, on intact balls, on one with a lozenge
    # at the base deleted, and on one that claims only its base interior, so
    # that not every lozenge is a seed
    ball = expand_to_radius(V, base, radius)
    cx = ball.complex
    if damage == "deleted lozenge":
        lozenge = next(f for f, _i in cx.corners_at(ball.base) if cx.faces[f].kind == LOZENGE)
        ball = _delete_face(ball, lozenge)
    elif damage == "base alone interior":
        ball.interior_vertices = frozenset([ball.base])
    seeds = interior_lozenge_seeds(ball)
    if damage == "base alone interior":
        lozenges = [f for f in cx.face_ids() if cx.faces[f].kind == LOZENGE]
        assert 0 < len(seeds) < len(lozenges)
    for seed in seeds:
        try:
            anchor = hamsurf.surfaces._anchor_cycle(ball, seed, "with")[0]
        except Contradiction as exc:  # the anchor's link does not lift
            anchor = exc.cell
        assert anchor == _scanned_anchor(ball, seed), seed

    # ball_surface_certs runs both choices of exactly the scanned seeds
    runs = []

    def recorded(_ball, seed, choice):
        runs.append((seed, choice))
        raise SurfaceError("recorded")

    def no_census(_ball):
        raise BudgetExceeded("not run")

    monkeypatch.setattr(hamsurf.cli, "propagate_surface", recorded)
    monkeypatch.setattr(hamsurf.cli, "count_surfaces_exhaustive", no_census)
    witness = ball_surface_certs(ball)[0].witness
    assert sorted(runs) == sorted((seed, choice) for seed in seeds
                                  for choice in ("with", "other"))
    assert witness["seeds"] == len(seeds)
    assert witness["first_failure"]["seed"] == seeds[0]


def _delete_faces(ball, fids):
    # the damaged ball keeps the interior vertices of the whole one, so the
    # vertices around the hole still claim complete stars; the edges of the
    # deleted faces lose sides, so they are no longer interior
    cx = ball.complex
    faces = [cx.faces[f] for f in cx.face_ids() if f not in fids]
    cx2 = Complex2(cx.vertices, dict(cx.edges), faces)
    imgs = {f: ball.face_image[f] for f in cx2.faces}
    broken = Ball(cx2, ball.v_complex, ball.base, ball.radius,
                  ball.vertex_image, ball.edge_image, imgs, ball.depth)
    broken.interior_vertices = ball.interior_vertices
    return broken


def _delete_face(ball, fid):
    # the damaged ball keeps the interior flags of the whole one, so the
    # cells around the hole still claim complete stars
    broken = _delete_faces(ball, {fid})
    broken.interior_edges = ball.interior_edges
    return broken


def test_propagation_contradiction_on_damaged_ball(ball2):
    cx = ball2.complex
    base_lozenges = [f for f, _i in cx.corners_at(ball2.base)
                     if cx.faces[f].kind == LOZENGE]
    broken = _delete_face(ball2, base_lozenges[0])
    seeds = interior_lozenge_seeds(broken)
    hit = 0
    for seed in seeds:
        try:
            for choice in ("with", "other"):
                propagate_surface(broken, seed, choice)
        except (Contradiction, SurfaceError):
            hit += 1
    assert hit > 0


# --- census -------------------------------------------------------------------

def propagated_pair(ball):
    seed = interior_lozenge_seeds(ball)[0]
    return {tuple(sorted(propagate_surface(ball, seed, c).members))
            for c in ("with", "other")}


def test_census_matches_propagation(ball2):
    sols, nodes = count_surfaces_exhaustive(ball2)
    assert set(sols) == propagated_pair(ball2)
    assert len(sols) == 2
    assert nodes == 32


# search nodes of the census: the root and every decision that propagation
# did not refute, in the fixed face order.  A change to the face order, to
# the forcing or to what counts as a node moves them (radius 2 from P is
# pinned above)
CENSUS_NODES = {("P", 1): 12, ("Q", 1): 11, ("R", 1): 12, ("Q", 2): 30, ("R", 2): 32,
                ("Q", 3): 88, ("R", 3): 89}


@pytest.mark.parametrize("base, radius", list(CENSUS_NODES))
def test_census_node_counts(V, base, radius):
    nodes = count_surfaces_exhaustive(expand_to_radius(V, base, radius))[1]
    assert nodes == CENSUS_NODES[base, radius]


# SHA-256 of the census decision order (face ids joined by spaces) on the
# balls grown from V; the order is built from sets, so these also pin that it
# does not depend on their iteration order
CENSUS_ORDER_DIGESTS = {
    ("P", 3): "fc81e62af171f56d0dc0974ed9928d6eab82892da5e6100bba0f126b04c20f8d",
    ("Q", 3): "2a8335bd6bc417f31312f586a8f8074e325df783f8b0a7229f3a85a14419593b",
    ("R", 3): "e08f4af08ac5c3dc5064c4f0d2539091a8a187b040aae620c4b75d5c12bf2cf4",
    ("P", 4): "1e1648e5e4324df02b268272f6ef5c8c28b36030594b890fa2ae30d3157f948e",
    ("Q", 4): "ae2304e6b1c9d97bac59e4f081a1e09542601a084483d36df1bf3cc1eb8451c1",
    ("R", 4): "d4f59ae9073cedee1769b04335b95b701dc3de716eb4838edc2a1bb8517874ec",
}


@pytest.mark.parametrize("base, radius", list(CENSUS_ORDER_DIGESTS))
def test_census_order_pinned(V, base, radius):
    # rel as count_surfaces_exhaustive builds it: the faces with a side on
    # an interior edge or on an edge at an interior vertex
    ball = expand_to_radius(V, base, radius)
    cx = ball.complex
    edges = ball.interior_edges | {sym for v in ball.interior_vertices
                                   for sym, _sign in cx.germs_at(v)}
    rel = {fid for sym in edges for fid, _i, _s in cx.edge_sides(sym)}
    order = hamsurf.census._face_order(ball, rel)
    assert sorted(order) == sorted(rel)
    digest = hashlib.sha256(" ".join(order).encode()).hexdigest()
    assert digest == CENSUS_ORDER_DIGESTS[base, radius]


@pytest.mark.parametrize("base", ["P", "Q", "R"])
def test_census_matches_brute_force(V, base):
    # the radius-1 ball and each copy with one or two faces deleted: around
    # a hole the edges at the interior base vertex are no longer interior,
    # so only their edge rule keeps the trace there from branching, and an
    # edge left with two sides forces both in at the root
    ball = expand_to_radius(V, base, 1)
    holes = [set()] + [set(fs) for k in (1, 2) for fs in combinations(ball.complex.face_ids(), k)]
    for hole in holes:
        broken = _delete_faces(ball, hole)
        assert count_surfaces_exhaustive(broken)[0] == brute_surfaces(broken)


@pytest.mark.parametrize("base", ["P", "Q", "R"])
def test_census_needs_a_cycle_through_every_germ(V, base):
    # with every face on one edge at the base deleted, that germ has no
    # corner, so no trace at the base passes through every germ
    ball = expand_to_radius(V, base, 1)
    cx = ball.complex
    sym, _sign = cx.germs_at(ball.base)[0]
    broken = _delete_faces(ball, {f for f, _i, _s in cx.edge_sides(sym)})
    assert brute_surfaces(broken) == []
    assert count_surfaces_exhaustive(broken) == ([], 1)


def test_census_radius_three(ball3):
    sols, nodes = count_surfaces_exhaustive(ball3)
    assert nodes == 89
    assert len(sols) == 2
    assert set(sols) == propagated_pair(ball3)


def test_census_radius_four(ball4):
    # within reach only by forcing: a search that merely rejects passes
    # 10**8 nodes here without finishing
    sols, nodes = count_surfaces_exhaustive(ball4)
    assert nodes == 305
    assert len(sols) == 2
    assert set(sols) == propagated_pair(ball4)


def test_census_radius_zero(V):
    # the lone base vertex is not interior, so no face is constrained: the
    # search visits its root alone, and an empty face set is no surface
    assert count_surfaces_exhaustive(expand_to_radius(V, "P", 0)) == ([], 1)


def test_census_radius_one(ball1):
    # only the base vertex is interior at radius 1, so every Hamiltonian
    # link cycle yields a valid local face set: five raw solutions, two of
    # which are the admissible type-3 germs that propagation picks
    sols, _nodes = count_surfaces_exhaustive(ball1)
    assert len(sols) == 5
    germs = propagated_pair(ball1)
    assert len(germs) == 2
    assert germs <= set(sols)


def test_census_budget_guard(ball2, monkeypatch):
    # the radius-2 census visits 32 nodes: a limit of 32 lets it finish,
    # and one less stops it
    monkeypatch.setattr(hamsurf.census, "NODE_LIMIT", 32)
    assert count_surfaces_exhaustive(ball2)[1] == 32
    monkeypatch.setattr(hamsurf.census, "NODE_LIMIT", 31)
    with pytest.raises(BudgetExceeded, match="census exceeded 31 nodes"):
        count_surfaces_exhaustive(ball2)


def test_census_budget_guard_radius_three(ball3, monkeypatch):
    monkeypatch.setattr(hamsurf.census, "NODE_LIMIT", 50)
    with pytest.raises(BudgetExceeded, match="census exceeded 50 nodes"):
        count_surfaces_exhaustive(ball3)


def test_census_with_deleted_cells(ball2):
    # a lozenge lies on exactly one of the two surfaces, so removing it
    # kills that one and leaves the sibling; removing a triangle (which
    # lies on both) leaves nothing
    cx = ball2.complex
    seed = interior_lozenge_seeds(ball2)[0]
    survivors = {c: propagate_surface(ball2, seed, c).members
                 for c in ("with", "other")}
    star_loz = [f for f, _i in cx.corners_at(ball2.base)
                if cx.faces[f].kind == LOZENGE][0]
    broken = _delete_face(ball2, star_loz)
    sols, nodes = count_surfaces_exhaustive(broken)
    assert len(sols) == 1
    keeper = next(m for m in survivors.values() if star_loz not in m)
    assert sols[0] == tuple(sorted(keeper))
    assert nodes == 20

    tri = sorted(interior_triangles(ball2))[0]
    no_tri = _delete_face(ball2, tri)
    sols2, nodes2 = count_surfaces_exhaustive(no_tri)
    assert sols2 == []
    assert nodes2 == 2


def test_census_claim_needs_two_surfaces(ball2):
    # with an interior triangle deleted, propagation and the census both
    # find nothing: they agree, but the census claim is about two surfaces
    tri = sorted(interior_triangles(ball2))[0]
    certs = {c.ref: c for c in ball_surface_certs(_delete_face(ball2, tri))}
    assert certs["surfaces.two"].witness["surfaces"] == 0
    census = certs["surfaces.census"]
    assert (census.status, census.witness) == ("fail", {"solutions": 0, "nodes": 2})


# --- periodicity ----------------------------------------------------------------

def test_projection_hits_s_and_sprime(ball2):
    seed = interior_lozenge_seeds(ball2)[0]
    projections = {periodicity_check(ball2, propagate_surface(ball2, seed, c))
                   for c in ("with", "other")}
    assert projections == {"S", "S'"}


def test_projection_of_everything_is_neither(ball2):
    fs = FaceSet(ball2, ball2.complex.face_ids())
    assert periodicity_check(ball2, fs) == "neither"


def test_twisted_projection_swaps_surfaces(V, ball2):
    th2 = theta_maps(automorphism_group(V))["theta2"]
    seed = interior_lozenge_seeds(ball2)[0]
    for choice in ("with", "other"):
        fs = propagate_surface(ball2, seed, choice)
        plain = periodicity_check(ball2, fs)
        twisted = {th2.face_map[ball2.face_image[f]] for f in fs.members}
        other = {"S": "S'", "S'": "S"}[plain]
        assert twisted == set(V.facesets[other])

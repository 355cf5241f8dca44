import random
from itertools import product

import pytest

from hamsurf.corecomplex import (Complex2, Face, link_circle_length, subcomplex,
                                 surface_report, trace_status, validate_complex)
from hamsurf.hamgraph import classify_cycle, enumerate_hamiltonian_cycles
from oracles import brute_orientable, naive_hamiltonian_cycles


def one_triangle():
    return Complex2(
        vertices=["u", "v", "w"],
        edges={"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("w", "u")},
        faces=[Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))],
    )


def lozenge_torus():
    # opposite sides of one lozenge identified orientably
    return Complex2(
        vertices=["o"],
        edges={"a": ("o", "o"), "b": ("o", "o")},
        faces=[Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))],
    )


def lozenge_klein():
    return Complex2(
        vertices=["o"],
        edges={"a": ("o", "o"), "b": ("o", "o")},
        faces=[Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", 1)))],
    )


def test_face_rejects_bad_kind_and_sign():
    with pytest.raises(ValueError):
        Face("f", "pentagon", ())
    with pytest.raises(ValueError):
        Face("f", "triangle", (("e", 2),))


def test_corner_labels():
    tri = Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))
    assert tri.corner_labels() == ("t", "t", "t")
    loz = Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))
    assert loz.corner_labels() == ("l", "L", "l", "L")


def test_smallest_valid_complex():
    assert validate_complex(one_triangle()) == []


def test_unclosed_boundary_is_flagged():
    cx = Complex2(
        vertices=["u", "v", "w"],
        edges={"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("u", "w")},
        faces=[Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))],
    )
    problems = validate_complex(cx)
    assert problems and all("face t" in p for p in problems)


def test_wrong_arity_and_unknown_symbol_flagged():
    cx = Complex2(
        vertices=["u", "v"],
        edges={"e1": ("u", "v")},
        faces=[Face("f", "lozenge", (("e1", 1), ("e1", -1), ("e1", 1))),
               Face("g", "triangle", (("e1", 1), ("zz", 1), ("e1", -1)))],
    )
    problems = "\n".join(validate_complex(cx))
    assert "length 3, expected 4" in problems
    assert "undeclared edge symbol zz" in problems


def test_unknown_endpoint_flagged():
    cx = Complex2(vertices=["u"], edges={"e": ("u", "ghost")}, faces=[])
    assert any("ghost" in p for p in validate_complex(cx))


def test_single_triangle_link_and_degrees():
    cx = one_triangle()
    assert all(cx.edge_face_degree(s) == 1 for s in cx.edges)
    link = cx.vertex_link("u")
    assert link.node_count() == 2
    assert link.edge_count() == 1
    assert link.edges[0][2] == "t"
    with pytest.raises(ValueError):
        link_circle_length(cx, "u")
    with pytest.raises(KeyError):
        cx.vertex_link("nope")
    with pytest.raises(KeyError):
        cx.edge_face_degree("nope")


def test_lozenge_torus_report():
    cx = lozenge_torus()
    assert validate_complex(cx) == []
    rep = surface_report(cx)
    assert rep.is_closed_surface
    assert rep.euler_characteristic == 0
    assert rep.orientable is True
    assert rep.genus_or_crosscaps == 1
    assert brute_orientable(cx) is True
    assert link_circle_length(cx, "o") == 6


def test_lozenge_klein_bottle_report():
    cx = lozenge_klein()
    assert validate_complex(cx) == []
    rep = surface_report(cx)
    assert rep.is_closed_surface
    assert rep.euler_characteristic == 0
    assert rep.orientable is False
    assert rep.genus_or_crosscaps == 2
    assert brute_orientable(cx) is False


def test_open_complex_not_closed():
    rep = surface_report(one_triangle())
    assert not rep.is_closed_surface
    assert rep.orientable is None
    assert rep.genus_or_crosscaps is None
    assert rep.euler_characteristic == 1


def test_side_count_identity(V, S):
    for cx in (V, S):
        total_sides = sum(len(f.word) for f in cx.faces.values())
        link_edges = sum(cx.vertex_link(v).edge_count() for v in cx.vertices)
        assert link_edges == total_sides
        sides = sum(len(cx.edge_sides(sym)) for sym in cx.edges)
        assert sides == total_sides


def test_order_two_complex_has_cubic_links(V):
    for v in V.vertices:
        link = V.vertex_link(v)
        assert all(link.degree(n) == 3 for n in link.nodes)


def test_report_invariant_under_relabeling(S):
    rng = random.Random(5)
    base = surface_report(S)
    for _ in range(5):
        vperm = {v: f"V{i}_{rng.randrange(100)}" for i, v in enumerate(S.vertices)}
        eperm = {e: f"E{i}" for i, e in enumerate(sorted(S.edges))}
        fperm = {f: f"F{i}" for i, f in enumerate(S.face_ids())}
        cx = Complex2(
            vertices=vperm.values(),
            edges={eperm[e]: (vperm[s], vperm[t]) for e, (s, t) in S.edges.items()},
            faces=[Face(fperm[f], S.faces[f].kind,
                        tuple((eperm[s], sg) for s, sg in S.faces[f].word))
                   for f in S.face_ids()],
        )
        rep = surface_report(cx)
        assert rep == base


def test_euler_characteristic_additive():
    t = one_triangle()
    q = lozenge_torus()
    both = Complex2(
        vertices=list(t.vertices) + list(q.vertices),
        edges={**t.edges, **q.edges},
        faces=list(t.faces.values()) + list(q.faces.values()),
    )
    assert (surface_report(both).euler_characteristic
            == surface_report(t).euler_characteristic
            + surface_report(q).euler_characteristic)


def test_subcomplex_identity_and_empty(V):
    same = subcomplex(V, V.face_ids())
    assert set(same.faces) == set(V.faces)
    assert set(same.edges) == set(V.edges)
    empty = subcomplex(V, [])
    assert not empty.faces and not empty.edges and not empty.vertices


def test_subcomplex_lozenge_pair(V):
    pair = subcomplex(V, ["x", "x'"])
    assert len(pair.faces) == 2
    assert len(pair.edges) == 4
    assert len(pair.vertices) == 2


def test_subcomplex_unknown_face(V):
    with pytest.raises(KeyError):
        subcomplex(V, ["nope"])


def test_trace_status_over_every_face_subset_of_v(V):
    """In each link of V and for each of the 1,024 sets of V's faces, the
    trace is a cycle exactly when its corners are the edge set of a
    brute-force Hamiltonian cycle of the link, and of that cycle's type."""
    fids = V.face_ids()
    seen = []
    for v in V.vertices:
        link = V.vertex_link(v)
        naive = naive_hamiltonian_cycles(link)
        typed = {c.edge_indices: classify_cycle(c) for c in enumerate_hamiltonian_cycles(link)}
        assert set(typed) == naive
        for bits in product((False, True), repeat=len(fids)):
            members = {f for f, keep in zip(fids, bits) if keep}
            traced = frozenset(i for i, e in enumerate(link.edges) if e[3][0] in members)
            status, detail = trace_status(link, members)
            assert (status == "cycle") == (traced in naive), (v, members)
            if status == "cycle":
                assert detail is typed[traced], (v, members)
                seen.append(detail.value)
    assert {"type1", "type3"} <= set(seen)


from importlib import resources
from itertools import permutations, product

import pytest

from hamsurf.cellmap import automorphism_group, word_match
from hamsurf.charts import (ChartError, build_S, build_Sprime, build_V,
                            flat_piece_census, load_charts,
                            lozenge_families, parse_charts, validate_chartdata)
from hamsurf.corecomplex import (Complex2, Face, link_circle_length,
                                 subcomplex, surface_report, validate_complex)
from hamsurf.hamgraph import labeled_isomorphic, moebius_ladder
from oracles import brute_orientable
from test_acceptance import Criterion, check_quotient_surface


def fixture_text():
    return resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()


# --- loading -------------------------------------------------------------

def test_shipped_fixture_counts(chartdata):
    assert len(chartdata.edges) == 12
    assert len(chartdata.vertices) == 3
    assert len(chartdata.triangles) == 4
    assert len(chartdata.lozenges) == 6
    assert len(chartdata.lozenge_records()) == 9
    assert set(chartdata.facesets) == {"S", "S'"}
    assert len(chartdata.digest) == 64


def test_load_charts_from_path(tmp_path):
    p = tmp_path / "v.charts"
    p.write_text(fixture_text())
    cd = load_charts(p)
    assert len(cd.edges) == 12


def test_wrong_arity_rejected():
    text = fixture_text().replace(
        "face x lozenge : x_c+ x_b- x_d+ x_a-",
        "face x lozenge : x_c+ x_b- x_d+ x_a- x_a+")
    with pytest.raises(ChartError, match=r"line \d+.*5 sides"):
        parse_charts(text)


def test_undeclared_symbol_rejected():
    text = fixture_text().replace("face a triangle : x_a+ y_a+ z_a+",
                                  "face a triangle : w_a+ y_a+ z_a+")
    with pytest.raises(ChartError, match="w_a"):
        parse_charts(text)


def test_malformed_records_rejected():
    for bad in ("edge x_q Q -> P", "face a : x_a+", "what x y z"):
        with pytest.raises(ChartError, match="line 1"):
            parse_charts(bad + "\n")


def test_duplicate_ids_rejected():
    text = fixture_text() + "edge x_a : Q -> P\n"
    with pytest.raises(ChartError, match="duplicate edge"):
        parse_charts(text)


def test_recheck_mismatch_rejected():
    text = fixture_text().replace("recheck x' : x_c- x_b+ x_d- x_a+",
                                  "recheck x' : x_c- x_b+ x_a- x_d+")
    cd = parse_charts(text)
    with pytest.raises(ChartError, match="recheck x'"):
        validate_chartdata(cd)


def test_cyclic_word_equality():
    w = (("a", 1), ("b", -1), ("c", 1), ("d", -1))
    rot = w[2:] + w[:2]
    rev = tuple((s, -sg) for s, sg in reversed(w))
    assert word_match(w, rot, False) is not None
    assert word_match(w, rev, False) is not None
    assert word_match(w, (("a", 1), ("b", 1), ("c", 1), ("d", 1)), False) is None


# --- built complexes ------------------------------------------------------

def test_v_is_valid(V):
    assert validate_complex(V) == []
    assert len(V.faces) == 10
    assert len(V.edges) == 12
    assert len(V.vertices) == 3


def test_surface_reports(S, Sprime):
    for cx in (S, Sprime):
        rep = surface_report(cx)
        assert rep.is_closed_surface
        assert rep.euler_characteristic == -2
        assert (rep.vertex_count, rep.edge_count, rep.face_count) == (3, 12, 7)
        # the gluing charts produce the non-orientable chi=-2 surface; the
        # propagation result is double-checked against raw enumeration
        assert rep.orientable is False
        assert rep.genus_or_crosscaps == 4
        assert brute_orientable(cx) is False


def test_surface_links_are_ten_unit_circles(S, Sprime):
    for cx in (S, Sprime):
        for v in cx.vertices:
            assert link_circle_length(cx, v) == 10


def test_surface_edge_degrees(S):
    assert all(S.edge_face_degree(sym) == 2 for sym in S.edges)


def test_v_is_order_two(V):
    assert all(V.edge_face_degree(sym) == 3 for sym in V.edges)


def test_v_links_are_moebius_ladders(V, ladder):
    for v in V.vertices:
        assert labeled_isomorphic(V.vertex_link(v), ladder) is not None


def test_flat_piece_census(V):
    pieces = flat_piece_census(V)
    by_faces = {p["faces"]: p for p in pieces}
    assert set(by_faces) == {("x", "x'"), ("y", "y'"), ("z", "z'")}
    assert by_faces[("x", "x'")]["kind"] == "torus"
    assert by_faces[("y", "y'")]["kind"] == "torus"
    assert by_faces[("z", "z'")]["kind"] == "klein_bottle"
    for p in pieces:
        rep = p["report"]
        assert rep.is_closed_surface and rep.euler_characteristic == 0
    # independent orientability read-back
    from hamsurf.corecomplex import subcomplex
    assert brute_orientable(subcomplex(V, ["x", "x'"])) is True
    assert brute_orientable(subcomplex(V, ["z", "z'"])) is False


def test_flat_piece_vertices_are_flat(V):
    from hamsurf.corecomplex import subcomplex
    piece = subcomplex(V, ["x", "x'"])
    for v in piece.vertices:
        assert link_circle_length(piece, v) == 6


def test_surfaces_share_exactly_the_triangles(S, Sprime):
    shared = set(S.faces) & set(Sprime.faces)
    assert shared == {"a", "b", "c", "d"}


def test_lozenge_families(V):
    fams = lozenge_families(V)
    assert [sorted(fids) for _k, fids in fams] == [["x", "x'"], ["y", "y'"], ["z", "z'"]]


# --- mutation robustness ---------------------------------------------------

def _mutations(word):
    """Single-letter perturbations: sign flips and symbol substitutions."""
    fam_letters = "abcd"
    for i, (sym, sign) in enumerate(word):
        yield word[:i] + ((sym, -sign),) + word[i + 1:]
        fam, sub = sym.split("_")
        for other in fam_letters:
            if other != sub:
                yield word[:i] + ((f"{fam}_{other}", sign),) + word[i + 1:]


def _checks_pass(cd):
    """The transcription oracle: validation, order two, ladder links,
    closed ten-unit surface."""
    try:
        validate_chartdata(cd)
        V = build_V(cd)
        S = build_S(cd)
    except ChartError:
        return False
    if any(V.edge_face_degree(sym) != 3 for sym in V.edges):
        return False
    L = moebius_ladder()
    if any(labeled_isomorphic(V.vertex_link(v), L) is None for v in V.vertices):
        return False
    rep = surface_report(S)
    if not rep.is_closed_surface or rep.euler_characteristic != -2:
        return False
    try:
        if any(link_circle_length(S, v) != 10 for v in S.vertices):
            return False
    except ValueError:
        return False
    return True


def test_fixture_passes_the_transcription_oracle(chartdata):
    assert _checks_pass(chartdata)


def test_every_single_letter_mutation_breaks_a_check(chartdata):
    from copy import deepcopy

    tried = 0
    for group in ("triangles", "lozenges"):
        faces = getattr(chartdata, group)
        for fid, word in faces.items():
            for mutant_word in _mutations(word):
                cd = deepcopy(chartdata)
                getattr(cd, group)[fid] = mutant_word
                if fid in cd.rechecks:
                    cd.rechecks[fid] = mutant_word
                assert not _checks_pass(cd), (fid, mutant_word)
                tried += 1
    assert tried == (4 * 3 + 6 * 4) * 4


# --- exhaustive transcription search ---------------------------------------

IDX = "abcd"


def _classes():
    seen, out = set(), []
    for arr in permutations(IDX):
        orbit = {arr, (arr[2], arr[3], arr[0], arr[1]),
                 (arr[3], arr[2], arr[1], arr[0]), (arr[1], arr[0], arr[3], arr[2])}
        key = min(orbit)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return sorted(out)


def _loz_word(fam, arr, polarity):
    i, j, k, l = arr
    if polarity == 0:
        return ((f"{fam}_{i}", 1), (f"{fam}_{j}", -1), (f"{fam}_{k}", 1), (f"{fam}_{l}", -1))
    return ((f"{fam}_{i}", -1), (f"{fam}_{j}", 1), (f"{fam}_{k}", -1), (f"{fam}_{l}", 1))


_MATCHINGS = [frozenset((frozenset("ab"), frozenset("cd"))),
              frozenset((frozenset("ac"), frozenset("bd"))),
              frozenset((frozenset("ad"), frozenset("bc")))]


def _pairings(word):
    idx = [sym.split("_")[1] for sym, _s in word]
    small = frozenset((frozenset((idx[3], idx[0])), frozenset((idx[1], idx[2]))))
    large = frozenset((frozenset((idx[0], idx[1])), frozenset((idx[2], idx[3]))))
    return small, large


def _ladder_prefilter(unp, pri):
    """Necessary and sufficient matching conditions for all links to be
    the ladder (cross-checked against labeled isomorphism below)."""
    for famH, famT in (("x", "y"), ("z", "x"), ("y", "z")):
        ell_h = _pairings(pri[famH])[0]
        big_h = _pairings(unp[famH])[1]
        ell_t = _pairings(unp[famT])[0]
        big_t = _pairings(pri[famT])[1]
        if ell_h == ell_t:
            return False
        third = [m for m in _MATCHINGS if m != ell_h and m != ell_t]
        if len(third) != 1 or big_h != third[0] or big_t != third[0]:
            return False
    return True


def _build_config(unp, pri):
    edges = {}
    for k in IDX:
        edges[f"x_{k}"] = ("Q", "P")
        edges[f"y_{k}"] = ("P", "R")
        edges[f"z_{k}"] = ("R", "Q")
    faces = [Face(k, "triangle", ((f"x_{k}", 1), (f"y_{k}", 1), (f"z_{k}", 1)))
             for k in IDX]
    for fam in "xyz":
        faces.append(Face(fam, "lozenge", unp[fam]))
        faces.append(Face(fam + "'", "lozenge", pri[fam]))
    return Complex2(("P", "Q", "R"), edges, faces)


@pytest.fixture(scope="module")
def survivors():
    """Every lozenge assignment over the fixed triangle charts that passes
    the ladder-link prefilter, as (unprimed, primed) word tables."""
    classes = _classes()
    assert len(classes) == 6
    out = []
    for ax, axp, ay, ayp, az, azp in product(classes, repeat=6):
        unp = {f: _loz_word(f, arr, 0)
               for f, arr in (("x", ax), ("y", ay), ("z", az))}
        pri = {f: _loz_word(f, arr, 1)
               for f, arr in (("x", axp), ("y", ayp), ("z", azp))}
        if _ladder_prefilter(unp, pri):
            out.append((unp, pri))
    return out


def test_no_transcription_is_orientable_with_the_right_flat_pieces(chartdata, survivors):
    """Search every lozenge assignment over the fixed triangle charts: the
    ladder-link condition leaves 30 configurations, none of which combines
    an orientable surface with the two-tori-one-Klein-bottle census; the
    shipped fixture is among the survivors."""
    assert len(survivors) == 30
    L = moebius_ladder()
    fixture_words = {fid: tuple(word) for fid, word in chartdata.lozenges.items()}
    fixture_seen = False
    orientable_with_census = 0
    for unp, pri in survivors:
        V = _build_config(unp, pri)
        assert all(labeled_isomorphic(V.vertex_link(v), L) is not None
                   for v in V.vertices)
        S = subcomplex(V, ["a", "b", "c", "d", "x", "y", "z"])
        rep = surface_report(S)
        assert rep.is_closed_surface and rep.euler_characteristic == -2
        kinds = sorted(p["kind"] for p in flat_piece_census(V))
        if rep.orientable and kinds == ["klein_bottle", "torus", "torus"]:
            orientable_with_census += 1
        config = {fid: tuple(f.word) for fid, f in V.faces.items()
                  if f.kind == "lozenge"}
        if all(word_match(config[fid], fixture_words[fid], False) is not None
               for fid in config):
            fixture_seen = True
            assert rep.orientable is False
            assert kinds == ["klein_bottle", "torus", "torus"]
    assert fixture_seen
    assert orientable_with_census == 0


def _ten_unit_surface(cx):
    return (surface_report(cx).is_closed_surface
            and all(link_circle_length(cx, v) == 10 for v in cx.vertices))


def test_no_transcription_meets_criteria_3_and_9_as_transcribed(survivors):
    """Over the 30 ladder-compatible configurations: no Aut(V) has order 8
    and exponent two (18 are dihedral of order 8, 12 have order 24), and
    whenever V has the two-tori-one-Klein-bottle census, every closed
    surface with ten-unit links made of the triangles and one lozenge per
    family is non-orientable."""
    group_orders = []
    with_census = 0
    for unp, pri in survivors:
        V = _build_config(unp, pri)
        orders = sorted(m.order() for m in automorphism_group(V))
        group_orders.append(len(orders))
        if len(orders) == 8:
            # the dihedral profile, so not of exponent two
            assert orders == [1, 2, 2, 2, 2, 2, 4, 4]
        kinds = sorted(p["kind"] for p in flat_piece_census(V))
        if kinds != ["klein_bottle", "torus", "torus"]:
            continue
        with_census += 1
        picks = product(("x", "x'"), ("y", "y'"), ("z", "z'"))
        surfaces = [cx for cx in (subcomplex(V, ["a", "b", "c", "d", *p]) for p in picks)
                    if _ten_unit_surface(cx)]
        assert surfaces, "a census-bearing configuration has no ten-unit surface"
        for cx in surfaces:
            assert surface_report(cx).orientable is False
            assert brute_orientable(cx) is False
    assert sorted(group_orders) == [8] * 18 + [24] * 12
    assert with_census == 18


def test_criterion_03_fails_on_orientable_survivors(survivors):
    """Criterion 3 can fail: on each survivor whose S is orientable it
    reports exactly the orientability sub-claims, and nothing else."""
    orientable = 0
    for unp, pri in survivors:
        S = subcomplex(_build_config(unp, pri), ["a", "b", "c", "d", "x", "y", "z"])
        if not surface_report(S).orientable:
            continue
        orientable += 1
        crit = Criterion(3, "quotient surface")
        check_quotient_surface(crit, S)
        assert len(crit.failures) == 2, crit.failures
        assert "orientable=True" in crit.failures[0]
        assert "oracle gives True" in crit.failures[1]
    assert orientable == 6


def test_prefilter_agrees_with_link_isomorphism():
    import random

    rng = random.Random(31415)
    classes = _classes()
    L = moebius_ladder()
    for _ in range(80):
        unp = {f: _loz_word(f, classes[rng.randrange(6)], 0) for f in "xyz"}
        pri = {f: _loz_word(f, classes[rng.randrange(6)], 1) for f in "xyz"}
        V = _build_config(unp, pri)
        full = all(labeled_isomorphic(V.vertex_link(v), L) is not None
                   for v in V.vertices)
        assert full == _ladder_prefilter(unp, pri)

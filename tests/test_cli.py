import json
import sys
from collections import Counter
from importlib import resources

import pytest

from hamsurf.certs import Certificate, check, to_json, to_text
from hamsurf.cli import _ladder_rung_witnesses, main
from hamsurf.hamgraph import HamCycle, enumerate_hamiltonian_cycles, moebius_ladder


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_ladder_passes(capsys):
    code, out = run(capsys, "check-ladder")
    assert code == 0
    certs = json.loads(out)
    assert all(c["status"] == "pass" for c in certs)
    assert {"claim", "ref", "status", "witness", "version", "fixture_digest"} \
        <= set(certs[0])


def test_rung_witnesses_name_the_first_counterexample():
    L = moebius_ladder()
    index = {frozenset(e[:2]): i for i, e in enumerate(L.edges)}
    # a six-node cycle through rungs 1-5 and 3-7: it omits the rungs 0-4 and
    # 2-6, which no rim edge joins, and its arcs have two rim edges, not three
    nodes = (1, 5, 4, 3, 7, 0)
    edges = frozenset(index[frozenset((a, b))] for a, b in zip(nodes, nodes[1:] + nodes[:1]))
    bad = HamCycle(nodes=nodes, edge_indices=edges, labels=(), rung_count=2)
    omitted, used = _ladder_rung_witnesses(L, enumerate_hamiltonian_cycles(L) + [bad])
    assert omitted == {"omitted_consecutive": False, "two_rung_cycles": 5,
                       "counterexample": [[0, 4], [2, 6]]}
    assert used == {"used_distance_three": False, "two_rung_cycles": 5,
                    "counterexample": [[1, 5], [3, 7]]}


@pytest.mark.parametrize("command, calls", [("find-surfaces", 3), ("check-all", 5)])
def test_link_cycles_are_enumerated_once_per_graph(monkeypatch, capsys, command, calls):
    # check-all enumerates the ladder, the Coxeter graph and each of V's
    # three links once; propagation reads V's cycles through the covering map
    counted = []

    def counting(graph):
        counted.append(graph)
        return enumerate_hamiltonian_cycles(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("hamsurf") and module is not None:
            for key, value in list(vars(module).items()):
                if value is enumerate_hamiltonian_cycles:
                    monkeypatch.setattr(module, key, counting)
    run(capsys, command, "--radius", "2")
    assert len(counted) == calls


def test_check_cover_passes(capsys):
    code, out = run(capsys, "check-cover", "--radius", "2")
    assert code == 0
    certs = json.loads(out)
    assert len(certs) == 9
    assert all(c["status"] == "pass" for c in certs)


def test_find_surfaces_passes(capsys):
    code, out = run(capsys, "find-surfaces")
    assert code == 0
    certs = json.loads(out)
    by_ref = {c["ref"]: c for c in certs}
    assert by_ref["surfaces.two"]["witness"]["surfaces"] == 2
    assert by_ref["surfaces.census"]["status"] == "pass"
    assert by_ref["surfaces.periodicity"]["witness"]["projections"] == ["S", "S'"]


def test_check_quotient_reports_the_orientability_failure(capsys):
    code, out = run(capsys, "check-quotient")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    failing = sorted(r for r, c in by_ref.items() if c["status"] != "pass")
    assert failing == ["quotient.genus"]
    assert by_ref["quotient.genus"]["witness"]["orientable"] is False
    assert by_ref["quotient.flat-pieces"]["status"] == "pass"


def test_check_aut_reports_the_group_structure_failures(capsys):
    code, out = run(capsys, "check-aut")
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out)}
    failing = sorted(r for r, c in by_ref.items() if c["status"] != "pass")
    assert failing == ["aut.commute", "aut.exponent-two"]
    assert by_ref["aut.order"]["status"] == "pass"
    assert by_ref["aut.swap"]["status"] == "pass"


def test_check_all_exit_code(capsys):
    code, out = run(capsys, "check-all")
    assert code == 1
    certs = json.loads(out)
    failing = sorted(c["ref"] for c in certs if c["status"] != "pass")
    assert failing == ["aut.commute", "aut.exponent-two", "quotient.genus"]


def test_certificates_are_byte_stable(capsys):
    _code, out1 = run(capsys, "check-ladder")
    _code, out2 = run(capsys, "check-ladder")
    assert out1 == out2


def test_out_directory(tmp_path, capsys):
    code, _out = run(capsys, "check-ladder", "--out", str(tmp_path))
    assert code == 0
    written = (tmp_path / "check-ladder.json").read_text()
    assert json.loads(written)


def test_text_format(capsys):
    code, out = run(capsys, "check-ladder", "--format", "text")
    assert code == 0
    assert "claims pass" in out
    assert "PASS" in out


def test_corrupted_fixture_yields_error_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.charts"
    bad.write_text("edge x_a Q -> P\n")
    code, out = run(capsys, "check-quotient", "--charts", str(bad))
    assert code == 1
    certs = json.loads(out)
    assert certs[0]["status"] == "error"
    assert "line 1" in certs[0]["witness"]["error"]


def test_missing_fixture_yields_error_certificate(capsys):
    code, out = run(capsys, "check-quotient", "--charts", "/no/such/file")
    assert code == 1
    assert json.loads(out)[0]["status"] == "error"


def test_radius_cap(capsys):
    code, out = run(capsys, "check-cover", "--radius", "7")
    assert code == 1
    assert json.loads(out)[0]["status"] == "error"


def test_chart_that_fails_to_build_yields_error_certificates(tmp_path, capsys):
    # parses, but triangle a's boundary word no longer closes up
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    bad = tmp_path / "open.charts"
    bad.write_text(text.replace("face a triangle : x_a+", "face a triangle : x_a-"))
    code, out = run(capsys, "check-all", "--charts", str(bad))
    assert code == 1
    by_ref = {c["ref"]: c for c in json.loads(out) if c["status"] == "error"}
    assert {"quotient.fixture", "cover.fixture", "surfaces.fixture",
            "aut.fixture"} <= set(by_ref)
    assert "not closed" in by_ref["cover.fixture"]["witness"]["error"]


@pytest.mark.parametrize("radius", [-1, 0])
def test_cover_radius_below_one_is_an_error(capsys, radius):
    code, out = run(capsys, "check-cover", "--radius", str(radius))
    assert code == 1
    certs = json.loads(out)
    assert [(c["ref"], c["status"]) for c in certs] == [("cover.radius", "error")]
    assert "below 1" in certs[0]["witness"]["error"]


def test_cover_radius_one_passes(capsys):
    code, out = run(capsys, "check-cover", "--radius", "1")
    assert code == 0
    assert len(json.loads(out)) == 9


@pytest.mark.parametrize("radius", [-1, 0, 1])
def test_surfaces_radius_below_two_is_an_error(capsys, radius):
    code, out = run(capsys, "find-surfaces", "--radius", str(radius))
    assert code == 1
    certs = json.loads(out)
    assert [(c["ref"], c["status"]) for c in certs] == [("surfaces.radius", "error")]
    assert "below 2" in certs[0]["witness"]["error"]


def test_census_budget_propagates(capsys):
    code, out = run(capsys, "find-surfaces", "--budget", "5")
    certs = json.loads(out)
    by_ref = {c["ref"]: c for c in certs}
    assert by_ref["surfaces.census"]["status"] == "error"
    assert code == 1


def test_certificate_renderers():
    certs = [check("demo claim", "demo.ref", True, {"n": 1}),
             Certificate(claim="other", ref="demo.other", status="fail")]
    js = to_json(certs)
    assert json.loads(js)[0]["claim"] == "demo claim"
    text = to_text(certs)
    assert "1/2 claims pass" in text


def test_s_faceset_that_is_no_surface_yields_certificates(tmp_path, capsys):
    # y' in place of y: V is unchanged, but S's link at P is not one circle
    text = resources.files("hamsurf.data").joinpath("brady_v.charts").read_text()
    bad = tmp_path / "bad_s.charts"
    bad.write_text(text.replace("faceset S : a b c d x y z", "faceset S : a b c d x y' z"))
    code, out = run(capsys, "check-all", "--charts", str(bad))
    assert code == 1
    by_ref = {}
    for c in json.loads(out):
        by_ref.setdefault(c["ref"], []).append(c)
    links = by_ref["quotient.links-ten"][0]
    assert links["status"] == "fail"
    assert links["witness"]["not_one_circle"] == ["P"]
    families = Counter(ref.partition(".")[0] for ref, certs in by_ref.items()
                       for c in certs if c["status"] != "error")
    assert families == {"ladder": 8, "quotient": 10, "cover": 9, "surfaces": 6, "aut": 6}
    # periodicity reads S and S' from the chart, where S is no longer a lift
    periodicity = by_ref["surfaces.periodicity"][0]
    assert periodicity["status"] == "fail"
    assert "neither" in periodicity["witness"]["projections"]

"""Acceptance suite: the ten criteria, read off the certificates of
``hamsurf check-all``.

The CLI's claims are the one implementation of each criterion.  The
module-scoped ``certs`` fixture runs ``check-all`` once; each criterion
asserts the status and the witness of its own certificates, prints

    ACCEPTANCE <n> <name>: PASS|FAIL (<seconds>)

and fails if any of them does not hold.  ``CLAIMS`` maps each criterion to
its certificates, keyed ``ref`` or ``ref@base``:

- 1: ladder.census, omitted-rungs, used-rung-distance, vertex-transitive, girth
- 2: ladder.types
- 3: quotient.surface, links-ten, genus (fails), sibling, intersection
- 4: quotient.fixture, valid, order-two, links-ladder
- 5: quotient.flat-pieces
- 6: cover.verify, girth, idempotent, each from P, Q and R
- 7: surfaces.two, hamiltonian, type-three, triangles, census
- 8: surfaces.periodicity
- 9: aut.order, tables, generate, swap, exponent-two (fails), commute (fails)
- 10: ladder.edge-parity, coxeter

Every certificate belongs to exactly one criterion: a criterion reads only
its own rows and must assert all of them, and
``test_every_certificate_belongs_to_one_criterion`` holds ``CLAIMS`` to what
``check-all`` emits.  Independent checks stay beside the certificates: the
brute-force orientability oracle (3), the census claim failing on a ball too
small for it (7), and the random-graph corpus against the permutation
oracle (10).

Criteria 3 and 9 assert the structure that V's charts force, which differs
from the transcribed claims: S is non-orientable with 4 crosscaps, not
orientable of genus 2 (every triangle reads x_k+ y_k+ z_k+, so an
orientation would need the +/- splits of {a,b,c,d} in the x, y and z
lozenges to agree; they do not), and Aut(V) is dihedral of order 8, not of
exponent two.  The transcribed claims live on as the failing certificates
``quotient.genus``, ``aut.exponent-two`` and ``aut.commute``.  The evidence
that no chart with ladder links and the two-tori-one-Klein-bottle census
meets them is in ``test_charts.py``
(``test_no_transcription_meets_criteria_3_and_9_as_transcribed``, and
``test_criterion_03_fails_on_orientable_survivors``, which runs criterion
3 on the orientable candidates) and ``test_cellmap.py``
(``test_theta23_squares_to_theta1``, the order-4 witness).
"""

import random
import time
from collections import Counter

import pytest

from hamsurf.certs import FAIL, PASS
from hamsurf.cli import (COMMANDS, ball_surface_certs, build_parser,
                         quotient_surface_certs, run_commands)
from hamsurf.hamgraph import LabeledGraph, enumerate_hamiltonian_cycles
from oracles import brute_orientable, degree, naive_hamiltonian_cycles, networkx_connected

CLAIMS = {
    1: ["ladder.census", "ladder.omitted-rungs", "ladder.used-rung-distance",
        "ladder.vertex-transitive", "ladder.girth"],
    2: ["ladder.types"],
    3: ["quotient.surface", "quotient.links-ten", "quotient.genus",
        "quotient.sibling", "quotient.intersection"],
    4: ["quotient.fixture", "quotient.valid", "quotient.order-two",
        "quotient.links-ladder"],
    5: ["quotient.flat-pieces"],
    6: [f"cover.{c}@{b}" for b in "PQR" for c in ("verify", "girth", "idempotent")],
    7: ["surfaces.two", "surfaces.hamiltonian", "surfaces.type-three",
        "surfaces.triangles", "surfaces.census"],
    8: ["surfaces.periodicity"],
    9: ["aut.order", "aut.exponent-two", "aut.tables", "aut.generate",
        "aut.commute", "aut.swap"],
    10: ["ladder.edge-parity", "ladder.coxeter"],
}


def key(cert):
    base = cert.witness.get("base")
    return f"{cert.ref}@{base}" if base else cert.ref


@pytest.fixture(scope="module")
def certs():
    return run_commands(build_parser().parse_args(["check-all"]), COMMANDS)


@pytest.fixture(scope="module")
def table(certs):
    return {key(c): c for c in certs}


def _fmt(witness):
    return ", ".join(f"{k}={v}" for k, v in witness.items())


class Criterion:
    def __init__(self, number, name, table=None):
        self.number = number
        self.name = name
        self.failures = []
        self.start = time.perf_counter()
        self.rows = {k: table.get(k) for k in CLAIMS[number]} if table else {}
        self.unread = set(self.rows)

    def expect(self, condition, message):
        if not condition:
            self.failures.append(message)

    def row(self, ref, status=PASS, **witness):
        """Expect the certificate to have this status and these witness
        entries, as one expectation; returns its whole witness."""
        self.unread.discard(ref)
        cert = self.rows[ref]  # KeyError: the row is another criterion's
        if cert is None:
            self.expect(False, f"check-all emits no {ref}")
            return {}
        got = {k: cert.witness.get(k) for k in witness}
        self.expect(cert.status == status and got == witness,
                    f"{ref}: {status} with {_fmt(witness)} expected, "
                    f"got {cert.status} with {_fmt(got)}")
        return cert.witness

    def finish(self):
        self.expect(not self.unread, f"rows never asserted: {sorted(self.unread)}")
        took = time.perf_counter() - self.start
        status = "FAIL" if self.failures else "PASS"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({took:.2f}s)")
        if self.failures:
            pytest.fail(f"criterion {self.number} ({self.name}): "
                        + "; ".join(self.failures), pytrace=False)


def test_every_certificate_belongs_to_one_criterion(certs):
    emitted = Counter(key(c) for c in certs)
    claimed = Counter(k for keys in CLAIMS.values() for k in keys)
    assert emitted == claimed, (emitted - claimed, claimed - emitted)
    assert set(claimed.values()) == {1}


def test_criterion_01_ladder_census(table):
    crit = Criterion(1, "ladder census", table)
    crit.row("ladder.census", count=5, by_rung_count={0: 1, 2: 4})
    crit.row("ladder.omitted-rungs", omitted_consecutive=True,
             two_rung_cycles=4, counterexample=None)
    crit.row("ladder.used-rung-distance", used_distance_three=True,
             two_rung_cycles=4, counterexample=None)
    crit.row("ladder.vertex-transitive")
    crit.row("ladder.girth", girth=6)
    crit.finish()


def test_criterion_02_type_census(table):
    crit = Criterion(2, "type census", table)
    crit.row("ladder.types", types={"type1": 1, "type2": 2, "type3": 2})
    crit.finish()


def expect_surface_claims(crit, S):
    """Criterion 3's claims on S, from the certificates in crit's rows, and
    the brute-force orientability oracle."""
    crit.row("quotient.surface", closed=True, chi=-2)
    crit.row("quotient.links-ten", lengths={v: 10 for v in S.vertices})
    crit.row("quotient.genus", FAIL, orientable=False, genus_or_crosscaps=4)
    brute = brute_orientable(S)
    crit.expect(brute is False,
                f"brute-force orientability oracle gives {brute}, expected False")


def check_quotient_surface(crit, S):
    """Criterion 3's sub-claims on a candidate quotient surface S, from the
    certificates ``check-quotient`` issues for a surface."""
    crit.rows.update((c.ref, c) for c in quotient_surface_certs(S)[1])
    expect_surface_claims(crit, S)


def test_criterion_03_quotient_surface(table, S):
    crit = Criterion(3, "quotient surface", table)
    expect_surface_claims(crit, S)
    crit.row("quotient.sibling", closed=True, chi=-2)
    crit.row("quotient.intersection", shared=["a", "b", "c", "d"])
    crit.finish()


def test_criterion_04_order_two_and_links(table):
    crit = Criterion(4, "order two and ladder links", table)
    crit.row("quotient.fixture", edges=12, vertices=3, triangles=4, lozenge_records=9)
    crit.row("quotient.valid")
    crit.row("quotient.order-two", degrees=[3])
    crit.row("quotient.links-ladder", links={"P": True, "Q": True, "R": True})
    crit.finish()


def test_criterion_05_flat_pieces(table):
    crit = Criterion(5, "flat pieces", table)
    crit.row("quotient.flat-pieces",
             pieces={"x x'": "torus", "y y'": "torus", "z z'": "klein_bottle"})
    crit.finish()


def test_criterion_06_cover_invariants(table):
    crit = Criterion(6, "cover invariants", table)
    for base in "PQR":
        crit.row(f"cover.verify@{base}", interior_vertices=9, problems=[])
        crit.row(f"cover.girth@{base}", girths=[6])
        crit.row(f"cover.idempotent@{base}")
    crit.finish()


def test_criterion_07_two_surfaces(table, ball1):
    crit = Criterion(7, "two-surface theorem at ball scale", table)
    crit.row("surfaces.two", seeds=48, surfaces=2)
    crit.row("surfaces.hamiltonian", ok=[True, True])
    crit.row("surfaces.type-three", types=["type3"])
    crit.row("surfaces.triangles", interior_triangles=4)
    crit.row("surfaces.census", solutions=2)
    # the census claim can fail: around the one interior vertex of the
    # radius-1 ball every Hamiltonian link cycle is a solution, not only
    # the two type-3 germs that propagation grows
    small = {c.ref: c for c in ball_surface_certs(ball1)}["surfaces.census"]
    crit.expect((small.status, small.witness.get("solutions")) == (FAIL, 5),
                f"radius-1 census: fail with 5 solutions expected, got {small.status} "
                f"with {small.witness}")
    crit.finish()


def test_criterion_08_periodicity(table):
    crit = Criterion(8, "periodicity", table)
    crit.row("surfaces.periodicity", projections=["S", "S'"])
    crit.finish()


def test_criterion_09_automorphisms(table):
    crit = Criterion(9, "automorphism group", table)
    thetas = {f"theta{i}": True for i in (1, 2, 3)}
    crit.row("aut.order", order=8)
    # among the five groups of order 8 only the dihedral one has this profile
    crit.row("aut.exponent-two", FAIL, element_orders=[1, 2, 2, 2, 2, 2, 4, 4])
    crit.row("aut.tables", members=thetas, involutive=thetas)
    crit.row("aut.generate", generated_order=8)
    crit.row("aut.commute", FAIL, pairs={"theta1*theta2": True, "theta1*theta3": True,
                                         "theta2*theta3": False})
    crit.row("aut.swap", image=["a", "b", "c", "d", "x'", "y'", "z'"])
    crit.finish()


def test_criterion_10_enumerator_soundness(table):
    crit = Criterion(10, "enumerator soundness", table)
    crit.row("ladder.edge-parity", even=True)
    crit.row("ladder.coxeter", nodes=28, cycles=0)
    rng = random.Random(2468)
    compared = 0
    for _ in range(40):
        n = rng.randint(3, 8)
        g = LabeledGraph()
        for i in range(n):
            g.add_node(i)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.uniform(0.3, 0.9):
                    g.add_edge(i, j, None)
        if not networkx_connected(g):
            continue
        mine = {c.edge_indices for c in enumerate_hamiltonian_cycles(g)}
        crit.expect(mine == naive_hamiltonian_cycles(g),
                    f"enumeration mismatch on a {n}-node graph")
        compared += 1
        # parity on cubic Hamiltonian instances
        if all(degree(g, v) == 3 for v in g.nodes) and mine:
            counts = Counter(i for cyc in mine for i in cyc)
            crit.expect(all(v % 2 == 0 for v in counts.values()),
                        "edge parity violated on a cubic instance")
    crit.expect(compared >= 25, f"only {compared} corpus graphs compared")
    crit.finish()

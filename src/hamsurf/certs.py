"""Verification certificates: one JSON record per checked claim.

A certificate names the claim, carries a stable claim identifier, the
pass/fail/error status, a witness payload with the computed values, the
tool version and the digest of the chart fixture it was computed from.
Serialization is deterministic (sorted keys, fixed separators), so
certificate files are byte-stable across runs.
"""

from __future__ import annotations

import json

from . import __version__

PASS, FAIL, ERROR = "pass", "fail", "error"


class Certificate:
    """One checked claim: ``claim`` says what is claimed, ``ref`` is its
    stable identifier, ``status`` is PASS, FAIL or ERROR, ``witness`` holds
    the computed values, ``version`` is the tool version and
    ``fixture_digest`` the SHA-256 of the charts it was computed from (""
    when none).  These six attributes are all it holds, so ``vars`` of a
    certificate is its JSON record, and two certificates are equal when
    all six are."""

    def __init__(self, claim, ref, status, witness):
        self.claim = claim
        self.ref = ref
        self.status = status
        self.witness = witness
        self.version = __version__
        self.fixture_digest = ""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return f"Certificate({vars(self)!r})"

    def ok(self):
        return self.status == PASS


def check(claim, ref, condition, witness):
    return Certificate(claim=claim, ref=ref, status=PASS if condition else FAIL,
                       witness=witness)


def error_certificate(claim, ref, message):
    return Certificate(claim=claim, ref=ref, status=ERROR, witness={"error": message})


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_plain(v) for v in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def to_json(certificates):
    payload = [_plain(vars(c)) for c in certificates]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_text(certificates):
    lines = []
    width = max((len(c.claim) for c in certificates), default=0)
    for c in certificates:
        lines.append(f"{c.status.upper():5} {c.claim:<{width}}  [{c.ref}]")
        for key, value in sorted(_plain(c.witness).items()):
            lines.append(f"      {key} = {value}")
    total = len(certificates)
    good = sum(1 for c in certificates if c.ok())
    lines.append(f"{good}/{total} claims pass")
    return "\n".join(lines) + "\n"

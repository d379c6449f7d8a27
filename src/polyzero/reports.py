"""JSON artifacts shared by the drivers and the command line.

Certificates and refutation witnesses serialize to plain JSON: ideal
generators become polynomial strings over a flat ring that lists the
certificate variables and the coefficient-field parameters side by
side (denominators are cleared, which rescales each generator by a
unit and therefore preserves the ideal), and derivations become nested
production indices.  Report dumps are deterministic: sorted keys,
fixed indentation, no timestamps, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .errors import CertificateError, ParseError, PolyzeroError
from .grammar import Grammar, InvariantCertificate, Witness
from .groebner import Ideal
from .poly import Poly, PolyRing, flat_ring_for, flatten_poly, structure_poly

CERT_FORMAT = "polyzero-certificate-v1"
REPORT_FORMAT = "polyzero-report-v1"


def poly_to_str(p: Poly) -> str:
    """Parseable string form; fraction-field coefficients are cleared
    into parameter variables first (unit rescale)."""
    return str(flatten_poly(p, flat_ring_for(p.ring)))


def poly_from_str(ring: PolyRing, text: str) -> Poly:
    flat = flat_ring_for(ring)
    p = flat.parse(text)
    if flat == ring:
        return p
    return structure_poly(p, ring)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(g: Grammar, cert: InvariantCertificate) -> dict:
    ideals = {nt: [poly_to_str(f) for f in ideal.gens]
              for nt, ideal in sorted(cert.ideals.items())}
    return {"format": CERT_FORMAT,
            "grammar": cert.grammar_name if cert.grammar_name is not None
            else g.name,
            "ideals": ideals}


def certificate_from_obj(g: Grammar, obj: Any) -> InvariantCertificate:
    if not isinstance(obj, dict) or obj.get("format") != CERT_FORMAT:
        raise CertificateError("unrecognized certificate format")
    gname = obj.get("grammar")
    if gname is not None and g.name is not None and gname != g.name:
        raise CertificateError(
            f"certificate names grammar {gname!r}, not {g.name!r}")
    table = obj.get("ideals")
    if not isinstance(table, dict):
        raise CertificateError("certificate lacks an ideals table")
    ideals: dict[str, Ideal] = {}
    for nt, gens in table.items():
        if nt not in g.nonterminals:
            raise CertificateError(
                f"certificate mentions unknown nonterminal {nt!r}")
        if not isinstance(gens, list) or \
                not all(isinstance(s, str) for s in gens):
            raise CertificateError(f"generators of {nt!r} must be strings")
        ring = g.cert_ring(nt)
        try:
            polys = tuple(poly_from_str(ring, s) for s in gens)
        except (ParseError, PolyzeroError) as e:
            raise CertificateError(f"bad generator for {nt!r}: {e}") from e
        ideals[nt] = Ideal(ring, polys)
    return InvariantCertificate(ideals, grammar_name=gname)


# ---------------------------------------------------------------------------
# witnesses


def witness_to_obj(g: Grammar, w: Witness) -> dict:
    """Display form: the derivation tree plus exact value coordinates
    (these strings keep coefficient fractions and are not parsed back)."""
    return {"derivation": w.derivation.to_obj(g),
            "value": [str(c) for c in w.value]}


# ---------------------------------------------------------------------------
# report envelopes


def make_report(kind: str, inputs: Sequence[str], **fields: Any) -> dict:
    rep: dict[str, Any] = {"format": REPORT_FORMAT, "kind": kind,
                           "inputs": list(inputs)}
    rep.update(fields)
    return rep


def dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dump_json(obj))


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())

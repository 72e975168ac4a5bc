"""JSON schema for hyperbolic-programming instances and start points.

The schema is::

    {"family": {"name": ..., "d": ..., "k": ...},
     "c": [...], "A": [[...]], "b": [...], "e0": [...],
     "metadata": {...}}

Floats survive a write/parse cycle bit-exactly (shortest-repr JSON).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .hyperbolic import (
    DETERMINANT,
    ELEMENTARY_SYMMETRIC,
    PRODUCT,
    SECOND_ORDER,
    HpFamily,
    HpInstance,
    determinant_family,
    elementary_symmetric_family,
    product_family,
    second_order_family,
)
from .sdp import mat_order


def family_from_tag(name: str, d: int, k: int | None = None) -> HpFamily:
    if name == PRODUCT:
        return product_family(d)
    if name == SECOND_ORDER:
        return second_order_family(d)
    if name == DETERMINANT:
        return determinant_family(mat_order(d))
    if name == ELEMENTARY_SYMMETRIC:
        if k is None:
            raise ParseError("elementary_symmetric family needs a 'k' parameter")
        return elementary_symmetric_family(d, k)
    raise ParseError(f"unknown family tag {name!r}")


def read_hp_json(text: str) -> HpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad instance JSON: {exc}")
    try:
        fam = doc["family"]
        d, k = fam["d"], fam.get("k")
        # int() would truncate d = 5.7, and k = 2.5 would pass the range check;
        # a bool, although a Python int, is not an integer here.
        if not all(type(v) is int for v in (d, k) if v is not None):
            raise ParseError(f"family d and k must be integers, got {d!r}, {k!r}")
        family = family_from_tag(fam["name"], d, k)
        inst = HpInstance(
            family=family,
            c=np.array(doc["c"], dtype=float),
            A=np.atleast_2d(np.array(doc["A"], dtype=float)),
            b=np.array(doc["b"], dtype=float),
            e0=np.array(doc["e0"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance document: {exc}")
    inst.validate()
    return inst


# The writers, here and in tracefile, put one field, and one matrix or trace
# row, on a line.  Each piece is encoded without indentation, which json does
# in C; indent=2 falls back to the pure-Python encoder, which took 1.7 times
# as long on a d=200, m=100 instance.
def _rows(rows: list) -> str:
    """A list as a JSON array, one item per line."""
    return "[\n" + ",\n".join("    " + json.dumps(row) for row in rows) + "\n  ]"


def _document(fields: dict[str, str]) -> str:
    """A JSON object from already-encoded field values, one field per line."""
    body = ",\n".join(f"  {json.dumps(key)}: {text}" for key, text in fields.items())
    return "{\n" + body + "\n}\n"


def write_hp_json(inst: HpInstance, metadata: dict | None = None) -> str:
    fam: dict = {"name": inst.family.name, "d": inst.family.d}
    if inst.family.name == ELEMENTARY_SYMMETRIC:
        fam["k"] = inst.family.degree
    return _document({
        "family": json.dumps(fam),
        "c": json.dumps(inst.c.tolist()),
        "A": _rows(inst.A.tolist()),
        "b": json.dumps(inst.b.tolist()),
        "e0": json.dumps(inst.e0.tolist()),
        "metadata": json.dumps(metadata or {}),
    })


def read_start_point(text: str) -> np.ndarray:
    """Start matrix from a sidecar JSON document {"E0": [[...]]}."""
    try:
        doc = json.loads(text)
        E0 = np.array(doc["E0"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed start-point document: {exc}")
    if E0.ndim != 2 or E0.shape[0] != E0.shape[1]:
        raise ParseError("start point must be a square matrix")
    if not np.all(np.isfinite(E0)):
        raise ParseError("start point entries must be finite")
    return 0.5 * (E0 + E0.T)


def write_start_point(E0: np.ndarray) -> str:
    return _document({"E0": _rows(np.asarray(E0, dtype=float).tolist())})

"""JSON schema for hyperbolic-programming instances and start points.

The schema is::

    {"family": {"name": ..., "d": ..., "k": ...},
     "c": [...], "A": [[...]], "b": [...], "e0": [...],
     "metadata": {...}}

Every JSON read and write here and in :mod:`tracefile` goes through one
codec pair, ``_dumps`` and ``_loads``, which runs on ``orjson``.  A float is
written in its shortest round-trip spelling (``0.00001``, ``1e16``), so a
write/parse cycle keeps it bit-exactly, through this reader or any other.
"""

from __future__ import annotations

import json

import numpy as np
import orjson

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


def _dumps(value) -> str:
    """``value`` as compact JSON text, in ASCII.

    orjson writes NaN and ±Infinity as ``null`` and non-ASCII text raw, and
    it refuses integers beyond 64 bits, keys that are not strings and numpy
    scalars.  Those values go through ``json``, which writes ``NaN``,
    ``Infinity`` and ``\\u`` escapes, as the trace and instance files always
    have.  A ``None`` takes that path too.
    """
    try:
        text = orjson.dumps(value).decode()
        if "null" not in text and text.isascii():
            return text
    except orjson.JSONEncodeError:
        pass
    return json.dumps(value, separators=(",", ":"))


def _loads(text: str):
    """The value of JSON text.  orjson refuses the ``NaN`` and ``Infinity``
    tokens, which ``json`` reads; any text orjson refuses goes to ``json``,
    which reads it or raises its own error with its own message.  One value
    differs from ``json.loads``: orjson reads an integer literal beyond 64
    bits as a float."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def read_hp_json(text: str) -> HpInstance:
    try:
        doc = _loads(text)
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
# row, on a line.  Each piece is encoded by _dumps without indentation:
# json's indent=2 runs its pure-Python encoder, which took 1.7 times as long
# as its C encoder on a d=200, m=100 instance, and orjson's indent option
# puts every matrix entry on a line of its own.
def _rows(rows: list) -> str:
    """A list as a JSON array, one item per line."""
    return "[\n" + ",\n".join("    " + _dumps(row) for row in rows) + "\n  ]"


def _document(fields: dict[str, str]) -> str:
    """A JSON object from already-encoded field values, one field per line."""
    body = ",\n".join(f"  {_dumps(key)}: {text}" for key, text in fields.items())
    return "{\n" + body + "\n}\n"


def write_hp_json(inst: HpInstance, metadata: dict | None = None) -> str:
    fam: dict = {"name": inst.family.name, "d": inst.family.d}
    if inst.family.name == ELEMENTARY_SYMMETRIC:
        fam["k"] = inst.family.degree
    return _document({
        "family": _dumps(fam),
        "c": _dumps(inst.c.tolist()),
        "A": _rows(inst.A.tolist()),
        "b": _dumps(inst.b.tolist()),
        "e0": _dumps(inst.e0.tolist()),
        "metadata": _dumps(metadata or {}),
    })


def read_start_point(text: str) -> np.ndarray:
    """Start matrix from a sidecar JSON document {"E0": [[...]]}."""
    try:
        doc = _loads(text)
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

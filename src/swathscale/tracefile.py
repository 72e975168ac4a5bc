"""Trace serialization: per-iteration records to CSV or JSON and back.

Both formats write every value as compact JSON, through the codec pair of
:mod:`hpjson`: floats in their shortest round-trip spelling and a
non-finite float as ``NaN`` or ``Infinity``, so a parse of the exported text
reproduces every field bit-exactly.  A CSV row is the JSON array of its
values without the brackets, and a CSV metadata line is
``# key=<JSON value>``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields

from .core import schedule_constants
from .driver import IterationRecord, SolveResult, SolverConfig
from .errors import DomainError, ParseError
from .hpjson import _document, _dumps, _loads, _rows


def trace_header(
    instance_id: str,
    backend: str,
    config: SolverConfig,
    n: int,
    m: int,
) -> dict:
    consts = schedule_constants(config.alpha, n)
    return {
        "instance_id": instance_id,
        "backend": backend,
        "alpha": config.alpha,
        "kappa": consts.kappa,
        "beta": consts.beta,
        "n": n,
        "m": m,
        "config": {
            key: value.value if isinstance(value, enum.Enum) else value
            for key, value in vars(config).items()
        },
    }


def trace_footer(result: SolveResult) -> dict:
    final_gap = result.trace[-1].gap if result.trace else float("nan")
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "final_gap": final_gap,
        "violations": dict(result.violations),
    }


def export_trace(result: SolveResult, header: dict, fmt: str = "csv") -> str:
    """Render a run as text; fmt is "csv" or "json".

    A row is an :class:`IterationRecord`'s fields in declaration order: the
    JSON row is its field dict and the CSV row its values.
    """
    rows = [vars(rec) for rec in result.trace]
    if fmt == "json":
        return _document({
            "header": _dumps(header),
            "rows": _rows(rows),
            "footer": _dumps(trace_footer(result)),
        })
    if fmt != "csv":
        raise DomainError(f"unknown trace format {fmt!r}")
    lines = [f"# {key}={_dumps(value)}" for key, value in header.items()]
    lines.append(",".join(field.name for field in fields(IterationRecord)))
    lines += [_dumps([*row.values()])[1:-1] for row in rows]
    lines += [f"# {key}={_dumps(value)}" for key, value in trace_footer(result).items()]
    return "\n".join(lines) + "\n"


def _numbers(cells) -> bool:
    # A cell is a JSON number: NaN and Infinity parse as floats, while a
    # bool, although a Python int, is not a number here.
    return all(type(cell) in (int, float) for cell in cells)


def parse_trace(text: str) -> dict:
    """Recover {header, rows, footer} from either export format; every
    row cell is a number."""
    if text.lstrip().startswith("{"):
        try:
            doc = _loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad trace JSON: {exc}")
        doc_rows = doc.get("rows")
        if not isinstance(doc_rows, list) or not all(
            isinstance(part, dict) for part in (doc.get("header"), doc.get("footer"), *doc_rows)
        ):
            raise ParseError("not a trace: needs header and footer objects and row objects")
        for index, row in enumerate(doc_rows):
            if not _numbers(row.values()):
                raise ParseError(f"trace row {index} has a value that is not a number")
        return doc

    header: dict = {}
    footer: dict = {}
    rows: list[dict] = []
    columns: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, rhs = line[1:].partition("=")
            try:
                value = _loads(rhs)
            except json.JSONDecodeError:
                raise ParseError("bad metadata line in trace", line=lineno)
            (footer if columns is not None else header)[key.strip()] = value
            continue
        if columns is None:
            columns = line.split(",")
            continue
        try:
            cells = _loads(f"[{line}]")
        except json.JSONDecodeError:
            raise ParseError("bad value in trace row", line=lineno)
        if not _numbers(cells):
            raise ParseError("trace row has a value that is not a number", line=lineno)
        if len(cells) != len(columns):
            raise ParseError("trace row width mismatch", line=lineno)
        rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ParseError("trace has no column header")
    return {"header": header, "rows": rows, "footer": footer}

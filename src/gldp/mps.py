"""Free-format MPS writer.

Columns are written in model order, each run of binary columns bracketed by
``INTORG``/``INTEND`` marker lines, and all boxes are written explicitly in
the BOUNDS section, so mainstream MILP solvers reconstruct the exact model
with the same column order.  Minimization is assumed.  Output is
byte-deterministic for a given model.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .model import EQ, GE, LE, MilpModel, row_range

_SENSE_TO_ROW = {LE: "L", GE: "G", EQ: "E"}
_MARKER = "    MARKER                 'MARKER'                 "


def _num(v: float) -> str:
    return repr(float(v))


def _sanitized_names(model: MilpModel) -> List[str]:
    names: List[str] = []
    used = set()
    for i, var in enumerate(model.variables):
        name = re.sub(r"[^A-Za-z0-9_.]", "_", var.name) or f"v{i}"
        while name in used:
            name = f"{name}_{i}"
        used.add(name)
        names.append(name)
    return names


def _row_kind(model: MilpModel, c: int, sense: str) -> str:
    """The MPS row type of sense code ``c``; an unknown sense raises the
    ``ValueError`` of :func:`row_range`, naming the first row that has it."""
    try:
        row_range(sense, 0.0)
    except ValueError as e:
        ri = int((model.store.arrays()[3] == c).argmax())
        raise ValueError(f"row R{ri} ({model.store.provenance[ri]}): {e}") from None
    return _SENSE_TO_ROW[sense]


def to_mps_string(model: MilpModel) -> str:
    """Render the model as free-format MPS text."""
    names = _sanitized_names(model)
    start, cols, vals, code, rhs = model.store.arrays()
    kinds = [_row_kind(model, c, s) for c, s in enumerate(model.store.senses[: code.max(initial=-1) + 1])]
    lines: List[str] = [f"NAME          {model.name or 'GLDP'}"]
    lines.append("ROWS")
    lines.append(" N  OBJ")
    lines += [f" {kinds[c]}  R{ri}" for ri, c in enumerate(code.tolist())]

    # each column's entries in row order, after its objective entry
    per_col: Dict[int, List[Tuple[str, float]]] = {i: [] for i in range(len(model.variables))}
    for v, a in model.objective.items():
        per_col[v].append(("OBJ", a))
    rows = np.repeat(np.arange(len(code)), np.diff(start))
    order = np.argsort(cols, kind="stable")
    for v, ri, a in zip(cols[order].tolist(), rows[order].tolist(), vals[order].tolist()):
        per_col[v].append((f"R{ri}", a))

    lines.append("COLUMNS")
    in_block = False
    for i, var in enumerate(model.variables):
        if var.is_binary != in_block:
            in_block = var.is_binary
            lines.append(_MARKER + ("'INTORG'" if in_block else "'INTEND'"))
        for rowname, a in per_col[i] or [("OBJ", 0.0)]:  # every column appears once
            lines.append(f"    {names[i]}  {rowname}  {_num(a)}")
    if in_block:
        lines.append(_MARKER + "'INTEND'")

    lines.append("RHS")
    lines += [f"    RHS  R{ri}  {_num(b)}" for ri, b in enumerate(rhs.tolist())]

    lines.append("BOUNDS")
    for i, var in enumerate(model.variables):
        lines.append(f" LO BND  {names[i]}  {_num(var.lower)}")
        lines.append(f" UP BND  {names[i]}  {_num(var.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def export_mps(model: MilpModel, path: Union[str, Path]) -> None:
    """Write the model to ``path`` in free-format MPS."""
    Path(path).write_text(to_mps_string(model))

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

from .model import EQ, GE, LE, MilpModel

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


def to_mps_string(model: MilpModel) -> str:
    """Render the model as free-format MPS text."""
    names = _sanitized_names(model)
    lines: List[str] = [f"NAME          {model.name or 'GLDP'}"]
    lines.append("ROWS")
    lines.append(" N  OBJ")
    for ri, row in enumerate(model.rows):
        lines.append(f" {_SENSE_TO_ROW[row.sense]}  R{ri}")

    per_col: Dict[int, List[Tuple[str, float]]] = {i: [] for i in range(len(model.variables))}
    for v, a in model.objective.items():
        per_col[v].append(("OBJ", a))
    for ri, row in enumerate(model.rows):
        for v, a in row.coeffs.items():
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
    for ri, row in enumerate(model.rows):
        lines.append(f"    RHS  R{ri}  {_num(row.rhs)}")

    lines.append("BOUNDS")
    for i, var in enumerate(model.variables):
        lines.append(f" LO BND  {names[i]}  {_num(var.lower)}")
        lines.append(f" UP BND  {names[i]}  {_num(var.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def export_mps(model: MilpModel, path: Union[str, Path]) -> None:
    """Write the model to ``path`` in free-format MPS."""
    Path(path).write_text(to_mps_string(model))

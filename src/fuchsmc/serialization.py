"""JSON file formats and the operation-log entries.

Residue-tuple file:   {"poles": [...], "matrices": [[[...], ...], ...],
                       "scheme": {...}?}
Normal-form file:     {"blocks": [...], "poles": [...], "A": [[...], ...],
                       "scheme": {...}?}
Scheme object:        {"points": ["inf", ...], "columns":
                       [[{"value": ..., "mult": k}, ...], ...]}

All scalars are strings in the canonical grammar; multiplicities and block
sizes are JSON integers.  A file that breaks this shape raises ParseError.
Operation logs are JSON objects, one per line, replayable through
apply_operation; their scalars may also be JSON integers, and a missing or
malformed field raises ParseError naming it.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import NotQ2Error, ParseError
from .katz import (
    addition,
    append_infinity_pole,
    drop_trailing_zero_pole,
    middle_convolution,
    permute,
    swap_with_infinity,
)
from .linalg import ExactMatrix
from .okubo import OkuboSystem, euler_transform, onf_from_scf, scf_from_onf
from .scalars import GaussianRational, format_scalar, parse_scalar
from .schlesinger import SchlesingerTuple
from .spectral import RiemannScheme
from .yokoyama import ExtensionParams, RestrictionParams, extend_direct, restrict


def matrix_to_json(m: ExactMatrix) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in m.rows]


def matrix_from_json(data) -> ExactMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix must be a non-empty list of rows")
    return ExactMatrix.from_rows([[_scalar(x) for x in row] for row in data])


def _scalar(x) -> GaussianRational:
    if not isinstance(x, str):
        raise ParseError(f"scalar {x!r} must be a string")
    return parse_scalar(x)


def _integer(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ParseError(f"{x!r} must be an integer")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a list")
    return x


def scheme_to_json(s: RiemannScheme) -> dict:
    return {
        "points": ["inf"] + [format_scalar(t) for t in s.poles],
        "columns": [
            [{"value": format_scalar(l), "mult": m} for l, m in col]
            for col in s.columns
        ],
    }


def scheme_from_json(data) -> RiemannScheme:
    try:
        points = data["points"]
        columns = data["columns"]
    except (TypeError, KeyError) as exc:
        raise ParseError("scheme needs points and columns") from exc
    if not _list(points, "scheme points") or points[0] != "inf":
        raise ParseError('scheme points must start with "inf"')
    cols = [[_part(e) for e in _list(col, "a scheme column")] for col in _list(columns, "scheme columns")]
    return RiemannScheme([_scalar(t) for t in points[1:]], cols)


def _part(e) -> tuple[GaussianRational, int]:
    if not isinstance(e, dict) or "value" not in e or "mult" not in e:
        raise ParseError('a scheme part must be an object with "value" and "mult"')
    return _scalar(e["value"]), _integer(e["mult"])


def scf_to_json(t: SchlesingerTuple) -> dict:
    out: dict[str, Any] = {
        "poles": [format_scalar(x) for x in t.poles],
        "matrices": [matrix_to_json(m) for m in t.matrices],
    }
    if t.scheme is not None:
        out["scheme"] = scheme_to_json(t.scheme)
    return out


def scf_from_json(data) -> SchlesingerTuple:
    try:
        poles = [_scalar(x) for x in _list(data["poles"], "poles")]
        mats = [matrix_from_json(m) for m in _list(data["matrices"], "matrices")]
    except (TypeError, KeyError) as exc:
        raise ParseError("residue-tuple file needs poles and matrices") from exc
    scheme = scheme_from_json(data["scheme"]) if "scheme" in data else None
    return SchlesingerTuple(poles, mats, scheme)


def onf_to_json(o: OkuboSystem) -> dict:
    out: dict[str, Any] = {
        "blocks": list(o.block_sizes),
        "poles": [format_scalar(x) for x in o.poles],
        "A": matrix_to_json(o.a),
    }
    if o.scheme is not None:
        out["scheme"] = scheme_to_json(o.scheme)
    return out


def onf_from_json(data) -> OkuboSystem:
    try:
        blocks = [_integer(b) for b in _list(data["blocks"], "blocks")]
        poles = [_scalar(x) for x in _list(data["poles"], "poles")]
        a = matrix_from_json(data["A"])
    except (TypeError, KeyError) as exc:
        raise ParseError("normal-form file needs blocks, poles and A") from exc
    scheme = scheme_from_json(data["scheme"]) if "scheme" in data else None
    return OkuboSystem(blocks, poles, a, scheme)


def system_from_json(data):
    """Either file format, detected by its keys."""
    if isinstance(data, dict) and "matrices" in data:
        return scf_from_json(data)
    if isinstance(data, dict) and "A" in data:
        return onf_from_json(data)
    raise ParseError("unrecognized system file (expected matrices or A)")


def system_to_json(system) -> dict:
    if isinstance(system, SchlesingerTuple):
        return scf_to_json(system)
    return onf_to_json(system)


def system_from_text(text: str, source: str):
    """The system in the JSON text of a file in either format; source names
    the file in the ParseError for text that is not JSON."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: {exc}") from exc
    return system_from_json(data)


def read_text(path: str) -> str:
    """The text of a UTF-8 file; any other bytes raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def load_system(path: str):
    return system_from_text(read_text(path), path)


def save_system(path: str, system) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_json(system), fh, indent=1)
        fh.write("\n")


# -- operation log ----------------------------------------------------------------


def parse_operations(text: str) -> list[dict]:
    """One JSON object per non-empty line."""
    ops = []
    for k, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"operation line {k}: {exc}") from exc
        if not isinstance(entry, dict) or "op" not in entry:
            raise ParseError(f'operation line {k}: expected an object with "op"')
        ops.append(entry)
    return ops


def apply_operation(system, entry: dict):
    """Apply one log entry; converts between the two shapes as needed.

    Tuple-level entries (mc, add, swapinf, perm, dropzero) run on the residue
    tuple; normal-form entries (extend, restrict, euler) convert the state
    first when necessary.
    """
    op = entry.get("op")
    if op in ("mc", "add", "swapinf", "perm", "appendpole", "dropzero"):
        t = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
        if op == "mc":
            return middle_convolution(t, _field(entry, "lambda", _operand))
        if op == "add":
            return addition(t, _field(entry, "mu", lambda x: [_operand(c) for c in _list(x, "its value")]))
        if op == "swapinf":
            return swap_with_infinity(t, _field(entry, "j", _integer))
        if op == "perm":
            return permute(t, _field(entry, "sigma", lambda x: [_integer(k) for k in _list(x, "its value")]))
        if op == "appendpole":
            return append_infinity_pole(t, _field(entry, "t", _operand))
        return drop_trailing_zero_pole(t)
    if op in ("extend", "restrict", "euler", "convert"):
        o = onf_from_scf(system) if isinstance(system, SchlesingerTuple) else system
        if op == "extend":
            params = ExtensionParams(*(_field(entry, name, _operand) for name in ("rho1", "rho2", "t")))
            return extend_direct(o, params)
        if op == "restrict":
            return restrict(o, _restriction_params(o, entry))
        if op == "euler":
            return euler_transform(o, _field(entry, "lambda", _operand))
        return o
    raise ParseError(f"unknown operation {op!r}")


def _field(entry: dict, name: str, read):
    """read(entry[name]); a missing field, or one that read refuses, raises
    ParseError naming the field."""
    if name not in entry:
        raise ParseError(f'operation {entry.get("op")!r} needs the field "{name}"')
    try:
        return read(entry[name])
    except ParseError as exc:
        raise ParseError(f'field "{name}": {exc}') from None


def _operand(x) -> GaussianRational:
    """A scalar of an operation log: a string in the grammar or an integer."""
    if isinstance(x, int) and not isinstance(x, bool):
        return GaussianRational(x)
    if not isinstance(x, str):
        raise ParseError(f"scalar {x!r} must be a string or an integer")
    return parse_scalar(x)


def _restriction_params(o: OkuboSystem, entry: dict) -> RestrictionParams:
    j = _field(entry, "j", _integer)
    if "mu1" in entry and "mu2" in entry:
        return RestrictionParams(_field(entry, "mu1", _operand), _field(entry, "mu2", _operand), j)
    if o.scheme is None:
        raise NotQ2Error(
            "restriction needs mu1/mu2 explicitly or a declared scheme to read them from"
        )
    inf_col = o.scheme.column_at_infinity()
    if len(inf_col) != 2:
        raise NotQ2Error("infinity column must consist of exactly two parts")
    (l1, _), (l2, _) = inf_col
    return RestrictionParams(-l1, -l2, j)

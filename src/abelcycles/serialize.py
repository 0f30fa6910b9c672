"""Input schema detection and deterministic JSON output.

Four input schemas are accepted, telling them apart by their keys:

* planar polynomial system: {"xdot": [term...], "ydot": [term...]},
  optionally with an "a1" trig-polynomial candidate for the invariant-curve
  factorization after the rigid reduction
* homogeneous-nonlinearity system: {"a": "num/den", "n": int, "P": [...],
  "Q": [...]}
* cubic equation by coefficients: {"C1": ..., "C2": ..., "C3": ...},
  optionally with an "a1" candidate
* factored equation: {"a1": [...], "a2": ..., "b2": ...}

Bivariate terms are {"i": int, "j": int, "c": "num/den"}; trig terms reuse
the same shape for cos^i sin^j. All output goes through dumps(), which sorts
keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .abel import AbelEquation, FactoredAbel
from .planar import HomogeneousSystem, PlanarPolySystem
from .trig import TrigPoly

InputModel = Union[PlanarPolySystem, HomogeneousSystem, AbelEquation, FactoredAbel]


class SchemaError(ValueError):
    """The document does not match any accepted input schema."""


@dataclass(frozen=True)
class ParsedInput:
    kind: str  # "planar" | "homogeneous" | "abel" | "factored"
    model: InputModel
    a1_candidate: Optional[TrigPoly] = None


def detect_schema(data: dict) -> str:
    if not isinstance(data, dict):
        raise SchemaError("input must be a JSON object")
    keys = set(data)
    if {"xdot", "ydot"} <= keys:
        return "planar"
    if {"a", "n", "P", "Q"} <= keys:
        return "homogeneous"
    if {"C1", "C2", "C3"} <= keys:
        return "abel"
    if {"a1", "a2", "b2"} <= keys:
        return "factored"
    raise SchemaError(
        "unrecognized input: expected keys xdot/ydot, a/n/P/Q, C1/C2/C3, "
        "or a1/a2/b2"
    )


def _malformed(what: str, exc: Exception) -> SchemaError:
    # Python refuses to parse an int longer than its digit limit; say so in
    # the terms of the input, not of the interpreter
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        limit = sys.get_int_max_str_digits()
        return SchemaError(f"{what}: a coefficient has more than {limit} digits")
    return SchemaError(f"{what}: {exc}")


def parse_input(data: dict) -> ParsedInput:
    kind = detect_schema(data)
    try:
        if kind == "planar":
            model: InputModel = PlanarPolySystem.from_json(data)
        elif kind == "homogeneous":
            model = HomogeneousSystem.from_json(data)
        elif kind == "abel":
            model = AbelEquation.from_json(data)
        else:
            model = FactoredAbel.from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _malformed(f"malformed {kind} input", exc) from exc
    a1 = None
    if kind in ("planar", "abel") and "a1" in data:
        try:
            a1 = TrigPoly.from_json(data["a1"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise _malformed("malformed a1 candidate", exc) from exc
    return ParsedInput(kind, model, a1)


def load_input(path: str) -> ParsedInput:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise _malformed("not valid JSON", exc) from exc
    return parse_input(data)


def dumps(data) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"

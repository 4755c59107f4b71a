"""Scenario files: line-oriented YAML with a strict, published grammar.

Every scenario is a mapping with a ``kind`` tag (group | function | oracle
| coding | code | candidate-set: ``KINDS``, one per validator), an ``id``
string and the payload keys of its kind.  Unknown keys are rejected at
every level, and parsing then emitting reproduces the normalized document
byte for byte.
"""

from __future__ import annotations

from ..algebra import Z3BElement, group_validate, catalog, parse_quadratic, symbol_key
from ..codes import BlockCode
from ..errors import ScenarioError
from ..recurrence import CandidateSet
from ..rotation import Arc, CircleIntervalSet, RotationCoding
from ..zshift import (
    CodeImageOracle,
    OverrideOracle,
    PeriodicOracle,
    RotationOracle,
    SetOracle,
)


def _require_keys(mapping, required, optional, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ScenarioError(f"{where}: missing keys {missing}")


def _int(value, where):
    """An integer written as a YAML int or a digit string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lstrip("-").isdigit():
        return int(value)
    raise ScenarioError(f"{where}: expected an integer, got {value!r}")


def _ints(values, where):
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list, got {type(values).__name__}")
    return [_int(v, where) for v in values]


def _symbol(value):
    """Symbols are small ints where possible, else short strings."""
    if isinstance(value, bool):
        raise ScenarioError(f"booleans are not symbols: {value!r}")
    if isinstance(value, int):
        return value
    s = str(value)
    if s.lstrip("-").isdigit():
        return int(s)
    return s


def parse_scenario(text: str) -> dict:
    import yaml  # here, not at module level: a command that reads no scenario never loads it

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # the parser's own message spans several lines; report one
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ScenarioError(f"not valid YAML: {problem}{where}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a YAML mapping")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}")
    if not isinstance(doc.get("id"), str) or not doc["id"]:
        raise ScenarioError("scenario needs a nonempty string id")
    _VALIDATORS[kind](doc)
    return doc


def load_scenario(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def emit_scenario(doc: dict) -> str:
    import yaml

    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)


# -- validators ---------------------------------------------------------------

def _validate_group(doc):
    _require_keys(doc, ("kind", "id"), ("order", "table", "names", "catalog"), "group")
    if "catalog" in doc:
        if not isinstance(doc["catalog"], str) or doc["catalog"] not in catalog():
            raise ScenarioError(f"unknown catalog group {doc['catalog']!r}")
        return
    _require_keys(doc, ("kind", "id", "order", "table"), ("names",), "group")
    if not isinstance(doc["table"], list) or not all(isinstance(r, list) for r in doc["table"]):
        raise ScenarioError("group table must be a list of rows")


def _validate_function(doc):
    _require_keys(doc, ("kind", "id", "values"), (), "function")
    if not isinstance(doc["values"], list) or not doc["values"]:
        raise ScenarioError("function values must be a nonempty list")


def _validate_oracle_payload(doc, where="oracle"):
    variants = ("periodic", "set", "rotation", "code_image", "override")
    present = [v for v in variants if v in doc]
    if len(present) != 1:
        raise ScenarioError(f"{where}: exactly one of {variants} required, got {present}")
    tag = present[0]
    body = doc[tag]
    if tag == "periodic":
        if not isinstance(body, (str, list)) or not body:
            raise ScenarioError(f"{where}: periodic payload must be a nonempty word")
    elif tag == "set":
        _require_keys(body, (), ("aps", "halfline", "include", "exclude", "op"), f"{where}.set")
        if "halfline" in body:
            _require_keys(body["halfline"], ("from",), (), f"{where}.set.halfline")
    elif tag == "rotation":
        _validate_coding_payload(body, f"{where}.rotation")
    elif tag == "code_image":
        _require_keys(body, ("code", "inner"), (), f"{where}.code_image")
        _validate_code_payload(body["code"], f"{where}.code_image.code")
        _validate_oracle_payload(body["inner"], f"{where}.code_image.inner")
    elif tag == "override":
        _require_keys(body, ("inner", "patch"), (), f"{where}.override")
        _validate_oracle_payload(body["inner"], f"{where}.override.inner")
        if not isinstance(body["patch"], dict):
            raise ScenarioError(f"{where}: override patch must be a mapping")


def _validate_oracle(doc):
    variants = ("periodic", "set", "rotation", "code_image", "override")
    _require_keys(doc, ("kind", "id"), variants, "oracle")
    _validate_oracle_payload(doc)


def _validate_coding_payload(body, where):
    _require_keys(body, ("alpha", "cells"), ("base",), where)
    if not isinstance(body["cells"], dict) or not body["cells"]:
        raise ScenarioError(f"{where}: cells must be a nonempty mapping")
    for label, cell in body["cells"].items():
        if isinstance(cell, dict):
            _require_keys(cell, (), ("arcs", "points"), f"{where}.cells[{label}]")
            arcs = cell.get("arcs", [])
            if not isinstance(cell.get("points", []), list):
                raise ScenarioError(f"{where}: cell {label!r} points must be a list")
        else:
            arcs = cell
        if not isinstance(arcs, list):
            raise ScenarioError(f"{where}: cell {label!r} arcs must be a list")
        for arc in arcs:
            _require_keys(arc, ("lo", "hi"), ("lo_closed", "hi_closed"),
                          f"{where}.cells[{label}]")


def _validate_coding(doc):
    _require_keys(doc, ("kind", "id", "alpha", "cells"), ("base",), "coding")
    _validate_coding_payload({k: doc[k] for k in ("alpha", "cells", "base") if k in doc},
                             "coding")


def _validate_code_payload(body, where):
    _require_keys(body, ("offsets", "rule"), ("input_alphabet",), where)
    if not isinstance(body["offsets"], list) or not body["offsets"]:
        raise ScenarioError(f"{where}: offsets must be a nonempty list")
    if not isinstance(body["rule"], dict) or not body["rule"]:
        raise ScenarioError(f"{where}: rule must be a nonempty mapping")


def _validate_code(doc):
    _require_keys(doc, ("kind", "id", "offsets", "rule"), ("input_alphabet",), "code")
    _validate_code_payload({k: doc[k] for k in ("offsets", "rule", "input_alphabet")
                            if k in doc}, "code")


def _validate_candidate_set(doc):
    _require_keys(doc, ("kind", "id", "elements"), (), "candidate-set")
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise ScenarioError("candidate-set elements must be a nonempty list")


_VALIDATORS = {
    "group": _validate_group,
    "function": _validate_function,
    "oracle": _validate_oracle,
    "coding": _validate_coding,
    "code": _validate_code,
    "candidate-set": _validate_candidate_set,
}
KINDS = tuple(_VALIDATORS)


# -- builders ------------------------------------------------------------------

def build_group(doc):
    if "catalog" in doc:
        return catalog()[doc["catalog"]]
    return group_validate(doc["table"], name=doc["id"])


def build_function(doc):
    return tuple(_symbol(v) for v in doc["values"])


def build_oracle(doc):
    for tag in ("periodic", "set", "rotation", "code_image", "override"):
        if tag in doc:
            return _ORACLE_BUILDERS[tag](doc[tag])
    raise ScenarioError("oracle payload missing")


def _build_periodic(body):
    word = [_symbol(c) for c in (body if isinstance(body, list) else list(str(body)))]
    return PeriodicOracle(word)


def _build_set(body):
    aps = body.get("aps", [])
    if not isinstance(aps, list) or not all(isinstance(p, list) and len(p) == 2 for p in aps):
        raise ScenarioError(f"set.aps: expected a list of [a, d] pairs, got {aps!r}")
    halfline = body.get("halfline")
    return SetOracle(
        aps=[(_int(a, "set.aps"), _int(d, "set.aps")) for a, d in aps],
        halfline=None if halfline is None else _int(halfline["from"], "set.halfline.from"),
        include=_ints(body.get("include", []), "set.include"),
        exclude=_ints(body.get("exclude", []), "set.exclude"),
        op=body.get("op", "union"),
    )


def _build_rotation(body):
    return RotationOracle(build_coding_payload(body))


def _build_code_image(body):
    return CodeImageOracle(build_code_payload(body["code"]),
                           _build_oracle_payload(body["inner"]))


def _build_override(body):
    patch = {int(k): _symbol(v) for k, v in body["patch"].items()}
    return OverrideOracle(_build_oracle_payload(body["inner"]), patch)


def _build_oracle_payload(payload):
    for tag in ("periodic", "set", "rotation", "code_image", "override"):
        if tag in payload:
            return _ORACLE_BUILDERS[tag](payload[tag])
    raise ScenarioError("inner oracle payload missing a variant tag")


_ORACLE_BUILDERS = {
    "periodic": _build_periodic,
    "set": _build_set,
    "rotation": _build_rotation,
    "code_image": _build_code_image,
    "override": _build_override,
}


def build_coding_payload(body, name="coding"):
    alpha = parse_quadratic(str(body["alpha"]))
    base = parse_quadratic(str(body.get("base", "0")), alpha=alpha)
    cells = {}
    for label, cell in body["cells"].items():
        if isinstance(cell, dict):
            arc_specs = cell.get("arcs", [])
            point_specs = cell.get("points", [])
        else:
            arc_specs, point_specs = cell, []
        arcs = [Arc(parse_quadratic(str(a["lo"]), alpha=alpha),
                    bool(a.get("lo_closed", True)),
                    parse_quadratic(str(a["hi"]), alpha=alpha),
                    bool(a.get("hi_closed", False)))
                for a in arc_specs]
        points = [parse_quadratic(str(p), alpha=alpha) for p in point_specs]
        cells[_symbol(label)] = CircleIntervalSet(arcs, points)
    return RotationCoding(alpha, cells, base, name=name)


def build_coding(doc):
    payload = {k: doc[k] for k in ("alpha", "cells", "base") if k in doc}
    return build_coding_payload(payload, name=doc["id"])


def build_code_payload(body):
    offsets = tuple(int(o) for o in body["offsets"])
    rule = {}
    for key, value in body["rule"].items():
        pattern = tuple(_symbol(c) for c in str(key))
        rule[pattern] = _symbol(value)
    if "input_alphabet" in body:
        alphabet = tuple(_symbol(s) for s in body["input_alphabet"])
    else:
        alphabet = tuple(sorted({s for p in rule for s in p}, key=symbol_key))
    return BlockCode(offsets, rule, alphabet)


def build_code(doc):
    return build_code_payload(doc)


def build_candidate_set(doc):
    elements = doc["elements"]
    if all(isinstance(e, dict) for e in elements):
        out = []
        for i, e in enumerate(elements):
            where = f"candidate-set.elements[{i}]"
            _require_keys(e, ("r",), ("support",), where)
            r = _int(e["r"], f"{where}.r")
            support = _ints(e.get("support", []), f"{where}.support")
            try:
                out.append(Z3BElement(r, frozenset(support)))
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from None
        return out
    return CandidateSet.integers(_ints(elements, "candidate-set.elements"))

"""Scenario files: line-oriented YAML with a strict, published grammar.

Every scenario is a mapping with a ``kind`` tag (group | function | oracle
| coding | code | candidate-set: ``KINDS``, one ``build_*`` per kind), an
``id`` string and the payload keys of its kind.  ``parse_scenario`` checks
only that envelope.  Each builder walks its document once: at every level
it rejects unknown and missing keys before it parses a value there.
Parsing then emitting reproduces the normalized document byte for byte.
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

KINDS = ("group", "function", "oracle", "coding", "code", "candidate-set")


def _require_keys(mapping, required, optional, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in mapping]
    if missing:
        raise ScenarioError(f"{where}: missing keys {missing}")


def _is_int_text(s: str) -> bool:
    """An optional '-' then ASCII digits, after strip: no sign run, '_' or non-ASCII digit."""
    digits = s.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _int(value, where):
    """An integer written as a YAML int or a digit string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _is_int_text(value):
        return int(value)
    raise ScenarioError(f"{where}: expected an integer, got {value!r}")


def _bool(value, where):
    """A YAML boolean; a string or number that merely converts to one is refused."""
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _ints(values, where):
    if not isinstance(values, list):
        raise ScenarioError(f"{where}: expected a list, got {type(values).__name__}")
    return [_int(v, where) for v in values]


def _symbol(value, where):
    """A symbol: a YAML int, or a string, read as an int when it is integer
    text.  A boolean, float, null, list or mapping is refused: a float
    would otherwise become the string of its Python text."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return int(value) if _is_int_text(value) else value
    raise ScenarioError(f"{where}: expected an int or a string symbol, got {value!r}")


def _quadratic(value, where, alpha=None):
    """A quadratic number written as a YAML int or a string such as ``sqrt(5)-2``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScenarioError(f"{where}: expected a quadratic expression, got {value!r}")
    try:
        return parse_quadratic(str(value), alpha=alpha)
    except ScenarioError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _payload(doc):
    """A document without its envelope keys ``kind`` and ``id``."""
    return {k: v for k, v in doc.items() if k not in ("kind", "id")}


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
    return doc


def load_scenario(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def emit_scenario(doc: dict) -> str:
    import yaml

    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)


# -- builders: one walk per kind, keys checked before values ------------------------

def build_group(doc):
    _require_keys(doc, ("kind", "id"), ("order", "table", "names", "catalog"), "group")
    if "catalog" in doc:
        groups = catalog()
        if not isinstance(doc["catalog"], str) or doc["catalog"] not in groups:
            raise ScenarioError(f"unknown catalog group {doc['catalog']!r}")
        return groups[doc["catalog"]]
    _require_keys(doc, ("kind", "id", "order", "table"), ("names",), "group")
    if not isinstance(doc["table"], list) or not all(isinstance(r, list) for r in doc["table"]):
        raise ScenarioError("group table must be a list of rows")
    order = _int(doc["order"], "group.order")
    if order != len(doc["table"]):
        raise ScenarioError(f"group.order: {order} does not match the {len(doc['table'])} "
                            f"table rows")
    return group_validate(doc["table"], name=doc["id"])


def build_function(doc):
    _require_keys(doc, ("kind", "id", "values"), (), "function")
    if not isinstance(doc["values"], list) or not doc["values"]:
        raise ScenarioError("function values must be a nonempty list")
    return tuple(_symbol(v, "function.values") for v in doc["values"])


def build_oracle(doc):
    return _oracle_payload(_payload(doc), "oracle")


def _oracle_payload(body, where):
    """The oracle of a mapping that holds exactly one variant tag."""
    _require_keys(body, (), _ORACLE_BUILDERS, where)
    present = [tag for tag in _ORACLE_BUILDERS if tag in body]
    if len(present) != 1:
        raise ScenarioError(
            f"{where}: exactly one of {tuple(_ORACLE_BUILDERS)} required, got {present}")
    return _ORACLE_BUILDERS[present[0]](body[present[0]], where)


def _build_periodic(body, where):
    if not isinstance(body, (str, list)) or not body:
        raise ScenarioError(f"{where}: periodic payload must be a nonempty word")
    return PeriodicOracle([_symbol(c, f"{where}.periodic") for c in body])


def _build_set(body, where):
    where = f"{where}.set"
    _require_keys(body, (), ("aps", "halfline", "include", "exclude", "op"), where)
    if "halfline" in body:
        _require_keys(body["halfline"], ("from",), (), f"{where}.halfline")
    aps = body.get("aps", [])
    if not isinstance(aps, list) or not all(isinstance(p, list) and len(p) == 2 for p in aps):
        raise ScenarioError(f"{where}.aps: expected a list of [a, d] pairs, got {aps!r}")
    halfline = body.get("halfline")  # a mapping when present
    return SetOracle(
        aps=[(_int(a, f"{where}.aps"), _int(d, f"{where}.aps")) for a, d in aps],
        halfline=None if halfline is None else _int(halfline["from"], f"{where}.halfline.from"),
        include=_ints(body.get("include", []), f"{where}.include"),
        exclude=_ints(body.get("exclude", []), f"{where}.exclude"),
        op=body.get("op", "union"),
    )


def _build_rotation(body, where):
    return RotationOracle(build_coding_payload(body, where=f"{where}.rotation"))


def _build_code_image(body, where):
    _require_keys(body, ("code", "inner"), (), f"{where}.code_image")
    return CodeImageOracle(build_code_payload(body["code"], f"{where}.code_image.code"),
                           _oracle_payload(body["inner"], f"{where}.code_image.inner"))


def _build_override(body, where):
    _require_keys(body, ("inner", "patch"), (), f"{where}.override")
    if not isinstance(body["patch"], dict):
        raise ScenarioError(f"{where}: override patch must be a mapping")
    inner = _oracle_payload(body["inner"], f"{where}.override.inner")
    return OverrideOracle(inner, {_int(k, f"{where}.override.patch"):
                                  _symbol(v, f"{where}.override.patch")
                                  for k, v in body["patch"].items()})


_ORACLE_BUILDERS = {
    "periodic": _build_periodic,
    "set": _build_set,
    "rotation": _build_rotation,
    "code_image": _build_code_image,
    "override": _build_override,
}


def build_coding_payload(body, name="coding", where="coding"):
    _require_keys(body, ("alpha", "cells"), ("base",), where)
    if not isinstance(body["cells"], dict) or not body["cells"]:
        raise ScenarioError(f"{where}: cells must be a nonempty mapping")
    alpha = _quadratic(body["alpha"], f"{where}.alpha")
    base = _quadratic(body.get("base", "0"), f"{where}.base", alpha)
    cells = {}
    for label, cell in body["cells"].items():
        at = f"{where}.cells[{label}]"
        if isinstance(cell, dict):
            _require_keys(cell, (), ("arcs", "points"), at)
            arc_specs = cell.get("arcs", [])
            point_specs = cell.get("points", [])
            if not isinstance(point_specs, list):
                raise ScenarioError(f"{where}: cell {label!r} points must be a list")
        else:
            arc_specs, point_specs = cell, []
        if not isinstance(arc_specs, list):
            raise ScenarioError(f"{where}: cell {label!r} arcs must be a list")
        for a in arc_specs:
            _require_keys(a, ("lo", "hi"), ("lo_closed", "hi_closed"), at)
        arcs = [Arc(_quadratic(a["lo"], f"{at}.lo", alpha),
                    _bool(a.get("lo_closed", True), f"{at}.lo_closed"),
                    _quadratic(a["hi"], f"{at}.hi", alpha),
                    _bool(a.get("hi_closed", False), f"{at}.hi_closed"))
                for a in arc_specs]
        points = [_quadratic(p, f"{at}.points", alpha) for p in point_specs]
        cells[_symbol(label, f"{where}.cells")] = CircleIntervalSet(arcs, points)
    return RotationCoding(alpha, cells, base, name=name)


def build_coding(doc):
    return build_coding_payload(_payload(doc), name=doc["id"])


def build_code_payload(body, where="code"):
    _require_keys(body, ("offsets", "rule"), ("input_alphabet",), where)
    if not isinstance(body["offsets"], list) or not body["offsets"]:
        raise ScenarioError(f"{where}: offsets must be a nonempty list")
    if not isinstance(body["rule"], dict) or not body["rule"]:
        raise ScenarioError(f"{where}: rule must be a nonempty mapping")
    offsets = tuple(_ints(body["offsets"], f"{where}.offsets"))
    rule = {}
    for key, value in body["rule"].items():
        pattern = tuple(_symbol(c, f"{where}.rule") for c in str(key))
        rule[pattern] = _symbol(value, f"{where}.rule")
    if "input_alphabet" in body:
        if not isinstance(body["input_alphabet"], (list, str)):
            raise ScenarioError(f"{where}.input_alphabet: expected a list of symbols, "
                                f"got {body['input_alphabet']!r}")
        alphabet = tuple(_symbol(s, f"{where}.input_alphabet") for s in body["input_alphabet"])
    else:
        alphabet = tuple(sorted({s for p in rule for s in p}, key=symbol_key))
    return BlockCode(offsets, rule, alphabet)


def build_code(doc):
    return build_code_payload(_payload(doc))


def build_candidate_set(doc):
    _require_keys(doc, ("kind", "id", "elements"), (), "candidate-set")
    elements = doc["elements"]
    if not isinstance(elements, list) or not elements:
        raise ScenarioError("candidate-set elements must be a nonempty list")
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

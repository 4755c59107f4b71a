"""Report objects: one verdict, two renderings.

The structured JSON tree is deterministic (sorted keys, no timing data),
so repeated runs produce identical bytes; the wall time rides outside the
deterministic core under ``wall_time_ms``.
Every verdict carries a caveat flag: ``exact``, ``windowed`` or
``search-exhausted``, from strongest to weakest; a verdict made of parts
carries the weakest of its parts' caveats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1
CAVEATS = ("exact", "windowed", "search-exhausted")


def weakest(caveats):
    """The caveat of a verdict whose parts carry ``caveats``: the weakest one."""
    return max(caveats, key=CAVEATS.index)


def sanitize(value):
    """JSON-safe deterministic tree: sorted dicts, lists, strings for the rest."""
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else "inf"
    if hasattr(value, "describe"):
        return sanitize(value.describe())
    return str(value)


@dataclass
class Report:
    command: str
    verdict: dict
    caveat: str
    params: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    def __post_init__(self):
        if self.caveat not in CAVEATS:
            raise ValueError(f"caveat must be one of {CAVEATS}")

    def core(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "params": sanitize(self.params),
            "verdict": sanitize(self.verdict),
            "caveat": self.caveat,
        }

    def to_json(self, wall_ms: float | None = None) -> str:
        doc = self.core()
        if wall_ms is not None:
            doc["wall_time_ms"] = round(wall_ms, 3)
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self, wall_ms: float | None = None) -> str:
        out = [f"== {self.command} =="]
        out.extend(self.lines)
        out.append(f"caveat: {self.caveat}")
        if wall_ms is not None:
            out.append(f"wall time: {wall_ms:.1f} ms")
        return "\n".join(out)

"""Every library name the benchmark traces still exists.

``bench/layers.py`` wraps library callables by module and qualified name.
The tracer reports a name it cannot resolve as absent instead of failing,
so a renamed or deleted callable would only zero its per-layer metrics.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import TARGETS
    from tracer import Tracer

    tracer = Tracer(TARGETS)
    absent = [f"{t.module}:{t.qualname}" for t in TARGETS if not tracer._resolve(t)]
    assert TARGETS and absent == []

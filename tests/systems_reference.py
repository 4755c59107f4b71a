"""Reference systems built from the library's public orbit systems.

``product_flip_extension`` is the tests' standard example of a generalised
Furstenberg system that only factors onto the orbit system of f; no library
verdict builds it.
"""

from shiftlab.algebra import FiniteGroup
from shiftlab.systems import FiniteSystem, build_orbit_system


def product_flip_extension(G: FiniteGroup, f) -> FiniteSystem:
    """X_{R,f} x {0,1} with the observable lifted through the projection.

    The two-point factor is untouched by the action, so the canonical map
    back onto the orbit system of f is surjective but never injective.
    """
    inner = build_orbit_system(G, f, "R")
    # point (p_i, bit) has index 2*i + bit
    points = [(p, bit) for p in inner.points for bit in (0, 1)]
    act = [[2 * row[i] + bit for i in range(len(inner.points)) for bit in (0, 1)]
           for row in inner.act]
    observable = [p[G.identity] for (p, bit) in points]
    return FiniteSystem(group=G, points=points, act=act, base=2 * inner.base,
                        observable=observable, action_kind="action")

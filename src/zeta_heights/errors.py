"""Domain exceptions shared across modules.

All of these derive from ValueError so callers (in particular the CLI)
can treat every domain violation uniformly.
"""


class NontrivialityError(ValueError):
    """The trivial torsion point (1,1) was passed to a height operation."""


class EmptyIntersection(ValueError):
    """No d-torsion points lie on the requested torsion curve (e does not divide d)."""


class IllConditioned(ValueError):
    """The Monge-Ampere density was asked off the amoeba, or where rounding would swamp it."""

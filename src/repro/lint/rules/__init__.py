"""Rule modules; importing this package registers every built-in rule."""

from . import determinism, units_discipline

__all__ = ["determinism", "units_discipline"]

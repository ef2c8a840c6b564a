"""Rule modules; importing this package registers every built-in rule."""

from . import (
    address_flow,
    address_math,
    api_hygiene,
    determinism,
    observability,
    units_discipline,
)

__all__ = [
    "address_flow",
    "address_math",
    "api_hygiene",
    "determinism",
    "observability",
    "units_discipline",
]

"""Construction helper shared by the frozen dataclass configs.

The measurement spec and the configs that ride on it are frozen slotted
dataclasses.  Each converts its scalar fields to their declared types in
``__post_init__`` through :func:`converted_fields`, so equal values
compare, hash and key alike however they were spelled: a
``node_fail_rate=0`` stores ``0.0``, whose ``repr`` is what the
result-cache key hashes.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Iterator, Tuple

#: Declared field type -> conversion.  Annotations are strings in every
#: module that uses this (``from __future__ import annotations``).
_CONVERSIONS = {"int": int, "float": float, "bool": bool,
                "Optional[int]": int}


def converted_fields(instance: Any) -> Iterator[Tuple[str, Any]]:
    """``(name, value)`` for each scalar field, converted to its declared
    type; ``None`` stays ``None`` and other fields are skipped."""
    for item in fields(instance):
        convert = _CONVERSIONS.get(item.type)
        value = getattr(instance, item.name)
        if convert is not None and value is not None:
            yield item.name, convert(value)

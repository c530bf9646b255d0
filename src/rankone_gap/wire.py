"""Checked readers for the JSON wire formats.

A document whose nodes have the wrong JSON type raises ValueError here, where
it is read, instead of a TypeError or AttributeError deep in a constructor.
"""

from __future__ import annotations

import math
from itertools import zip_longest


def as_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def as_objects(value, what: str) -> list[dict]:
    """A JSON list whose entries are all objects."""
    for item in as_list(value, what):
        as_object(item, f"each entry of {what}")
    return value


def _scalar(value):
    if isinstance(value, (dict, list, bool)) or value is None:
        raise ValueError(f"expected a number, got {type(value).__name__}")
    return value


def real(value) -> float:
    out = float(_scalar(value))
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value}")
    return out


def integer(value) -> int:
    value = _scalar(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def complex_list(doc: dict, key: str) -> tuple[complex, ...]:
    """The complex sequence stored as the real lists ``<key>_re`` and
    ``<key>_im``; either may be missing, and the shorter is padded with 0."""
    re = [real(c) for c in as_list(doc.get(f"{key}_re", []), f"{key}_re")]
    im = [real(c) for c in as_list(doc.get(f"{key}_im", []), f"{key}_im")]
    return tuple(complex(x, y) for x, y in zip_longest(re, im, fillvalue=0.0))

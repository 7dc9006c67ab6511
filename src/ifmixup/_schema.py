"""One rule per config field, declared on the field by ``rule``, and its two
readers: ``check_fields``, the ``__post_init__`` of every config class, and
``from_dict``, which builds a config from a parsed JSON object and names each
bad field by its dotted path.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, field, fields, is_dataclass

import numpy as np

# Each kind's name in messages and the types that pass as it; a bool passes only as a bool.
_KINDS = {
    int: ("an integer", (int, np.integer)),
    float: ("a number", (int, float, np.integer, np.floating)),
    bool: ("true or false", (bool, np.bool_)),
    str: ("a string", str),
}


def rule(default, kind: type, bounds: str | tuple = "", listed: bool = False) -> Field:
    """A config field of ``kind`` (int, float, bool, str or a config class)
    within ``bounds``: a tuple of choices, or an interval such as "[0, 1)",
    whose open upper end also rejects inf and NaN. A class as ``default`` is
    its factory, and a None default also admits None. A ``listed`` config
    may be written as the list of its fields."""
    made = {"default_factory": default} if isinstance(default, type) else {"default": default}
    return field(**made, metadata={"kind": kind, "bounds": bounds, "listed": listed})


def _check(name: str, value, f: Field) -> None:
    kind, bounds = f.metadata["kind"], f.metadata["bounds"]
    what, types = _KINDS.get(kind, (f"a {kind.__name__}", kind))
    if value is None and f.default is None:
        return
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if isinstance(bounds, tuple) and value not in bounds:
        raise ValueError(f"{name} must be one of {bounds}, got {value!r}")
    if isinstance(bounds, str) and bounds:
        low, high = (float(x) for x in bounds[1:-1].split(","))
        if not ((low <= value if bounds[0] == "[" else low < value) and value < high):
            raise ValueError(f"{name} must be {what} in {bounds}, got {value!r}")


def check_fields(obj) -> None:
    """Hold every field of the config ``obj`` to its rule."""
    for f in fields(obj):
        _check(f.name, getattr(obj, f.name), f)


def from_dict(cls: type, doc, path: str = ""):
    """A ``cls`` built from the JSON object ``doc`` found at ``path``, with
    unknown and missing keys rejected and nested configs read by their class."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or cls.__name__} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {path or 'top-level'} keys {unknown}")
    values = {}
    for f in fields(cls):
        name, kind = f"{path}.{f.name}".lstrip("."), f.metadata["kind"]
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{name} is missing")
            continue
        value = doc[f.name]
        if f.metadata["listed"] and isinstance(value, list) and len(value) == len(fields(kind)):
            value = dict(zip([g.name for g in fields(kind)], value))
        values[f.name] = from_dict(kind, value, name) if is_dataclass(kind) else value
        _check(name, values[f.name], f)
    return cls(**values)

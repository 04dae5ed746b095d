"""Schema-driven structure checks for the repo's JSON artifacts.

The ``schemas/*.schema.json`` files at the repo root are the only
statement of artifact structure.  This module enforces them with a
draft-07 subset: exactly the keywords those files use.

- ``type``, ``const``, ``enum``;
- ``required``, ``properties``, ``additionalProperties``;
- ``items`` (one schema, or a positional list), ``minItems``,
  ``maxItems``, ``minProperties``;
- ``minLength``, ``pattern``;
- ``minimum``, ``maximum``, ``exclusiveMinimum``;
- ``oneOf``;
- ``$ref`` into ``#/definitions``.

Annotation keywords are ignored; any other keyword is a load error, so
a schema can never pass a check it cannot perform.  Booleans never count
as ``integer`` or ``number``.  Schemas are found by ``$id`` and read on
first use, never at import.

:func:`check` returns violations as ``"$.a.b[0]: msg"`` strings.  Its
``rules`` callback carries what a schema cannot say (sums, recounts,
references); it runs only on a payload that passed its schema, so it
needs no type guards.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Iterable, Optional

#: the repo-root ``schemas/`` directory, found from the source tree
SCHEMA_DIR = Path(__file__).resolve().parents[2] / "schemas"

ASSERTIONS = frozenset({
    "type", "const", "enum", "required", "properties",
    "additionalProperties", "items", "minItems", "maxItems",
    "minProperties", "minLength", "pattern", "minimum", "maximum",
    "exclusiveMinimum", "oneOf", "$ref"})
ANNOTATIONS = frozenset({"$schema", "$id", "$comment", "title",
                         "description", "definitions", "default",
                         "examples"})

TYPES: dict[str, Callable[[object], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}

Rules = Callable[[dict], Iterable[str]]


class SchemaError(ValueError):
    """A schema file this checker cannot enforce faithfully."""


_registry: Optional[dict[str, dict]] = None


def schemas() -> dict[str, dict]:
    """Every schema in :data:`SCHEMA_DIR`, keyed by ``$id``."""
    global _registry
    if _registry is None:
        found: dict[str, dict] = {}
        for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
            doc = json.loads(path.read_text())
            _lint(doc, doc, path.name)
            found[doc["$id"]] = doc
        _registry = found
    return _registry


def _lint(node, root: dict, where: str) -> None:
    """Refuse, at load, any schema this checker cannot enforce."""
    if not isinstance(node, dict):
        raise SchemaError(f"{where}: a schema must be an object")
    unknown = set(node) - ASSERTIONS - ANNOTATIONS
    if unknown:
        raise SchemaError(f"{where}: unsupported keyword(s) "
                          f"{sorted(unknown)}")
    types = node.get("type", [])
    if not set([types] if isinstance(types, str) else types) <= set(TYPES):
        raise SchemaError(f"{where}: unknown type in {types!r}")
    if "$ref" in node:
        _resolve(root, node["$ref"])
    re.compile(node.get("pattern", ""))
    items = node.get("items", [])
    extra = node.get("additionalProperties")
    for sub in (*node.get("properties", {}).values(),
                *node.get("definitions", {}).values(),
                *node.get("oneOf", ()),
                *(items if isinstance(items, list) else [items]),
                *([extra] if isinstance(extra, dict) else [])):
        _lint(sub, root, where)


def _resolve(root: dict, ref: str) -> dict:
    prefix = "#/definitions/"
    target = (root.get("definitions", {}).get(ref[len(prefix):])
              if ref.startswith(prefix) else None)
    if target is None:
        raise SchemaError(f"unresolvable $ref {ref!r}")
    return target


def check(payload, tag: Optional[str] = None,
          rules: Optional[Rules] = None) -> list[str]:
    """Violations of ``payload`` against the schema whose ``$id`` is
    ``tag`` (default: the payload's own ``schema`` tag).

    When the structure is clean and ``rules`` is given, the semantic
    violations ``rules(payload)`` yields are returned instead.
    """
    if tag is None:
        tag = payload.get("schema") if isinstance(payload, dict) else None
    schema = schemas().get(tag)
    if schema is None:
        return [f"$.schema: expected one of {sorted(schemas())}, "
                f"got {tag!r}"]
    errors: list[str] = []
    _check(payload, schema, schema, "$", errors)
    if errors or rules is None:
        return errors
    return list(rules(payload))


def _type_name(v) -> str:
    return next((name for name, ok in TYPES.items() if ok(v)),
                type(v).__name__)


def _same(a, b) -> bool:
    """JSON equality: ``true`` is not ``1``."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _check(v, s: dict, root: dict, path: str, errors: list[str]) -> None:
    if "$ref" in s:                      # draft-07: siblings are ignored
        _check(v, _resolve(root, s["$ref"]), root, path, errors)
        return
    t = s.get("type")
    if t is not None:
        names = [t] if isinstance(t, str) else t
        if not any(TYPES[n](v) for n in names):
            errors.append(f"{path}: expected {' or '.join(names)}, "
                          f"got {_type_name(v)}")
            return
    if "const" in s and not _same(v, s["const"]):
        errors.append(f"{path}: expected {s['const']!r}, got {v!r}")
    if "enum" in s and not any(_same(v, e) for e in s["enum"]):
        errors.append(f"{path}: expected one of {s['enum']}, got {v!r}")
    if "oneOf" in s:
        hits = 0
        for alt in s["oneOf"]:
            trial: list[str] = []
            _check(v, alt, root, path, trial)
            hits += not trial
        if hits != 1:
            errors.append(f"{path}: matches {hits} of the "
                          f"{len(s['oneOf'])} oneOf alternatives, "
                          f"needs exactly 1")
    if isinstance(v, dict):
        _check_object(v, s, root, path, errors)
    elif isinstance(v, list):
        _check_array(v, s, root, path, errors)
    elif isinstance(v, str):
        if len(v) < s.get("minLength", 0):
            errors.append(f"{path}: shorter than {s['minLength']} "
                          f"character(s)")
        if "pattern" in s and not re.search(s["pattern"], v):
            errors.append(f"{path}: {v!r} does not match "
                          f"{s['pattern']!r}")
    elif TYPES["number"](v):
        if "minimum" in s and v < s["minimum"]:
            errors.append(f"{path}: {v!r} < minimum {s['minimum']}")
        if "maximum" in s and v > s["maximum"]:
            errors.append(f"{path}: {v!r} > maximum {s['maximum']}")
        if "exclusiveMinimum" in s and v <= s["exclusiveMinimum"]:
            errors.append(f"{path}: {v!r} <= exclusive minimum "
                          f"{s['exclusiveMinimum']}")


def _check_object(v: dict, s: dict, root: dict, path: str,
                  errors: list[str]) -> None:
    for key in s.get("required", ()):
        if key not in v:
            errors.append(f"{path}: missing required key {key!r}")
    if len(v) < s.get("minProperties", 0):
        errors.append(f"{path}: needs at least {s['minProperties']} "
                      f"key(s), has {len(v)}")
    props = s.get("properties", {})
    extra = s.get("additionalProperties", True)
    for key, sub in v.items():
        at = f"{path}.{key}"
        if key in props:
            _check(sub, props[key], root, at, errors)
        elif extra is False:
            errors.append(f"{path}: unexpected key {key!r}")
        elif isinstance(extra, dict):
            _check(sub, extra, root, at, errors)


def _check_array(v: list, s: dict, root: dict, path: str,
                 errors: list[str]) -> None:
    if len(v) < s.get("minItems", 0):
        errors.append(f"{path}: needs at least {s['minItems']} item(s), "
                      f"has {len(v)}")
    if "maxItems" in s and len(v) > s["maxItems"]:
        errors.append(f"{path}: allows at most {s['maxItems']} item(s), "
                      f"has {len(v)}")
    items = s.get("items")
    if items is None:
        return
    for i, item in enumerate(v):
        sub = items if isinstance(items, dict) else (
            items[i] if i < len(items) else None)
        if sub is not None:
            _check(item, sub, root, f"{path}[{i}]", errors)

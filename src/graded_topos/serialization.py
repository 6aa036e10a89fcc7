"""Canonical JSON interchange for every structure the CLI consumes.

One format: JSON with sorted keys, two-space indent, a trailing newline, and
grades always serialized as lowest-terms "p/q" strings. The writer emits
exactly the bytes of `json.dumps(payload, sort_keys=True, indent=2) + "\n"`,
with every string escaped by `json`'s C escaper. Loading validates
structure (totality of tables, membership of references) but never runs the
axiom checkers; those are explicit commands. save(load(f)) is byte-identical
for files in canonical form.

A frame file's join table has one key per subset of the carrier. The keys of
each carrier are built once per process and kept in a cache of the last 16
carriers. A carrier's keys take as much memory as the join keys of its file:
5.4 MB for 16 labels named e0, e1, ..., so the cache holds at most about
87 MB for such carriers.

Computed structures whose elements are not all names the reader accepts
(non-empty strings without a comma), such as frames carrying opens and
systems and spaces over enumerated homs, are saved by assigning positional
names e0, e1, ... (points: p0, p1, ...) in canonical order.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Sequence

from .errors import GradeRangeError, ParseError, SchemaError
from .frames import GradedFrame, label_mask
from .fuzzy_sets import FuzzySet, PointMap, Universe
from .grades import MAX_LITERAL, Grade, format_grade, grade
from .logic.parser import Signature, parse_formula, symbol_index
from .logic.syntax import Formula, format_formula
from .spaces import GradedSpace, canonical_opens
from .systems import GradedSystem


def dumps_canonical(payload: Any) -> str:
    """The bytes of `json.dumps(payload, sort_keys=True, indent=2) + "\\n"`,
    written without `json`'s pure-Python indenting encoder. Object keys
    must be strings, as in every payload here; any other key is a
    `TypeError`."""
    return _encoded(payload, "\n") + "\n"


def _encoded(value: Any, newline: str) -> str:
    """`value` as `json.dumps(sort_keys=True, indent=2)` writes it after
    `newline`: each string by `json`'s C escaper, each other scalar by
    `json.dumps`, and an object of strings (a file's tables) in one pass."""
    if isinstance(value, str):
        return _quote(value)
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = sorted(value.items())
        if all(isinstance(v, str) for v in value.values()):
            lines = [f"{_quote(k)}: {_quote(v)}" for k, v in items]
        else:
            lines = [f"{_quote(k)}: {_encoded(v, inner)}" for k, v in items]
        return "{" + inner + ("," + inner).join(lines) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join([_encoded(v, inner) for v in value]) + newline + "]"
    return json.dumps(value)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object that names each key once; `json` would keep the last."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise SchemaError("json", f"key {key!r} appears twice in one object")
    return obj


def _read_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(str(path), str(exc)) from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"invalid JSON at offset {exc.pos}") from exc
    except RecursionError as exc:
        raise ParseError(str(path), "JSON nested too deeply") from exc


def _write(path: str | Path, payload: Any) -> None:
    Path(path).write_text(dumps_canonical(payload))


def _expect_object(obj: Any, field: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    return obj


def _identifier(value: Any, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(field, "identifiers must be non-empty strings")
    if "," in value:
        raise SchemaError(field, f"identifier {value!r} must not contain a comma")
    return value


def _identifier_list(obj: Any, field: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a non-empty array of identifiers")
    return tuple(_identifier(e, field) for e in obj)


# A file repeats a few grade literals ("0/1", "1/2", "1/1") thousands of
# times, so each accepted literal is parsed once. The cache holds at most
# `_GRADE_CACHE` literals of at most `MAX_LITERAL` characters; a refused
# literal raises, and `lru_cache` never stores a raise.
_GRADE_CACHE = 1024
_cached_grade = lru_cache(maxsize=_GRADE_CACHE)(grade)


def _grade(value: Any, field: str) -> Grade:
    if not isinstance(value, str):
        raise SchemaError(field, "grades must be strings like \"1/2\" or \"0.5\"")
    try:
        return _cached_grade(value) if len(value) <= MAX_LITERAL else grade(value)
    except GradeRangeError as exc:
        raise SchemaError(field, str(exc)) from exc


def _pair_key(key: str, field: str) -> tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2 or not all(parts):
        raise SchemaError(field, f"key {key!r} must be two comma-joined identifiers")
    return parts[0], parts[1]


def _names_for(elements: Sequence, prefix: str = "e") -> dict:
    """Each element's name in a file: its own if every element passes
    `_identifier`, else a positional one."""
    try:
        return {e: _identifier(e, "name") for e in elements}
    except SchemaError:
        return {e: f"{prefix}{i}" for i, e in enumerate(elements)}


# --- fuzzy sets and point maps ---------------------------------------------

def fuzzy_set_to_json(t: FuzzySet) -> dict:
    labels = list(_names_for(t.universe.elements, "p").values())
    return {"universe": labels, "membership": dict(zip(labels, map(format_grade, t.grades)))}


def _membership_from_json(obj: Any, universe: Universe, field: str) -> FuzzySet:
    table = _expect_object(obj, field)
    extras = set(table) - set(universe.elements)
    if extras:
        raise SchemaError(field, f"unknown element {sorted(extras)[0]!r}")
    missing = [e for e in universe.elements if e not in table]
    if missing:
        raise SchemaError(field, f"missing grade for {missing[0]!r}")
    return FuzzySet(universe, tuple(_grade(table[e], field) for e in universe.elements))


def fuzzy_set_from_json(obj: Any) -> FuzzySet:
    body = _expect_object(obj, "fuzzy set")
    universe = Universe(_identifier_list(body.get("universe"), "universe"))
    return _membership_from_json(body.get("membership"), universe, "membership")


def point_map_to_json(f: PointMap) -> dict:
    source, target = _names_for(f.source.elements, "p"), _names_for(f.target.elements, "p")
    return {
        "source": list(source.values()),
        "target": list(target.values()),
        "map": {source[x]: target[y] for x, y in zip(f.source.elements, f.images)},
    }


def point_map_from_json(obj: Any) -> PointMap:
    body = _expect_object(obj, "point map")
    source = Universe(_identifier_list(body.get("source"), "source"))
    target = Universe(_identifier_list(body.get("target"), "target"))
    table = _expect_object(body.get("map"), "map")
    missing = [e for e in source.elements if e not in table]
    if missing:
        raise SchemaError("map", f"missing image for {missing[0]!r}")
    images = tuple(table[e] for e in source.elements)
    for y in images:  # PointMap cannot look up an array or object image
        if not isinstance(y, str) or y not in target:
            raise SchemaError("map", f"image {y!r} is not in the target universe")
    return PointMap(source, target, images)


# --- spaces -----------------------------------------------------------------

def space_to_json(space: GradedSpace) -> dict:
    labels = list(_names_for(space.universe.elements, "p").values())
    return {"universe": labels,
            "opens": [dict(zip(labels, map(format_grade, t.grades))) for t in space.opens]}


def space_from_json(obj: Any) -> GradedSpace:
    body = _expect_object(obj, "space")
    universe = Universe(_identifier_list(body.get("universe"), "universe"))
    raw = body.get("opens")
    if not isinstance(raw, list):
        raise SchemaError("opens", "expected an array of membership objects")
    opens = [_membership_from_json(entry, universe, f"opens[{i}]") for i, entry in enumerate(raw)]
    if len(set(opens)) != len(opens):
        raise SchemaError("opens", "duplicate opens")
    return GradedSpace(universe, canonical_opens(opens))


# --- frames -----------------------------------------------------------------

def frame_to_json(frame: GradedFrame) -> dict:
    """The frame, read off its view, with its full join table, which
    equals `frame.join_at` at every mask. Without a table, that is the
    view's joins of the empty set, the singletons and the pairs, and for a
    larger subset the pair joins folded as `join_at` folds them, one lookup
    per subset; for up to 16 elements and only when every pair join lies in
    the carrier."""
    labels = tuple(_names_for(frame.carrier).values())
    n, view = len(labels), frame.view
    table = view.table
    if table is None:
        if n > 16:
            raise SchemaError("join", "carrier too large to materialize the join table")
        if None in view.joins:
            raise SchemaError("join", "the join of a pair is outside the carrier")
        pair = dict(zip(view.masks, view.joins))
        # the folds of the masks below 2^(h+1) from those below 2^h: the
        # fold takes the lowest member first, so it joins member h last
        table = [view.bottom]
        for h in range(n):
            table += [pair[1 << joined | 1 << h] for joined in table]
        for mask, joined in pair.items():
            table[mask] = joined
    shown = [format_grade(g) for g in view.grades]
    return {
        "carrier": list(labels),
        "top": labels[view.top],
        "meet": {f"{a},{b}": labels[m] for a, row in zip(labels, view.meet) for b, m in zip(labels, row)},
        "join": _join_keys(labels, table),
        "relation": {f"{a},{b}": shown[r] for a, row in zip(labels, view.rel) for b, r in zip(labels, row)},
    }


# One key table per carrier, built once per process: a run reuses the same
# carriers (e0, e1, ...). A table holds as much as the join keys of one frame
# file: 0.31 MB at 12 labels e0, e1, ..., 1.3 MB at 14 and 5.4 MB at 16, the
# most the reader looks up. So the cache retains at most `_KEY_CACHE` files'
# worth of join keys: about 87 MB for 16-label carriers of such names.
_KEY_CACHE = 16


@lru_cache(maxsize=_KEY_CACHE)
def _subset_keys(labels: tuple[str, ...]) -> tuple[str, ...]:
    """The join key of every subset of the labels, indexed by its bitmask
    in carrier order: its labels in name order joined by commas. Adding the
    labels from the last name to the first, each new label comes first in
    every key it joins."""
    keys, masks = [""], [0]
    for i in sorted(range(len(labels)), key=labels.__getitem__, reverse=True):
        label, bit = labels[i], 1 << i
        keys += [label] + [f"{label},{key}" for key in keys[1:]]
        masks += [mask | bit for mask in masks]
    table = [""] * len(keys)
    for mask, key in zip(masks, keys):
        table[mask] = key
    return tuple(table)


def _join_keys(labels: tuple[str, ...], table: Sequence[int]) -> dict[str, str]:
    """The join table keyed by each subset's labels in name order."""
    return {key: labels[j] for key, j in zip(_subset_keys(labels), table)}


def frame_from_json(obj: Any) -> GradedFrame:
    """Read a frame's JSON shape; `GradedFrame.from_masks` checks what the
    tables mean (a distinct carrier holding the top, every meet and join
    value in it). A full join table over at most 16 distinct labels whose
    keys are those `frame_to_json` writes and whose values are all in the
    carrier is read by one lookup per key; any other table key by key, each
    key becoming a subset bitmask by its labels."""
    body = _expect_object(obj, "frame")
    carrier = _identifier_list(body.get("carrier"), "carrier")
    top = _identifier(body.get("top"), "top")

    tables = []
    for field, read in (("meet", _identifier), ("relation", _grade)):
        tables.append({_pair_key(key, field): read(value, field)
                       for key, value in _expect_object(body.get(field), field).items()})
        if len(tables[-1]) != len(carrier) ** 2:
            raise SchemaError(field, "table must be total on carrier pairs")
    meet_table, relation = tables
    bits = {a: 1 << i for i, a in enumerate(carrier)}
    joins = _expect_object(body.get("join"), "join")
    if len(joins) == 1 << len(carrier) and len(carrier) <= 16 and len(bits) == len(carrier):
        values = [joins.get(key) for key in _subset_keys(carrier)]
        # a missing key reads None; a value outside the carrier, of any JSON
        # type, leaves the table to the key-by-key path, which names it
        if all(isinstance(v, str) for v in values) and bits.keys() >= set(values):
            return GradedFrame.from_masks(carrier, top, meet_table, values, relation)
    join_table = {}
    for key, value in joins.items():
        parts = [p for p in key.split(",") if p]
        mask = label_mask(parts, bits)
        if mask.bit_count() != len(parts) or mask in join_table:
            raise SchemaError("join", f"key {key!r} repeats an element or another key")
        join_table[mask] = _identifier(value, "join")
    return GradedFrame.from_masks(carrier, top, meet_table, join_table, relation)


# --- systems ----------------------------------------------------------------

def system_to_json(system: GradedSystem) -> dict:
    point_names = _names_for(system.points.elements, "p")
    carrier_names = _names_for(system.frame.carrier)
    frame_json = frame_to_json(system.frame)
    return {
        "points": [point_names[x] for x in system.points.elements],
        "frame": frame_json,
        "sat": {
            f"{point_names[x]},{carrier_names[a]}": format_grade(g)
            for x, row in zip(system.points.elements, system.rows)
            for a, g in zip(system.frame.carrier, row)
        },
    }


def system_from_json(obj: Any) -> GradedSystem:
    body = _expect_object(obj, "system")
    points = Universe(_identifier_list(body.get("points"), "points"))
    frame = frame_from_json(body.get("frame"))
    raw_sat = _expect_object(body.get("sat"), "sat")
    sat = {}
    for key, value in raw_sat.items():
        x, a = _pair_key(key, "sat")
        if x not in points:
            raise SchemaError("sat", f"unknown point {x!r}")
        if a not in frame:
            raise SchemaError("sat", f"unknown carrier element {a!r}")
        sat[(x, a)] = _grade(value, "sat")
    if len(sat) != len(points) * len(frame.carrier):
        raise SchemaError("sat", "table must be total on points x carrier")
    return GradedSystem.from_table(points, frame, sat)


# --- interpretations and formulas --------------------------------------------

def interpretation_to_json(interp) -> dict:
    payload = {"domain": list(interp.domain),
               "constants": {f"c{i}": d for i, d in interp.constants.items()}}
    for field, show in (("functions", str), ("predicates", format_grade)):
        payload[field] = {name: {",".join(k): show(v) for k, v in table.items()}
                          for name, table in getattr(interp, field).items()}
    return payload


def interpretation_from_json(obj: Any):
    from .logic.semantics import Interpretation

    body = _expect_object(obj, "interpretation")
    domain = _identifier_list(body.get("domain"), "domain")
    constants = {}
    for key, value in _expect_object(body.get("constants", {}), "constants").items():
        index = symbol_index(key) if key.startswith("c") else None
        if index is None:
            raise SchemaError("constants", f"key {key!r} is not of the form cN")
        constants[index] = _identifier(value, "constants")
    tables = {}
    for field, read in (("functions", _identifier), ("predicates", _grade)):
        tables[field] = {}
        for name, raw in _expect_object(body.get(field, {}), field).items():
            where = f"{field}.{name}"
            tables[field][name] = {tuple(key.split(",")): read(value, where)
                                   for key, value in _expect_object(raw, where).items()}
    return Interpretation(domain, constants, tables["functions"], tables["predicates"])


def formulas_to_json(formulas: Sequence[Formula]) -> dict:
    return {"formulas": [format_formula(f) for f in formulas]}


def formulas_from_json(obj: Any, signature: Signature | None = None) -> list[Formula]:
    body = _expect_object(obj, "formulas")
    raw = body.get("formulas")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("formulas", "expected a non-empty array of formula strings")
    out = []
    for i, text in enumerate(raw):
        if not isinstance(text, str):
            raise SchemaError(f"formulas[{i}]", "expected a string")
        out.append(parse_formula(text, signature))
    return out


# --- file-level wrappers ------------------------------------------------------

def load_fuzzy_set(path: str | Path) -> FuzzySet:
    return fuzzy_set_from_json(_read_json(path))


def load_point_map(path: str | Path) -> PointMap:
    return point_map_from_json(_read_json(path))


def load_space(path: str | Path) -> GradedSpace:
    return space_from_json(_read_json(path))


def load_frame(path: str | Path) -> GradedFrame:
    return frame_from_json(_read_json(path))


def load_system(path: str | Path) -> GradedSystem:
    return system_from_json(_read_json(path))


def load_interpretation(path: str | Path):
    return interpretation_from_json(_read_json(path))


def load_formulas(path: str | Path, signature: Signature | None = None) -> list[Formula]:
    return formulas_from_json(_read_json(path), signature)


def save_fuzzy_set(t: FuzzySet, path: str | Path) -> None:
    _write(path, fuzzy_set_to_json(t))


def save_point_map(f: PointMap, path: str | Path) -> None:
    _write(path, point_map_to_json(f))


def save_space(space: GradedSpace, path: str | Path) -> None:
    _write(path, space_to_json(space))


def save_frame(frame: GradedFrame, path: str | Path) -> None:
    _write(path, frame_to_json(frame))


def save_system(system: GradedSystem, path: str | Path) -> None:
    _write(path, system_to_json(system))


def save_interpretation(interp, path: str | Path) -> None:
    _write(path, interpretation_to_json(interp))


def save_formulas(formulas: Sequence[Formula], path: str | Path) -> None:
    _write(path, formulas_to_json(formulas))

"""The one JSON encoder of the output files: the trace, the history and
the report.

`encoded(values, nl)` writes each value as json writes
`render_field(value)`, in one of two layouts. With `nl` None it is the
compact, sort-keys layout of a trace line (`json_line`). Otherwise `nl`
is the newline and indent before each closing bracket, and the layout is
that of `json.dumps(sort_keys=True, indent=2)`, as the history and report
files are written. Strings, ints, None, bools, timestamps, bytes and
metadata records are written inline, and tuples (pairs and register ids),
lists, sets and dicts keyed by exact strs by recursion. Any other type
(a dict keyed by other than exact strs, a subclass, an enum) goes
through `render_field` and then json's own encoder in the same layout;
a value `render_field` rejects raises its TypeError.

Every object is written from a template, with no rendered dict in
between. `object_format` builds, once per shape (the layout and the keys
in insertion order), the object's literal parts, with the keys sorted and
escaped, and a picker that interleaves them with the encoded values for
one join. `OBJECT_FORMATS` is the one cache of these templates.
"""
from __future__ import annotations

import json
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .mds_replicated import Pair
from .net import render_field
from .types import NIL, Metadata, Timestamp, render_value

# A trace-file line without its newline: compact, sort-keys JSON. One
# encoder serves every line; json.dumps builds a new one per call whenever
# it is given options.
json_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_json_indented = json.JSONEncoder(sort_keys=True, indent=2).encode

_ascii = json.encoder.encode_basestring_ascii


def object_format(keys: Sequence[str], nl: str | None = None) -> tuple[list[str], Callable]:
    """The literal parts of a JSON object whose keys, exact strs in
    insertion order, are `keys`, and the picker that interleaves them with
    its values: `"".join(pick(values + parts))` is the object's text,
    where `values` are its encoded values in insertion order. A repeated
    key takes the last of its values, as a later key does in a dict. `nl`
    is `encoded`'s layout. The join sizes the text once, where a
    %-template's writer grows its buffer by a quarter at a time and a
    result that shrinks by less than a quarter keeps its block."""
    slots = {key: i for i, key in enumerate(keys)}
    inner, colon = ("", ":") if nl is None else (nl + "  ", ": ")
    parts, order, text = [], [], "{" + inner  # order: indices into values + parts
    for key, i in sorted(slots.items()):
        order += (len(keys) + len(parts), i)
        parts.append(text + _ascii(key) + colon)
        text = "," + inner
    order.append(len(keys) + len(parts))
    parts.append((nl or "") + "}" if slots else "{}")
    # With no value, itemgetter returns the one part itself, which the
    # join passes through character by character.
    return parts, itemgetter(*order)


class _Formats(dict):
    """`object_format`'s answers by shape, `(nl, *keys)`: a lookup that
    hits costs one dict probe. A shape is kept only when every key is an
    identifier. Keys that are data (timestamps, op ids, register names)
    are not, so the cache holds the shapes the code writes, not those of
    each run."""

    def __missing__(self, shape: tuple) -> tuple[list[str], Callable]:
        fmt = object_format(shape[1:], shape[0])
        if all(map(str.isidentifier, shape[1:])):
            self[shape] = fmt
        return fmt


OBJECT_FORMATS = _Formats()


def _json(value: object, nl: str | None) -> str:
    """`value` as json's own encoder writes it, in the layout `nl`."""
    return json_line(value) if nl is None else _json_indented(value).replace("\n", nl)


def encoded(values: Iterable, nl: str | None = None) -> list[str]:
    """Each value as json writes `render_field(value)`, in the layout `nl`
    (see the module docstring). A value type is written as its own
    `render` gives it, a tuple (a `Pair`, a register id) or list as a
    list, a set sorted by rendered value, and a bool as true or false,
    never as an int."""
    inner = nl and nl + "  "
    out: list[str] = []
    append = out.append
    for value in values:
        cls = type(value)
        if cls is str:
            append(_ascii(value))
        elif cls is int:
            append(str(value))  # an exact int's str is its repr, by a cheaper call
        elif cls is Timestamp:
            num, cid = value  # Timestamp.render, inlined
            append(_ascii(f"{num}:nil" if cid == NIL else f"{num}:{cid}"))
        elif value is None:
            append("null")
        elif cls is bytes:
            append(_ascii(render_value(value)))
        elif cls is Metadata:  # Metadata.render, unrolled; json writes the ids
            (num, cid), replicas = value
            ts = _ascii(f"{num}:nil" if cid == NIL else f"{num}:{cid}")
            in2 = inner and inner + "  "
            ids = [str(r) if type(r) is int else _json(r, in2) for r in sorted(replicas)]
            if nl is None:
                append('{"replicas":[' + ",".join(ids) + '],"ts":' + ts + "}")
            else:
                ids = "[" + in2 + ("," + in2).join(ids) + inner + "]" if ids else "[]"
                append("{" + inner + '"replicas": ' + ids + "," + inner + '"ts": ' + ts + nl + "}")
        elif cls is tuple or cls is Pair or cls is list or cls is set or cls is frozenset:
            items = encoded(value, inner)
            if cls is set or cls is frozenset:
                items.sort(key=json.loads)  # a rendered value is what its text decodes to
            if nl is None:
                append("[" + ",".join(items) + "]")
            else:
                append("[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]")
        elif cls is dict and {*map(type, value)} <= {str}:
            parts, pick = OBJECT_FORMATS[(nl, *value)]
            append("".join(pick(encoded(value.values(), inner) + parts)))
        elif cls is bool:
            append("true" if value else "false")
        else:
            append(_json(render_field(value), nl))
    return out

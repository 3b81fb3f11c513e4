"""`encoding.encoded` against `json.dumps(render_field(value), ...)`.

The trace, history and report files must keep their bytes, so the one
value encoder is compared, in both its layouts and at a nested indent,
with json's own encoder over `render_field`'s rendering: on fixed-seed
random documents that reach every branch the encoder has (the value
types it writes inline, empty and nested containers, sets, subclasses,
every key type), on edge values, and on every report document the CLI
writes for `random_config` 0-59. A value `render_field` rejects raises
TypeError in the encoder too.
"""
import enum
import json
import random
from typing import NamedTuple

import pytest

from splitstore import cli, encoding
from splitstore.cli import json_indent, write_outputs
from splitstore.encoding import encoded
from splitstore.mds_replicated import Pair as MetaPair
from splitstore.net import MsgKind, render_field
from splitstore.scenarios import run_scenario
from splitstore.types import NIL, TS_INIT, Metadata, Timestamp


class Pair(NamedTuple):
    key: int
    payload: object


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str, enum.Enum):
    QUOTED = 'say "hi"'


class Ratio(float):
    pass


class Name(str):
    pass


class Record(dict):
    pass


STRINGS = (
    "", "a", 'quote " inside', "back\\slash", "tab\tnew\nline\r", "\x00nul", "\x1f\x7f",
    "café", "☃ snow", "\U0001f600", "</script>", "1:nil", Name("sub"), Tag.QUOTED,
    "%", "%s", "100%%", "%(x)s",  # %-directives, which a template must not read as its own
)
INTS = (0, 1, -1, 7, 2**31, -(2**63), 10**30, -(10**40), Level.HIGH)
TIMESTAMPS = (Timestamp(0, NIL), Timestamp(2, 1), Timestamp(10, 1), Timestamp(3, 12))
FLOATS = (0.0, -0.0, 1.5, 1e300, float("nan"), float("inf"), Ratio(0.1))
# Layouts: compact, indented at the top level, and indented under a key.
LAYOUTS = (None, "\n", "\n    ")


def leaf(rng: random.Random) -> object:
    pick = rng.randrange(8)
    if pick == 0:
        return rng.choice(STRINGS)
    if pick == 1:
        return rng.choice(INTS)
    if pick == 2:
        return rng.choice(TIMESTAMPS)
    if pick == 3:
        return rng.choice((True, False))  # next to ints in the same containers
    if pick == 4:
        return rng.choice((None, MsgKind.READ, b"", b"\x00\xe9\"\\"))
    if pick == 5:
        return Metadata(rng.choice(TIMESTAMPS), frozenset(rng.sample(range(9), rng.randrange(4))))
    if pick == 6:  # a set of one family, so its rendered values compare
        family = rng.choice((STRINGS + TIMESTAMPS, INTS, (b"a", b"\xff", "b")))
        return rng.choice((set, frozenset))(rng.sample(family, rng.randrange(4)))
    return rng.choice(((), [], {}, frozenset()))


def keys(rng: random.Random, n: int) -> list:
    """Keys of one dict. `render_field` writes each as `str(key)`, so
    families mix; most dicts have identifier keys, which take a template."""
    family = rng.randrange(4)
    if family == 0:
        return [rng.choice(STRINGS) for _ in range(n)]
    if family == 1:
        return [rng.choice(INTS + FLOATS + TIMESTAMPS + (True, None, "1")) for _ in range(n)]
    return [f"k{rng.randrange(50)}" for _ in range(n)]


def doc(rng: random.Random, depth: int, force: int) -> object:
    """A random value; `force` more levels of nesting are guaranteed on
    its first child."""
    if force == 0 and (depth >= 6 or rng.random() < 0.3):
        return leaf(rng)
    n = rng.randrange(1, 5) if force else rng.randrange(0, 5)
    children = [doc(rng, depth + 1, max(force - 1, 0) if i == 0 else 0) for i in range(n)]
    shape = rng.randrange(6)
    if shape == 0:
        return children
    if shape == 1:
        return tuple(children)
    if shape == 2 and len(children) >= 2:
        return rng.choice((Pair, MetaPair))(children[0], children[1])
    # Equal keys collapse; the first child, written last, is the one kept.
    items = reversed(list(zip(keys(rng, n), children)))
    return Record(items) if shape == 3 else dict(items)


def depth_of(value: object) -> int:
    if isinstance(value, dict):
        return 1 + max(map(depth_of, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(depth_of, value), default=0)
    return 0


def reference(value: object, nl: str | None) -> str:
    rendered = render_field(value)
    if nl is None:
        return json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return json.dumps(rendered, sort_keys=True, indent=2).replace("\n", nl)


def assert_encoded_as_json(value: object) -> None:
    """The encoder's text in each layout is json's over the rendered
    value; a value `render_field` rejects raises TypeError in both."""
    try:
        render_field(value)
    except TypeError:
        for nl in LAYOUTS:
            with pytest.raises(TypeError):
                encoded((value,), nl)
        return
    for nl in LAYOUTS:
        assert encoded((value,), nl) == [reference(value, nl)], nl


def note_types(value: object, values: set, keys: set) -> None:
    values.add(type(value))
    if isinstance(value, dict):
        keys.update(map(type, value))
        for item in value.values():
            note_types(item, values, keys)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            note_types(item, values, keys)


def test_random_documents_match_json_dumps():
    value_types: set[type] = set()
    key_types: set[type] = set()
    for seed in range(2000):
        value = doc(random.Random(seed), 0, force=4)
        assert depth_of(value) >= 4
        assert_encoded_as_json(value)
        note_types(value, value_types, key_types)
    assert {dict, Record, list, tuple, Pair, MetaPair, set, frozenset, str, Name, Tag, int,
            Level, bool, type(None), bytes, Timestamp, Metadata, MsgKind} <= value_types
    assert {str, Name, Tag, int, Level, float, Ratio, bool, Timestamp, type(None)} <= key_types


@pytest.mark.parametrize("value", [
    {}, [], (), "", None, True, 0, -0.0, 1e300, float("nan"), float("inf"),
    {"a": {}, "b": [], "c": ()},
    Pair(1, Pair(2, ())),
    {1: "int", 2.5: "float", True: "bool"}, {None: "none"}, {Level.LOW: 1, Ratio(0.5): 2},
    {Name("x"): [Tag.QUOTED, Level.HIGH, Ratio(1e300)]},
    [["\x00", "é"], [[[{"deep": [float("-inf")]}]]]],
    # one key set in two insertion orders, at two depths: each order is its own shape
    [{"b": 1, "a": "%s", "%": 2}, {"%": 3, "a": 4, "b": "%(a)s"}, {"x": {"b": 5, "a": 6}}],
    Record(b=1, a=[Record()]), {2: "b", 1: {"a": 1}},
    # the value types, and containers json writes otherwise than render_field
    b"\xff\"", frozenset(), Timestamp(3, NIL), {"a": {}, "b": set(), "c": frozenset()},
    MetaPair(Timestamp(2, 1), Metadata(Timestamp(1, 1), frozenset())),
    {Name("x"): [Tag.QUOTED, Level.HIGH, MsgKind.META_ECHO]},
    [["\x00", "é"], [[[{"deep": [b"\xff"]}]]]], {1: "int", "1": "str"},
    # sets sorted by rendered value ("10:1" before "2:1"), not by JSON text
    {Timestamp(10, 1), Timestamp(2, 1)}, frozenset({10, 9}), {"é", "f"},
    Metadata(Timestamp(4, 2), frozenset({5, 1, 3})), [Metadata(Timestamp(1, NIL), frozenset())],
    # Metadata.render does not render its ids, so json writes them: a float too
    [Metadata(Timestamp(2, 1), frozenset({(2, 1), (1, 3)}))], Metadata(TS_INIT, frozenset({1.5, 2})),
])
def test_edge_documents_match_json_dumps(value):
    assert_encoded_as_json(value)


@pytest.mark.parametrize("value", [
    object(), [1, 2.5], {"a": {"b": float("-inf")}}, {(1, 2): 3.5}, (Record(x=0.5),), *FLOATS,
])
def test_documents_json_rejects_raise_type_error(value):
    # "json" is json's encoder over render_field, which rejects a float.
    with pytest.raises(TypeError):
        render_field(value)
    assert_encoded_as_json(value)


def test_only_an_exact_dict_with_str_keys_takes_a_template(monkeypatch):
    # A dict subclass, or a dict with a key that is not an exact str, never
    # looks a shape up: render_field and json write it.
    looked_up = []

    class Recording(dict):
        def __getitem__(self, shape):
            looked_up.append(shape)
            return encoding.object_format(shape[1:], shape[0])

    monkeypatch.setattr(encoding, "OBJECT_FORMATS", Recording())
    for value in (Record(b=1, a=2), {1: "a", 2: "b"}, {None: 2}, {3.5: 4, 1: 5}, {True: 1},
                  {Name("a"): 1}):
        assert_encoded_as_json([value])
    assert looked_up == []
    # An exact dict with str keys takes one, at any depth.
    assert json_indent({"doc": [{"b": 1, "a": 2}]}) == reference({"doc": [{"b": 1, "a": 2}]}, "\n")
    assert looked_up == [("\n", "doc"), ("\n    ", "b", "a")]


def test_every_written_document_matches_json_dumps(tmp_path, monkeypatch):
    documents = []

    def recording(value: object) -> str:
        documents.append(value)
        return json_indent(value)

    monkeypatch.setattr(cli, "json_indent", recording)
    for seed in range(60):
        write_outputs(tmp_path, run_scenario("random", seed))
    # One report per seed: the history file is written from its records'
    # fields, and test_history_file.py holds it to json_indent over them.
    assert len(documents) == 60
    for value in documents:
        assert json_indent(value) == json.dumps(value, sort_keys=True, indent=2)

"""`cli.json_indent` against `json.dumps(doc, sort_keys=True, indent=2)`.

The history and report files must keep their bytes, so the writer's
indenter is compared with json's own on fixed-seed random documents that
reach every branch json's encoder has (leaves, empty and nested
containers, subclasses, every key type) and on every history and report
document the CLI writes for `random_config` 0-59.
"""
import enum
import json
import random
from typing import NamedTuple

import pytest

from splitstore import cli
from splitstore.cli import json_indent, write_outputs
from splitstore.scenarios import run_scenario
from splitstore.simnet import OBJECT_FORMATS


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
FLOATS = (0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, float("nan"), float("inf"), float("-inf"),
          Ratio(0.1))


def leaf(rng: random.Random) -> object:
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice(STRINGS)
    if pick == 1:
        return rng.choice(INTS)
    if pick == 2:
        return rng.choice(FLOATS)
    if pick == 3:
        return rng.choice((True, False))  # next to ints in the same containers
    if pick == 4:
        return None
    return rng.choice(((), [], {}))


def keys(rng: random.Random, n: int) -> list:
    """Keys of one dict, of one family, so that sorting them works as it
    does for json: mixed str and number keys do not compare."""
    family = rng.randrange(5)
    if family == 0:
        return [rng.choice(STRINGS) for _ in range(n)]
    if family == 1:  # ints and bools compare with each other
        return [rng.choice(INTS + (True, False)) for _ in range(n)]
    if family == 2:
        return [rng.choice(FLOATS + (3, False)) for _ in range(n)]
    if family == 3:
        return [None]
    return [f"k{rng.randrange(50)}" for _ in range(n)]


def doc(rng: random.Random, depth: int, force: int) -> object:
    """A random value; `force` more levels of nesting are guaranteed on
    its first child."""
    if force == 0 and (depth >= 6 or rng.random() < 0.3):
        return leaf(rng)
    n = rng.randrange(1, 5) if force else rng.randrange(0, 5)
    children = [doc(rng, depth + 1, max(force - 1, 0) if i == 0 else 0) for i in range(n)]
    shape = rng.randrange(4)
    if shape == 0:
        return children
    if shape == 1:
        return tuple(children)
    if shape == 2 and len(children) >= 2:
        return Pair(children[0], children[1])
    # Equal keys collapse; the first child, written last, is the one kept.
    return dict(reversed(list(zip(keys(rng, n), children))))


def depth_of(value: object) -> int:
    if isinstance(value, dict):
        return 1 + max(map(depth_of, value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(depth_of, value), default=0)
    return 0


def reference(value: object) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def note_types(value: object, values: set, keys: set) -> None:
    values.add(type(value))
    if isinstance(value, dict):
        keys.update(map(type, value))
        for item in value.values():
            note_types(item, values, keys)
    elif isinstance(value, (list, tuple)):
        for item in value:
            note_types(item, values, keys)


def test_random_documents_match_json_dumps():
    value_types: set[type] = set()
    key_types: set[type] = set()
    for seed in range(2000):
        value = doc(random.Random(seed), 0, force=4)
        assert depth_of(value) >= 4
        assert json_indent(value) == reference(value), seed
        note_types(value, value_types, key_types)
    assert {dict, list, tuple, Pair, str, Name, Tag, int, Level, bool, float, Ratio,
            type(None)} <= value_types
    assert {str, int, float, bool, type(None)} <= key_types


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
])
def test_edge_documents_match_json_dumps(value):
    assert json_indent(value) == reference(value)


@pytest.mark.parametrize("value", [object(), {(1, 2): 3}, {"a": 1, 2: "b"}, {None: 1, 0: 2}])
def test_documents_json_rejects_raise_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        json_indent(value)


def test_only_an_exact_dict_with_str_keys_takes_a_template(monkeypatch):
    # A dict subclass never looks its shape up; a dict with a key that is
    # not an exact str looks it up and gets no format. Both are written
    # by the generic path, as json writes them.
    looked_up = []

    class Recording(dict):
        def __getitem__(self, shape):
            looked_up.append((shape, OBJECT_FORMATS[shape]))
            return looked_up[-1][1]

    monkeypatch.setattr(cli, "OBJECT_FORMATS", Recording())
    for value in (Record(b=1, a=2), {1: "a", 2: "b"}, {None: 2}, {3.5: 4, 1: 5}, {True: 1}):
        assert json_indent([value]) == reference([value])
    assert looked_up and all(fmt is None for _shape, fmt in looked_up)
    # An exact dict with str keys takes one, at any depth.
    looked_up.clear()
    assert json_indent({"doc": [{"b": 1, "a": 2}]}) == reference({"doc": [{"b": 1, "a": 2}]})
    assert [shape for shape, fmt in looked_up if fmt is not None] == [
        ("\n", "doc"), ("\n    ", "b", "a"),
    ]


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
        assert json_indent(value) == reference(value)

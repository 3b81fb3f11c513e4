"""The history file: each record's `render()`, and the file's bytes.

`OpRecord.render` and `DirOpRecord.render` are the reference form of a
history record. perfbench's outcome digest and the golden verdicts read
them, so `RENDERED` pins their output, keys in order, over one full
period of `random_config`'s fault plans (seeds 0-59) in each metadata
mode: the first 16 hex digits of the sha256 of
`json.dumps([[op.render() ...], [dir_op.render() ...]])` per run.

Do not regenerate a digest to make a test pass. A mismatch means a
record renders differently, which changes the benchmark's digest.

`cli.write_outputs` writes the history file straight from the records'
fields. The tests below hold it to `json_indent` over the `render()`
payload, the document the file used to be written from: on runs, and on
hand-built records with every byte value and with values of types no run
produces, which take the writer's fallback.
"""
import enum
import hashlib
import json
from types import SimpleNamespace

import pytest

from splitstore import cli
from splitstore.checker import check_run
from splitstore.cli import history_text, json_indent, write_outputs
from splitstore.history import DirOpRecord, OpRecord
from splitstore.scenarios import SCENARIO_NAMES, ScenarioOutcome, random_config, run_scenario
from splitstore.simnet import Config, run
from splitstore.types import NIL, Metadata, Timestamp

RENDERED = {
    "oracle": [
        "00be13e3cf5570fa", "abe270d9778ba9db", "b8caab395926a654", "7b9a07d455bc6978",
        "2469cfe3a3d12524", "1c6b8c0b040be4dc", "61645f4262610383", "3fd777ed8c7d6c3e",
        "d2bc8aa16057e71f", "0ac722e20aaff633", "1ceb5a99a690473a", "9d1be077c50cedbc",
        "9df887c2cd74d881", "f0451d237f7c065c", "99e72e51da36680f", "2ae77df75b3cefaf",
        "8e8de425f0918cda", "e8e9945b20fcfd57", "bfeb60d872162bd2", "68f19230f01815e9",
        "252995cc2b754f36", "86a75bc389cf5f56", "c90b76996fe99050", "a221a05c9bac89de",
        "548425fca8c88f89", "68f0ba2877126fc7", "6b621a498e00b739", "7081995f0f1c0cbf",
        "9d711011050f6c4e", "01bf57ed2b4ede06", "f056f0e0c77713d0", "630b24b27352ace9",
        "05a626b93f84c3c4", "d7b7232698c34e79", "111960ca473a1abf", "32d4fbd675803981",
        "e3f1157ee50daa8b", "7ab935b4acacdeaa", "e3f8cf12bba99cac", "aa400960059da811",
        "6a0c240de9abc178", "c7404cd361545d87", "aafac503bd976c1f", "1c5660b9881820c3",
        "623aaaed7a0474f6", "cde7d9e6b1474b5a", "5660590764b6fec4", "c3e64f639da2927e",
        "a1eaa343ce002cca", "94bd5433b47258a0", "b889e8f9364b3830", "bb93dcf25dd8f620",
        "1f0af9450c064329", "3c2225def4d47ec4", "50cd01d0f88dbbc3", "62e597c03f3533d9",
        "75c542b901be09f8", "5b54d55f2f1c6907", "a3c4bdba57ae6dae", "35b51e8db03189f2",
    ],
    "replicated": [
        "6b7120906d66ecbe", "6faed24eeee3436b", "29439ec7823d0773", "49aa8bd3fe31d21d",
        "e3d69afa361ce480", "547c8cd0b94f4c4d", "2b53c60f4558086e", "95d36c6c7207e6f7",
        "13a657b7fb1c68a2", "61fd7b7e2ec99623", "dc371dd0fd4c6b9d", "79c1ecffcbf95314",
        "ecfe31fbae800c8a", "ae73b9a7f7006134", "a79d626fba27785b", "b15eae5c67f17178",
        "b21b0d31f0644694", "720b8fadccf5058d", "438cef1462712978", "f7a966c5c4558a24",
        "fd83685de3c0acd1", "454b135a5940049b", "fa5c9a3d7c977503", "33f904755cdb0ab5",
        "6a39602c7a444e26", "637933ee65c54157", "20a85f17fb0fbb80", "7e68df36f6cf4ea2",
        "21cab2658bb92eb8", "703819aa16f825f9", "c3bf94c5839eac88", "aea15c58874024b0",
        "5363ebfc03121a28", "2279fabd08db39a9", "2c0d807aaa13aefe", "c34a85af5cc99243",
        "86917bc1171603ff", "599b204b529a14ae", "bc330953ccbbaf95", "0277a9dd1da1d649",
        "6beaba9e949ff671", "20b22a570af626ea", "1b6d69c40b6118a7", "0468d5fb71bb394e",
        "1b7fe47c65db628c", "0e3a30afbea64846", "1f094bf853737539", "2456158c111193f5",
        "e62d9a0b541069a3", "b36cc01eaba48ac2", "9681e7975a26016b", "8f0b297cb40e6b8e",
        "6dac89349c595c75", "1792641035bb0bfd", "aea529f10f4af788", "a157cb67eb1e1fea",
        "c93b643ea7f1a3bb", "41cee83e2062ceba", "6c955d61c0df6836", "7dd75807a00b8124",
    ],
}


def rendered_digest(result) -> str:
    payload = [[op.render() for op in result.history], [op.render() for op in result.dir_ops]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode", sorted(RENDERED))
def test_rendered_records_are_pinned(mode):
    got = [rendered_digest(run(random_config(seed, mds_mode=mode))) for seed in range(60)]
    assert got == RENDERED[mode]


def reference(name: str, seed: int, label: str, result) -> str:
    """The history file as it was written before the records were encoded
    from their fields: `json_indent` over the rendered payload."""
    return json_indent({
        "schema": cli.HISTORY_SCHEMA,
        "scenario": name,
        "seed": seed,
        "label": label,
        "ops": [op.render() for op in result.history],
        "directory_ops": [op.render() for op in result.dir_ops],
    }) + "\n"


def cli_long_outcome(seed: int, mode: str) -> ScenarioOutcome:
    result = run(Config(seed=seed, writers=4, readers=4, ops=50, mds_mode=mode))
    verdict = check_run(result)
    return ScenarioOutcome(name=f"cli-long-{mode}", seed=seed, passed=verdict.ok,
                           expectation="", runs=[("run", result, verdict)])


OUTCOMES = {
    **{f"random-{seed}": lambda seed=seed: run_scenario("random", seed)
       for seed in [*range(60), 2333]},
    **{f"{name}-0": lambda name=name: run_scenario(name, 0)
       for name in SCENARIO_NAMES if name != "random"},
    **{f"cli-long-{mode}": lambda mode=mode: cli_long_outcome(0, mode)
       for mode in ("oracle", "replicated")},
}


@pytest.mark.parametrize("case", sorted(OUTCOMES))
def test_written_history_equals_json_indent_over_render(case, tmp_path):
    outcome = OUTCOMES[case]()
    written = {p.name: p for p in write_outputs(tmp_path, outcome)}
    stem = f"{outcome.name}-{outcome.seed}"
    for label, result, _ in outcome.runs:
        run_stem = stem if len(outcome.runs) == 1 else f"{stem}-{label}"
        text = written[f"{run_stem}.history.json"].read_text(encoding="utf-8")
        assert text == reference(outcome.name, outcome.seed, label, result)


def test_no_record_is_rendered_and_only_the_report_is_indented(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a record was rendered")

    indented = []
    monkeypatch.setattr(OpRecord, "render", refuse)
    monkeypatch.setattr(DirOpRecord, "render", refuse)
    monkeypatch.setattr(cli, "json_indent", lambda doc: indented.append(doc) or json_indent(doc))
    write_outputs(tmp_path, run_scenario("random", 1))
    assert [doc["schema"] for doc in indented] == [cli.REPORT_SCHEMA]


class Name(str):
    pass


class Level(enum.IntEnum):
    HIGH = 7


ALL_BYTES = bytes(range(256))  # among them '"', '\\' and 0xe9
ODD = [
    (1, "a", None, b"\xe9"), Name("odd \"name\""), Level.HIGH,
    {"b": [1, Timestamp(2, 1)], "a": {"z": None}, "": Name("k")}, True, [], {},
]
TS = [None, Timestamp(0, NIL), Timestamp(3, 2), Timestamp(12, 1)]


def hand_built() -> SimpleNamespace:
    history = []
    for i, arg in enumerate([None, ALL_BYTES, b'"', b"\\", b"\xe9", b""]):
        history.append(OpRecord(op_id=i + 1, client="w1", kind="WRITE", arg=arg, invoke=i,
                                response=None if i % 2 else i + 3, ret=arg,
                                ts=TS[i % 4], md_ts=TS[(i + 1) % 4], md2_ts=TS[(i + 2) % 4]))
    for i, ret in enumerate([ALL_BYTES, None, "OK", *ODD]):
        history.append(OpRecord(op_id=len(history) + 1, client="r\u00e91", kind="READ",
                                arg=None, invoke=i, ret=ret, ts=TS[i % 4]))
    mds = [
        None,
        Metadata(Timestamp(1, 1), frozenset()),
        Metadata(Timestamp(4, 2), frozenset({5, 1, 3, 2})),
        *ODD,
    ]
    dir_ops = [
        DirOpRecord(proc="w2", op=op, tag=i + 1, invoke=i, response=None if i % 3 else i + 1,
                    ts=TS[i % 4], md=md, index=TS[(i + 3) % 4],
                    digest=None if i % 2 else "d" * 64)
        for i, (op, md) in enumerate(
            zip(["tsread", "tswrite", "hashread", "hashwrite"] * 3, mds)
        )
    ]
    return SimpleNamespace(history=history, dir_ops=dir_ops)


@pytest.mark.parametrize("name, seed, label", [
    ("edges", 0, "run"), ("\u00e9\"\\", -3, "file \u2603"), ("big-seed", 2**70, ""),
])
def test_hand_built_records_with_edge_values(name, seed, label):
    result = hand_built()
    assert len(result.dir_ops) == len(ODD) + 3
    assert history_text(name, seed, label, result) == reference(name, seed, label, result)
    # records written twice take their Timestamp and Metadata texts from the memos
    twice = SimpleNamespace(history=result.history * 2, dir_ops=result.dir_ops * 2)
    assert history_text(name, seed, label, twice) == reference(name, seed, label, twice)


def test_a_history_with_no_records():
    empty = SimpleNamespace(history=[], dir_ops=[])
    assert history_text("none", 0, "run", empty) == reference("none", 0, "run", empty)


def test_a_value_render_rejects_is_rejected_by_the_writer_too():
    rec = DirOpRecord(proc="w1", op="tsread", tag=1, md=1.5)
    result = SimpleNamespace(history=[], dir_ops=[rec])
    with pytest.raises(TypeError):
        rec.render()
    with pytest.raises(TypeError):
        history_text("float", 0, "run", result)

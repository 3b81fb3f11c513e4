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
fields. The tests below hold it to json's own encoder, with sorted keys
and an indent of 2, over the `render()` payload, the document the file
used to be written from: on runs, and on hand-built records with every
byte value and with values of types no run produces, which take the
writer's fallback. The reference does not go through the program's
encoder, so a fault in that encoder cannot hide in both sides.
"""
import enum
import hashlib
import json
from types import SimpleNamespace

import pytest

from splitstore import cli
from splitstore.checker import check_run
from splitstore.cli import history_text, write_outputs
from splitstore.history import DirOpRecord, OpRecord
from splitstore.scenarios import SCENARIO_NAMES, ScenarioOutcome, random_config, run_scenario
from splitstore.simnet import Config, run
from splitstore.types import NIL, Metadata, Timestamp

RENDERED = {
    "oracle": [
        "b408e820fd875c95", "090cceee20d6645a", "2d97b3ef02ab2a05", "90bd6a62604eb868",
        "1b859d76c74c39e1", "a99600cee2221acf", "427b732f104bcadc", "3fd777ed8c7d6c3e",
        "d2bc8aa16057e71f", "c5f16e184aada0bc", "ea66f2e1e17cfb45", "9f4c16cebda5de9f",
        "0f4fa6004f0f1a38", "bba70cbb231a65a2", "8b7c4f6b3193966b", "b8e24e178d9856d9",
        "8e8de425f0918cda", "360da3529b5fb00b", "bfeb60d872162bd2", "65ba2bf963528e4d",
        "252995cc2b754f36", "86a75bc389cf5f56", "c90b76996fe99050", "9eb79700fa25bbf5",
        "0ddda4ded9c87c10", "e6a16d4d1f1d039a", "6b621a498e00b739", "06c069d276473709",
        "d05b1c30ebf352f6", "559a16e808dc5479", "f056f0e0c77713d0", "6c0ea2dc735e8946",
        "66ed05d4b53490e7", "d7b7232698c34e79", "f232d6b8287b32d5", "32d4fbd675803981",
        "b6cb122183b7b5a9", "7ab935b4acacdeaa", "e3f8cf12bba99cac", "aa400960059da811",
        "6a0c240de9abc178", "2685cc56dd157cf6", "aafac503bd976c1f", "1c5660b9881820c3",
        "623aaaed7a0474f6", "403bbe76a2c6474f", "5660590764b6fec4", "c3e64f639da2927e",
        "a1eaa343ce002cca", "2abb1ac96b42569c", "b889e8f9364b3830", "53555860d1638b1c",
        "7f1896cf8af634b3", "ecedc9be0f172207", "a1dd483cab4d5144", "62e597c03f3533d9",
        "75c542b901be09f8", "4f56edb4c073f8dd", "4eaa5d7378a9d324", "35b51e8db03189f2",
    ],
    "replicated": [
        "a4d34e16dedd88dc", "e2786ff2563df41a", "5c4949c6fd031580", "f38a86bd279dcb08",
        "a04c3799541c0682", "59a4203f00a32f42", "61bd1fe0bb0ab090", "10bcf8f13211a5a1",
        "2dac0e35382508cf", "397a2b5b6232ebc6", "6fcd5b2a649930d4", "b7a051fe5e6eff9f",
        "94c287576ea957ab", "875a8e61c7b3b511", "b213968ddaec304a", "fd30571f09566d3e",
        "78de4ca07571b1eb", "679c1e6b4ac11c8d", "9e04c3f7e8bf68fe", "3785c8f18085f470",
        "2223aaf298f18a31", "623fe4bdd621bb7f", "9eb506d8ace8e293", "e50ba53292e57a45",
        "b340f3d5b4ba4b22", "8a810995b5fa1018", "f7b86abdbfdedf80", "f9854dc2588a05e3",
        "df785bf6bb51d0cb", "136936cabf912bdb", "cca8078a42e71436", "803930305911828f",
        "2bcf58c7619d9c76", "939504aaa2dd1b61", "12a0b82fcd5b6559", "8a9f1457911c6b3b",
        "9a64653da5823e09", "bd82536b30af440f", "ebccb1e7c0237982", "88f726c0dbfe2e62",
        "315322113f16d53b", "6fd643f363ba8f25", "2659a58be1cdd4f5", "456f02083e1108ef",
        "127a76ba427799b9", "97d8fdcc50e1e285", "705eeaed5333fc00", "17b922131455d1fd",
        "c9ec6d62d16538cc", "454fe3cedb085785", "214d8e8ecd7022a2", "6f1a8a473c94ae5b",
        "bd8efed25aa466e8", "1c5f3595d614765c", "b9e2b087548b5796", "c7c9ca263134daf6",
        "da594f6a623f142d", "17152cdcc8446562", "67a129f5298296b0", "cc09ee66b2599f10",
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
    from their fields: json's encoder over the rendered payload."""
    return json.dumps({
        "schema": cli.HISTORY_SCHEMA,
        "scenario": name,
        "seed": seed,
        "label": label,
        "ops": [op.render() for op in result.history],
        "directory_ops": [op.render() for op in result.dir_ops],
    }, sort_keys=True, indent=2) + "\n"


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
    json_indent = cli.json_indent
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
    # records written twice, so equal Timestamp and Metadata values recur
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

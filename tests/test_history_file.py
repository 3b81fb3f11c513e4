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
        "6b7120906d66ecbe", "bb2349eb396a37a9", "29439ec7823d0773", "7a7ba31fe4e9af7b",
        "6cd130a096a15786", "547c8cd0b94f4c4d", "3fd8ddd37af5e59d", "d13f613c8f4d6e51",
        "46f755fc39db86f0", "a22f20be99e934ef", "d93b9a832fd87ae8", "b633d459247f1779",
        "5cab771f6a29d4d9", "ae73b9a7f7006134", "bd88b68e6838f2ad", "bc81d72e8c4626f6",
        "b21b0d31f0644694", "817709031eda7c2a", "dc4cfa15f3d83de6", "14d55487ab217725",
        "bd326169c8859fa6", "b933441c8fdf7166", "8fe10b2e8dc8c86b", "cdd9ce9ea30988c9",
        "f47215fa4470bcee", "210035b4760a2624", "2b0b0c8ff546e424", "01d4c5a5822796cd",
        "ebdaff1c1aeb10da", "703819aa16f825f9", "de5f93ee8c264c58", "8bd5205d636e1c77",
        "4b42503722ea67a3", "9d5e50956af6b794", "ffbfff786caf3bfb", "3ba742c2d192c03b",
        "f5d66b2d48ddc753", "c8bc3571a6197de5", "bc330953ccbbaf95", "dad13c5b4f348d8e",
        "0f398106f07c63cc", "a0e1bc838ac0b8e5", "acee0fc0a8b304ca", "0468d5fb71bb394e",
        "196f7799bc2e6a59", "0e3a30afbea64846", "73fbaa9dc47ca00b", "bc17189dda49705d",
        "1433027268dda84b", "e8273f6372e5f798", "bfd5d5503eac0e62", "560360e9b7a1063c",
        "042e9547499a875b", "1792641035bb0bfd", "113911d439292d74", "481b4b982c99f2c4",
        "873f278b576d6f91", "a9fdf4079231520c", "1f358bd7d6d8f644", "e00bba713bf40a79",
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

"""Check that every output file in the given directories is canonical JSON.

A history or report file must equal `json.dumps(doc, sort_keys=True,
indent=2)` over its own parsed document, plus a newline; each line of a
trace file must equal the compact, sort-keys `json.dumps` of its parsed
line, and the file must end with a newline. Any other file is an error,
and so is a total file count other than --count. Standard library only.

usage: python tools/canonical_json.py DIR... --count N
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys


def check(path: pathlib.Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.name.endswith((".history.json", ".report.json")):
        again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert text == again, path
    elif path.name.endswith(".trace.jsonl"):
        lines = text.split("\n")
        assert lines.pop() == "", path
        for line in lines:
            again = json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
            assert line == again, (path, line)
    else:
        raise SystemExit(f"unexpected output file {path}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", type=pathlib.Path)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    count = 0
    for root in args.dirs:
        for path in sorted(root.iterdir()):
            check(path)
            count += 1
    assert count == args.count, count
    print(f"{count} output files are canonical JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

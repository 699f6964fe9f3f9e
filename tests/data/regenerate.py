"""Rewrite the pinned artefacts under ``tests/data/`` from the current code,
and print every JSON key and demo line that moved.

    PYTHONPATH=src python tests/data/regenerate.py

Run it from the root of a checkout after a change that is meant to move a
pinned report (a new random stream, say), then review the printed moves and
``git diff tests/data``.  The artefacts are:

- ``pushforward_reports.json``: the reports of the pushforward benchmark
  round that ``tests/test_batch_layout.py`` pins;
- ``selftest_seed42.json``: the stdout of ``python -m bernshift selftest
  --seed 42``, which CI compares at one and two threads;
- ``demos/*.txt``: each demo's stdout, which ``tests/test_demos.py`` pins.

This script only records; the tests and CI stay the checkers.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
TESTS = DATA.parent
ROOT = TESTS.parent


def _run(*args: str) -> bytes:
    """Stdout of ``python -W error`` on ``args`` with this checkout's ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-W", "error", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True).stdout


def _pushforward_reports() -> bytes:
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    from test_batch_layout import _round_reports

    lines = [f" {json.dumps(name)}: {json.dumps(rep, sort_keys=True)}" for name, rep in _round_reports(1).items()]
    return ("{\n" + ",\n".join(lines) + "\n}\n").encode()


def _json_moves(old, new, path: str = "") -> list[str]:
    """One line per value that differs, by its path from the top; lists of
    objects are walked by index, lists of numbers compared whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        moves = []
        for key in list(old) + [k for k in new if k not in old]:
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                moves.append(f"{sub}: {'removed' if key in old else 'added'}")
            else:
                moves += _json_moves(old[key], new[key], sub)
        return moves
    nested = isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
    if nested and any(isinstance(v, (dict, list)) for v in old):
        return [m for i, (o, n) in enumerate(zip(old, new)) for m in _json_moves(o, n, f"{path}[{i}]")]
    if old == new:
        return []
    show = [json.dumps(v) for v in (old, new)]
    if max(map(len, show)) > 60:
        return [f"{path}: changed"]
    return [f"{path}: {show[0]} -> {show[1]}"]


def _split(text: bytes) -> tuple[bytes, bytes]:
    """A stdout's leading lines, and the JSON document from its first line
    that opens one (``selftest`` prints its summary lines first)."""
    at = 0 if text.startswith(b"{") else text.find(b"\n{") + 1
    return text[:at], text[at:]


def _moves(path: Path, old: bytes, new: bytes) -> list[str]:
    if path.suffix != ".json" or not old:
        return _text_moves(old, new)
    (head_old, doc_old), (head_new, doc_new) = _split(old), _split(new)
    return _text_moves(head_old, head_new) + _json_moves(json.loads(doc_old), json.loads(doc_new))


def _text_moves(old: bytes, new: bytes) -> list[str]:
    diff = difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(), lineterm="", n=0)
    return [line for line in diff if line[:1] in "+-" and line[:3] not in ("+++", "---")]


def main() -> None:
    artefacts = {
        DATA / "pushforward_reports.json": _pushforward_reports(),
        DATA / "selftest_seed42.json": _run("-m", "bernshift", "selftest", "--seed", "42"),
    }
    for demo in sorted((ROOT / "demos").glob("*.py")):
        artefacts[DATA / "demos" / f"{demo.stem}.txt"] = _run(str(demo))
    for path, new in artefacts.items():
        old = path.read_bytes() if path.exists() else b""
        if old == new:
            continue
        print(f"{path.relative_to(ROOT)}:")
        for line in _moves(path, old, new):
            print(f"  {line}")
        path.write_bytes(new)


if __name__ == "__main__":
    main()

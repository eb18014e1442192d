"""The golden artifact set: the bytes of a fixed set of CLI runs.

``runs()`` builds 49 files in process through ``conftest.invoke``, in a
temporary directory that is the working directory, so every path the
manifests record is relative and the same on every build.  Manifests are
compared byte for byte like every other file: they hold no timing.

``golden_sha256.json`` holds the sha256 of each file and, to locate a
change, the digest of each block of ``BLOCK_LINES`` lines.  It also
records the environment it was built in: numpy's version, the C library
and the machine.  The advantage and privacy floor go through libm's erfc
and exp, and the moments through BLAS, so their last bits are the
platform's.  In that environment the test compares every file with the
table and names each file that differs with its first differing block of
lines.  In any other environment it does not skip: it builds the set
twice, requires the two builds to be byte-identical, naming each file
that differs with its first differing line, and warns that the table was
not compared.  Comparing parsed values within an ulp bound instead would
mean committing the values themselves; two builds check determinism,
and the table checks the values where its bits are defined.

A change that alters a hash on purpose rewrites the table with
``PYTHONPATH=src python tests/test_golden.py`` and lists each changed
file, the reason and the largest value change.
"""

import hashlib
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from conftest import invoke

TABLE = Path(__file__).with_name("golden_sha256.json")
BLOCK_LINES = 64

PROTOCOLS = ("no-delete", "random-delete", "perfect-delete")
SIM = ["--steps", "50", "--iterations", "100"]


def runs() -> list:
    """The CLI argument lists that build the set, in order."""
    out = [["gen", "--out", "a"],
           ["gen", "--n", "1000", "--extra-features", "2", "--out", "b"]]
    for s in "ab":
        data = ["--dataset", f"{s}/dataset.csv"]
        out += [["select", *data, "--scores-csv", f"{s}/scores.csv",
                 "--out", f"{s}/select"],
                ["bounds", *data, "--out", f"{s}/bounds"],
                ["bounds", *data, "--b-floor", "0.001", "--out", f"{s}/floor"],
                ["bounds", *data, "--snr-convention", "consistent",
                 "--out", f"{s}/consistent"]]
        out += [["simulate", *data, "--protocol", p, *SIM, "--out", f"{s}/{p}"]
                for p in PROTOCOLS]
    return out + [
        # 4,159 of the 5,000 steps skip: no point is within 0.05 of the target
        ["simulate", "--dataset", "a/dataset.csv", "--protocol",
         "perfect-delete", *SIM, "--delta", "0.05", "--out", "a/delta"],
        ["select", "--dataset", "b/dataset.csv", "--tie-break", "paper",
         "--w0", "0.3,-1,2", "--out", "b/paper"],
        # at w = 0 every residual is y exactly; here it is a sum over columns
        ["bounds", "--dataset", "b/dataset.csv", "--w0", "0.3,-1,2",
         "--out", "b/weighted"],
        ["report", *(f"{s}/{p}/summary.json" for s in "ab" for p in PROTOCOLS),
         "a/delta/summary.json", "--out", "report"],
    ]


class GoldenTableNotCompared(Warning):
    """The set was checked for determinism only, not against the table."""


def environment() -> dict:
    return {"numpy": np.__version__, "libc": list(platform.libc_ver()),
            "machine": platform.machine()}


def build(root: Path, monkeypatch) -> dict:
    """Relative path -> lines of every file runs() writes under ``root``."""
    monkeypatch.chdir(root)
    for args in runs():
        res = invoke(args)
        assert res.exit_code == 0, (args, res.output)
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            files[path.relative_to(root).as_posix()] = \
                path.read_bytes().splitlines(keepends=True)
    return files


def digests(lines: list) -> dict:
    return {"sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
            "blocks": "".join(
                hashlib.sha256(b"".join(lines[i:i + BLOCK_LINES]))
                .hexdigest()[:8] for i in range(0, len(lines), BLOCK_LINES))}


def table_differences(files: dict, table: dict) -> list:
    found = [f"{name}: missing" for name in table if name not in files]
    for name, lines in files.items():
        got, want = digests(lines), table.get(name)
        if want is None:
            found.append(f"{name}: not in the table")
        elif got != want:
            k = next((i for i in range(0, len(got["blocks"]) + 8, 8)
                      if got["blocks"][i:i + 8] != want["blocks"][i:i + 8]),
                     0)
            first = k // 8 * BLOCK_LINES + 1
            found.append(f"{name}: first differing line is in lines "
                         f"{first}-{first + BLOCK_LINES - 1}")
    return found


def build_differences(files: dict, again: dict) -> list:
    found = [f"{name}: in one build only"
             for name in files.keys() ^ again.keys()]
    for name in files.keys() & again.keys():
        a, b = files[name], again[name]
        if a != b:
            line = next(i for i, pair in enumerate(zip(a + [b""], b + [b""]))
                        if pair[0] != pair[1])
            found.append(f"{name}: first differing line {line + 1}: "
                         f"{a[line:line + 1]!r} vs {b[line:line + 1]!r}")
    return sorted(found)


def test_golden_artifact_set(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    (tmp_path / "1").mkdir()
    files = build(tmp_path / "1", monkeypatch)
    assert len(files) == 49
    if table["environment"] == environment():
        assert table_differences(files, table["files"]) == []
        return
    (tmp_path / "2").mkdir()
    assert build_differences(files, build(tmp_path / "2", monkeypatch)) == []
    warnings.warn(GoldenTableNotCompared(
        f"golden table built on {table['environment']}, this is "
        f"{environment()}: two builds compared, the table was not"))


if __name__ == "__main__":
    from pytest import MonkeyPatch
    with tempfile.TemporaryDirectory() as tmp, MonkeyPatch.context() as mp:
        built = build(Path(tmp), mp)
    TABLE.write_text(json.dumps(
        {"environment": environment(),
         "files": {name: digests(lines) for name, lines in built.items()}},
        indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(built)} files)", file=sys.stderr)

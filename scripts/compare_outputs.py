"""Compare two output trees file by file, e.g. the same recipe run on two
checkouts.

Usage: python scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Every relative path found under either directory gets one line: ``same``
(byte-identical), ``differs``, or ``only in`` one side. For a differing
CSV, JSON, ``.psl`` or ``.psv`` file the line also gives how many numbers
differ and the largest absolute and relative difference among them
(relative to the larger magnitude of the two), plus any non-numeric field or
structure that differs. A ``.psl`` / ``.psv`` file is read as the popsynth
blob: a magic line, a u32 header length, a JSON header, a float64 payload
and the sha256 digest of those bytes, reported as a field when it differs.
A file without a valid trailing digest (one written before model format 4
or latent format 2) is read as all payload after the header. Timestamps in
manifests differ on every run and are reported like any other number. The exit code is 0 whatever the comparison finds: the
script reports, it does not judge. Wrong arguments exit 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import sys

import numpy as np

DIGEST_SIZE = 32  # a trailing sha256


def _files(root: str) -> set[str]:
    out = set()
    for here, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(here, name), root))
    return out


def _number(value):
    """``value`` as a float when it is a number or a numeric string, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _leaves(obj, path=()):
    """(path, leaf) for every scalar of a parsed JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], (*path, key))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, (*path, i))
    else:
        yield path, obj


def _csv_cells(data: bytes):
    rows = csv.reader(io.StringIO(data.decode("utf-8")))
    return [((i, j), cell) for i, row in enumerate(rows) for j, cell in enumerate(row)]


def _blob_cells(data: bytes):
    """The header's JSON scalars, the payload's float64 values and the
    trailing digest, if the file has one."""
    cells = []
    body, digest = data[:-DIGEST_SIZE], data[-DIGEST_SIZE:]
    if len(data) > DIGEST_SIZE and hashlib.sha256(body).digest() == digest:
        cells.append((("digest",), digest.hex()))
        data = body
    magic_end = data.index(b"\n") + 1
    (size,) = struct.unpack_from("<I", data, magic_end)
    start = magic_end + 4
    header = json.loads(data[start : start + size])
    payload = np.frombuffer(data, "<f8", offset=start + size)
    cells += [(("header", *p), v) for p, v in _leaves(header)]
    cells += [(("payload", i), float(v)) for i, v in enumerate(payload)]
    return cells


def _cells(name: str, data: bytes):
    ext = os.path.splitext(name)[1]
    if ext == ".csv":
        return _csv_cells(data)
    if ext == ".json":
        return list(_leaves(json.loads(data)))
    if ext in (".psl", ".psv"):
        return _blob_cells(data)
    return None


def numeric_diff(name: str, a: bytes, b: bytes) -> str:
    """A summary of how the numbers of two versions of ``name`` differ, or
    '' when the format is not one that is read here."""
    try:
        cells_a, cells_b = _cells(name, a), _cells(name, b)
    except (ValueError, UnicodeDecodeError, struct.error) as exc:
        return f"unreadable: {exc}"
    if cells_a is None:
        return ""
    by_path_b = dict(cells_b)
    n_diff, other, max_abs, max_rel = 0, 0, 0.0, 0.0
    for path, va in cells_a:
        if path not in by_path_b:
            other += 1
            continue
        vb = by_path_b.pop(path)
        if va == vb:
            continue
        xa, xb = _number(va), _number(vb)
        if xa is None or xb is None:
            other += 1
            continue
        if xa == xb or (math.isnan(xa) and math.isnan(xb)):
            continue  # the same number written differently
        n_diff += 1
        gap = abs(xa - xb)
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / max(abs(xa), abs(xb)))
    other += len(by_path_b)
    text = f"{n_diff} numbers differ, max abs {max_abs:.3g}, max rel {max_rel:.3g}"
    if other:
        text += f"; {other} other fields differ"
    return text


def compare(parent: str, change: str, out=sys.stdout) -> None:
    files_a, files_b = _files(parent), _files(change)
    for name in sorted(files_a | files_b):
        if name not in files_b:
            print(f"only in {parent}: {name}", file=out)
            continue
        if name not in files_a:
            print(f"only in {change}: {name}", file=out)
            continue
        with open(os.path.join(parent, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(change, name), "rb") as fh:
            b = fh.read()
        if a == b:
            print(f"same     {name}", file=out)
            continue
        detail = numeric_diff(name, a, b)
        print(f"differs  {name}" + (f"  ({detail})" if detail else ""), file=out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 1
    compare(*args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The package's one way in and one way out: ``schema.read_input`` is the only
reader of input files and ``schema.write_atomic`` the only writer, and every
bad input is a ``DataError``."""

import ast
import struct
from pathlib import Path

import pytest

import popsynth
from conftest import signed
from popsynth import training, vae
from popsynth.generation import load_rules
from popsynth.schema import DataError, load_schema, read_input, write_atomic

# the functions of src/popsynth allowed to call open(): the input reader, the
# atomic writer and the manifest hasher, which streams the files just written
OPEN_SITES = {"read_input", "write_atomic", "_sha256"}


def open_calls(path):
    """(enclosing function, line) of every ``open(...)`` or ``x.open(...)``
    call in the module at ``path``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_open_is_called_only_by_the_reader_the_writer_and_the_hasher():
    sources = sorted(Path(popsynth.__file__).parent.glob("*.py"))
    calls = {p.name: open_calls(p) for p in sources}
    stray = {name: [c for c in found if c[0] not in OPEN_SITES] for name, found in calls.items()}
    assert {name: found for name, found in stray.items() if found} == {}
    assert sorted(f for found in calls.values() for f, _ in found) == sorted(OPEN_SITES)


def test_open_calls_finds_a_fifth_reader(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def load(p):\n    with open(p) as fh:\n        return fh.read()\n")
    assert open_calls(source) == [("load", 2)]


def test_read_input_returns_text_or_bytes_untranslated(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes("a,b\r\né,1\r\n".encode("utf-8"))
    assert read_input(path) == "a,b\r\né,1\r\n"
    assert read_input(path, text=False) == path.read_bytes()
    path.write_bytes(b"\xff\x00")  # not UTF-8, but bytes are not decoded
    assert read_input(path, text=False) == b"\xff\x00"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_read_input_failure_is_a_data_error_naming_the_path(tmp_path, case):
    path = tmp_path / "input"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"household_id\xff\n")
    with pytest.raises(DataError) as info:
        read_input(path)
    assert str(path) in str(info.value)


def test_json_nested_too_deep_is_each_readers_own_error(tmp_path):
    """The recursion limit of the JSON parser is bad input to every reader
    of JSON, raised as a ``DataError`` with that reader's own message."""
    deep = b"[" * 100_000
    path = tmp_path / "deep"
    path.write_bytes(deep)
    with pytest.raises(DataError, match="could not parse schema file"):
        load_schema(path)
    with pytest.raises(DataError, match="could not parse rules file"):
        load_rules(path)
    for magic, load in ((vae.MODEL_MAGIC, vae.load_model), (training.LATENT_MAGIC, training.load_latent)):
        path.write_bytes(signed(magic + struct.pack("<I", len(deep)) + deep))
        with pytest.raises(DataError, match="corrupt header"):
            load(path)


def data_error_subclasses(path):
    """The classes the module at ``path`` defines on ``DataError``, by name
    or as ``schema.DataError``."""
    return [node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any((base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
                    == "DataError" for base in node.bases)]


def test_data_error_is_the_one_bad_input_class():
    sources = sorted(Path(popsynth.__file__).parent.glob("*.py"))
    found = {p.name: data_error_subclasses(p) for p in sources}
    assert {name: classes for name, classes in found.items() if classes} == {}


def test_data_error_subclasses_finds_a_subclass(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .schema import DataError\nclass BadFile(DataError):\n    pass\n")
    assert data_error_subclasses(source) == ["BadFile"]


def test_write_atomic_leaves_no_temporary_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    (target / "inside").write_text("x")
    with pytest.raises(OSError):
        write_atomic(target, b"data")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert [p.name for p in target.iterdir()] == ["inside"]


def test_write_atomic_leaves_no_temporary_file_when_the_write_fails(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(target, "not bytes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert target.read_bytes() == b"old"

import hashlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from popsynth import vae

SCRIPT = Path(__file__).parents[1] / "scripts" / "compare_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_each_file_and_its_numbers(tmp_path):
    compare_outputs = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "same.txt").write_text("x\n")
    (a / "only_a.txt").write_text("")
    (b / "only_b.txt").write_text("")
    (a / "h.csv").write_text("epoch,loss\n0,1.5\n1,2.0\n")
    (b / "h.csv").write_text("epoch,loss\n0,1.5000000000015\n1,2\n")
    (a / "sub" / "m.json").write_text('{"k": [1.0, 4.0], "name": "x"}')
    (b / "sub" / "m.json").write_text('{"k": [1.0, 3.0], "name": "y"}')
    (a / "bin.dat").write_bytes(b"\x00")
    (b / "bin.dat").write_bytes(b"\x01")
    for d, last in ((a, 0.5), (b, 0.25)):
        vae.write_blob(d / "z.psl", b"PSLAT01\n", 1, {"rows": 2}, np.array([1.0, last]))

    out = io.StringIO()
    compare_outputs.compare(str(a), str(b), out)
    lines = out.getvalue().splitlines()
    assert lines == [
        "differs  bin.dat",
        "differs  h.csv  (1 numbers differ, max abs 1.5e-12, max rel 1e-12)",
        f"only in {a}: only_a.txt",
        f"only in {b}: only_b.txt",
        "same     same.txt",
        "differs  sub/m.json  (1 numbers differ, max abs 1, max rel 0.25; 1 other fields differ)",
        "differs  z.psl  (1 numbers differ, max abs 0.25, max rel 0.5; 1 other fields differ)",
    ]
    blob = (b / "z.psl").read_bytes()
    cells = dict(compare_outputs._blob_cells(blob))
    assert cells[("digest",)] == hashlib.sha256(blob[: -vae.DIGEST_SIZE]).hexdigest()
    assert cells[("payload", 1)] == 0.25
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert compare_outputs.main([str(a)]) == 1

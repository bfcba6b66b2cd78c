"""sha256 pins of the string and integer outputs of the data plane.

A small oracle dataset goes through ``restructure --write-encoded``, and a
fixed seeded probability matrix is decoded in both modes into an inventory
and a sanity report. The argmax inventory is then evaluated against the
microdata and the oracle's tract marginals. None of these files depend on
BLAS, so their digests are fixed: any change to how tables are restructured,
encoded, decoded, sorted, emitted, checked, counted into marginals or
reported shows up here.
"""

import hashlib

import numpy as np
import pytest

from popsynth import cli, generation
from popsynth.schema import (
    EncodedMatrix,
    column_layout,
    decode_onehot_with_stats,
    load_microdata,
    load_schema,
    restructure,
)

RESTRUCTURE_PINS = {
    "restructured.csv": "d134f3caefeed131eaff3f6cc1d79a6674d84bb5e53a21fb23a49d3979be41d5",
    "encoded.csv": "4fb37b9609aeaf71bb360819fa9b5b0b7398c3d03429a1b36561ce39157c9891",
}

INVENTORY_PINS = {
    "argmax": {
        "households.csv": "a1bd5b41c574b6d15978de3ce3f488652bfa4e53d3290c8f606ce19d37062832",
        "persons.csv": "8d09081b9dc791d0f8d7c2584e406ba5a8a447e0a36b3b9118854e00fed73019",
        "sanity_report.json": "d67358dafb0087f3f941a7cdea12f9c258be001f8dae951998ba772d66a06022",
    },
    "sample": {
        "households.csv": "fd4f118ff80911aa0a27786ab136244b363073cfa295ab6ef9732237b15a323c",
        "persons.csv": "12fdd685581cea6d2af08923b467ef76a1d6fe7aa4a9a1f867e654b81e4ca56a",
        "sanity_report.json": "1b4a45a53a3e7fbc81de68644346ce3ae7bcb7fa583349ea1556aaed52547b32",
    },
}


TRACT_MARGINALS_PIN = "fee1857dafa0d925a2e0fafa9c397a0581ba04d25e5188f6a9ae8a4bcb8fddb8"

EVALUATE_PINS = {
    "hist_AGEP.csv": "2b6ef56f12eb825da406deffa047a2a7d66d0f3b88333ff3956a348ccd119bdc",
    "hist_EDU.csv": "41a23b9fa4d21754e4bd5ccd66f7379bcb6beb37c7c48e0426d30bc0dd2f48f8",
    "hist_R65.csv": "19ca366f789c2a7097a111d39ba1be36d8dbb2a8c0f74023933affd602d2b009",
    "hist_TEN.csv": "315005db5eb1ab2ecd93e4216a2b133b72d77363f74306516569e10fb2ca8077",
    "hist_VEH.csv": "e40679c1e9fc887ee89ca643617a86463a80135b56b9058c58a3b078b107391e",
    "joint_chi2_p.csv": "d9bf7eb86263277607cc66b0473d1b4f4c9c6c58736494a3774a5c42ee0eae68",
    "joint_kl.csv": "df54abf18f5f72c86cc221629a43e1609b2a92b25a79145bc0f1893f03ce4aab",
    "joint_rmse.csv": "f8e844d9a72213f3017c91d0bc163d8930e59b14a2deef31b9550a0517466ad3",
    "marginals_report.csv": "d7030a7ffd003e2e619b88a938162684493ba264270b3e313a5a9d7cd850ae2d",
    "summary.json": "5b8b88fddf8a14f768efb4ddf54bdca0ee516d5afdaa71eb86d47126d937f0b9",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pins")
    assert cli.run(["oracle-make", "--out-dir", str(d), "--households", "60",
                    "--tract-households", "20", "--seed", "11"]) == 0
    return d


def probability_matrix(schema, n_rows, seed):
    """Peaked category distributions per group; the anchor's NA column gets
    a boost in about half of the slots, so some slots decode as padding and
    some rows decode with no person at all."""
    rng = np.random.default_rng(seed)
    groups, d = column_layout(schema)
    x = np.empty((n_rows, d))
    for g in groups:
        block = rng.gamma(0.5, 1.0, size=(n_rows, g.width)) + 1e-3
        if g.slot is not None and g.var == schema.slot_anchor:
            block[:, -1] += 2.0 * (rng.random(n_rows) < 0.5)
        x[:, g.start : g.stop] = block / block.sum(axis=1, keepdims=True)
    return EncodedMatrix(x, groups, schema.fingerprint())


def test_restructure_outputs_are_pinned(oracle_dir, tmp_path):
    assert cli.run(["restructure", "--schema", str(oracle_dir / "schema.json"),
                    "--microdata-hh", str(oracle_dir / "households.csv"),
                    "--microdata-p", str(oracle_dir / "persons.csv"),
                    "--out-dir", str(tmp_path), "--write-encoded"]) == 0
    assert {name: _digest(tmp_path / name) for name in RESTRUCTURE_PINS} == RESTRUCTURE_PINS


def write_decoded_inventory(oracle_dir, out_dir, mode):
    """Decode the fixed probability matrix and write the inventory to out_dir."""
    schema = load_schema(oracle_dir / "schema.json")
    records = load_microdata(oracle_dir / "households.csv", oracle_dir / "persons.csv", schema)
    schema = restructure(records, schema).schema
    matrix = probability_matrix(schema, 50, seed=3)
    table, stats = decode_onehot_with_stats(matrix, schema, mode=mode, seed=17)
    prov = generation.Provenance(mode=mode, forced_na_cells=stats.forced_na_cells)
    inventory = generation.inventory_from_table(table, prov)
    generation.write_inventory(inventory, out_dir)
    return inventory, stats


@pytest.mark.parametrize("mode", sorted(INVENTORY_PINS))
def test_decoded_inventory_is_pinned(oracle_dir, tmp_path, mode):
    inventory, stats = write_decoded_inventory(oracle_dir, tmp_path, mode)
    report = generation.sanity_check(inventory, generation.load_rules(oracle_dir / "rules.json"))
    generation.write_sanity_report(report, tmp_path / "sanity_report.json")
    assert 0 < inventory.provenance.dropped_households < 50
    assert stats.forced_na_cells > 0
    got = {name: _digest(tmp_path / name) for name in INVENTORY_PINS[mode]}
    assert got == INVENTORY_PINS[mode]


def test_tract_marginals_are_pinned(oracle_dir):
    assert _digest(oracle_dir / "tract_marginals.csv") == TRACT_MARGINALS_PIN


def test_evaluate_outputs_are_pinned(oracle_dir, tmp_path):
    inv = tmp_path / "inventory"
    inv.mkdir()
    write_decoded_inventory(oracle_dir, inv, "argmax")
    out = tmp_path / "report"
    assert cli.run(["evaluate", "--schema", str(oracle_dir / "schema.json"),
                    "--microdata-hh", str(oracle_dir / "households.csv"),
                    "--microdata-p", str(oracle_dir / "persons.csv"),
                    "--syn-hh", str(inv / "households.csv"),
                    "--syn-p", str(inv / "persons.csv"),
                    "--tract-marginals", str(oracle_dir / "tract_marginals.csv"),
                    "--out-dir", str(out)]) == 0
    got = {p.name: _digest(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    assert got == EVALUATE_PINS

"""sha256 pins of the string and integer outputs of the data plane.

A small oracle dataset goes through ``restructure --write-encoded``, and a
fixed seeded probability matrix is decoded in both modes into an inventory
and a sanity report. None of these files depend on BLAS, so their digests are
fixed: any change to how tables are restructured, encoded, decoded, sorted,
emitted or checked shows up here.
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


@pytest.mark.parametrize("mode", sorted(INVENTORY_PINS))
def test_decoded_inventory_is_pinned(oracle_dir, tmp_path, mode):
    schema = load_schema(oracle_dir / "schema.json")
    records = load_microdata(oracle_dir / "households.csv", oracle_dir / "persons.csv", schema)
    schema = restructure(records, schema).schema
    matrix = probability_matrix(schema, 50, seed=3)
    table, stats = decode_onehot_with_stats(matrix, schema, mode=mode, seed=17)
    prov = generation.Provenance(mode=mode, forced_na_cells=stats.forced_na_cells)
    inventory = generation.inventory_from_table(table, prov)
    generation.write_inventory(inventory, tmp_path)
    report = generation.sanity_check(inventory, generation.load_rules(oracle_dir / "rules.json"))
    generation.write_sanity_report(report, tmp_path / "sanity_report.json")
    assert 0 < inventory.provenance.dropped_households < 50
    assert stats.forced_na_cells > 0
    got = {name: _digest(tmp_path / name) for name in INVENTORY_PINS[mode]}
    assert got == INVENTORY_PINS[mode]

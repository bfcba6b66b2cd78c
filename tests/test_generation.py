import csv
import json
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import load_census_module
from popsynth import generation
from popsynth.generation import (
    Provenance,
    SanityRule,
    decode_latent,
    generate_inventory,
    inventory_from_table,
    load_rules,
    sanity_check,
    write_inventory,
    write_rules,
    write_sanity_report,
)
from popsynth.schema import DataError, HouseholdRecord, load_microdata, restructure
from popsynth.training import TrainConfig, init_latent, pretrain
from popsynth.vae import VaeHyperparams, VaeModel

WIDTHS = (16, 14, 12, 12, 10, 8)


def trained_model(schema, encoded):
    model = VaeModel(schema, VaeHyperparams(3, WIDTHS, 5))
    pretrain(
        model,
        encoded,
        TrainConfig(epochs=30, decay_start=10, seed=2, kl_weight=0.1,
                    focal_gamma=0.0, lr=3e-3),
    )
    return model


def test_inventory_from_table_drops_empty(tiny_schema, tiny_table):
    tiny_table.persons[2] = 3  # NA in every slot of row 2
    kept = inventory_from_table(tiny_table)
    assert kept.n_rows == 3
    # household ids are sequential from 1 after the drop
    assert kept.household_ids == ["1", "2", "3"]
    np.testing.assert_array_equal(kept.persons, tiny_table.persons[[0, 1, 3]])


def test_inventory_referential_integrity(tiny_table, tmp_path):
    paths = write_inventory(inventory_from_table(tiny_table), Provenance(), tmp_path)
    with open(paths["households.csv"]) as fh:
        hh_ids = {row["household_id"] for row in csv.DictReader(fh)}
    with open(paths["persons.csv"]) as fh:
        person_rows = list(csv.DictReader(fh))
    assert all(row["household_id"] in hh_ids for row in person_rows)
    sizes = {hid: 0 for hid in hh_ids}
    for row in person_rows:
        sizes[row["household_id"]] += 1
    occupied = tiny_table.occupied.sum(axis=1).tolist()
    assert sorted(sizes.values()) == sorted(occupied)


def test_generate_inventory_is_deterministic(tiny_schema, tiny_encoded):
    model = trained_model(tiny_schema, tiny_encoded)
    latent = init_latent(20, model.latent_dim, seed=3)
    a, prov = generate_inventory(model, latent)
    b, prov_b = generate_inventory(model, latent)
    assert a.schema == model.schema
    assert a.household_ids == b.household_ids
    np.testing.assert_array_equal(a.households, b.households)
    np.testing.assert_array_equal(a.persons, b.persons)
    assert prov == prov_b
    assert prov.model_fingerprint == model.checksum()
    assert prov.latent_seed == 3
    assert prov.n_latent_rows == 20
    assert prov.dropped_households == 20 - a.n_rows


def test_generate_inventory_leaves_model_untouched(tiny_schema, tiny_encoded):
    model = trained_model(tiny_schema, tiny_encoded)
    before = model.checksum()
    generate_inventory(model, init_latent(10, model.latent_dim, seed=1))
    assert model.checksum() == before


def census_shaped_model():
    """The benchmark's census model: 360 columns in 42 groups, widths 48-32."""
    schema = load_census_module().census_schema()
    return VaeModel(schema, VaeHyperparams(3, (48, 48, 40, 40, 32, 32), 1))


def test_decode_in_blocks_has_the_bits_of_one_block(monkeypatch):
    """Forced down to the 512-row block target, 1,537 rows decode in four
    even blocks, none under the 256-row floor, with every bit of one decode
    of the whole matrix: eval-mode layers work row by row, and the GEMMs
    keep their bits on row blocks this tall."""
    model = census_shaped_model()
    z = 2.0 * np.random.default_rng(3).standard_normal((1537, 3))
    whole = model.decode(z, train=False).copy()
    decode, blocks = model.decode, []

    def spy(x, train):
        blocks.append(x.shape[0])
        return decode(x, train=train)

    monkeypatch.setattr(model, "decode", spy)
    monkeypatch.setattr(generation, "DECODE_BLOCK_VALUES", 1)
    probs = decode_latent(model, z)
    assert blocks == [385, 384, 384, 384]
    assert probs.tobytes() == whole.tobytes()

    latent = init_latent(1537, 3, seed=8)
    for mode, seed in (("argmax", None), ("sample", 11)):
        monkeypatch.setattr(generation, "DECODE_BLOCK_VALUES", 1)
        blocked, prov = generate_inventory(model, latent, mode=mode, seed=seed)
        monkeypatch.setattr(generation, "DECODE_BLOCK_VALUES", 2**62)  # one block
        one, prov_one = generate_inventory(model, latent, mode=mode, seed=seed)
        assert blocked.household_ids == one.household_ids
        assert np.array_equal(blocked.households, one.households)
        assert np.array_equal(blocked.persons, one.persons)
        assert prov == prov_one


def test_generate_peak_is_bounded_by_its_blocks():
    """8,000 census-shaped rows: the traced peak of ``generate_inventory`` is
    its probability array, one 500-row block's activations and the decoded
    codes, about 1.6 n*d floats. One decode of the whole matrix holds the
    array's input and two transposed copies in GroupSoftmax too, about
    3.1 n*d."""
    model = census_shaped_model()
    n = 8000
    latent = init_latent(n, model.latent_dim, seed=4)
    generate_inventory(model, init_latent(300, model.latent_dim, seed=5))  # first-call allocations
    tracemalloc.start()
    try:
        table, _ = generate_inventory(model, latent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_rows > 0
    assert peak < 2.2 * n * model.d * 8, peak / (n * model.d * 8)


def test_write_inventory_files(tiny_table, tmp_path):
    kept = inventory_from_table(tiny_table)
    paths = write_inventory(kept, Provenance(mode="argmax", seed=None), tmp_path)
    assert set(paths) == {"households.csv", "persons.csv", "provenance.json"}
    with open(paths["households.csv"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["household_id", "OWN", "CAR"]
    assert len(rows) == 1 + kept.n_rows
    with open(paths["persons.csv"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["person_id", "household_id", "AGE", "JOB"]
    prov = json.loads(open(paths["provenance.json"]).read())
    assert prov["mode"] == "argmax"


def test_inventory_round_trips_through_restructure(tiny_schema, tiny_table, tmp_path):
    write_inventory(inventory_from_table(tiny_table), Provenance(), tmp_path)
    records = load_microdata(tmp_path / "households.csv", tmp_path / "persons.csv", tiny_schema)
    table2 = restructure(records, tiny_schema)
    np.testing.assert_array_equal(table2.households, tiny_table.households)
    np.testing.assert_array_equal(table2.persons, tiny_table.persons)


def test_failed_inventory_write_keeps_the_old_file(tiny_table, tmp_path, monkeypatch):
    write_inventory(inventory_from_table(tiny_table), Provenance(), tmp_path)
    old = (tmp_path / "households.csv").read_bytes()
    tiny_table.households[:, 0] = 1 - tiny_table.households[:, 0]

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        write_inventory(inventory_from_table(tiny_table), Provenance(), tmp_path)
    assert (tmp_path / "households.csv").read_bytes() == old


# -- sanity rules ------------------------------------------------------------


@pytest.fixture
def senior_rule():
    return SanityRule(
        id="old_flag",
        household_var="OWN",
        household_value="yes",
        person_var="AGE",
        person_categories=("old",),
        direction="both",
    )


def fixture_records():
    """20 households; exactly one violation of each kind planted."""
    recs = []
    for i in range(9):
        recs.append(
            HouseholdRecord(f"ok{i}", ("yes", "0"), [("old", "none")])
        )
    for i in range(9):
        recs.append(
            HouseholdRecord(f"no{i}", ("no", "1"), [("adult", "full")])
        )
    # flag set but no senior member
    recs.append(HouseholdRecord("bad_flag", ("yes", "0"), [("kid", "none")]))
    # senior member but flag missing
    recs.append(HouseholdRecord("bad_member", ("no", "0"), [("old", "part")]))
    return recs


def test_sanity_check_finds_planted_violations(tiny_schema, senior_rule):
    table = restructure(fixture_records(), tiny_schema)
    report = sanity_check(table, [senior_rule])
    hits = report.violations["old_flag"]
    assert ("bad_flag", "flag_without_member") in hits
    assert ("bad_member", "member_without_flag") in hits
    assert len(hits) == 2
    assert report.total_households == 20


def test_sanity_check_clean_table(tiny_schema, senior_rule):
    table = restructure(fixture_records()[:18], tiny_schema)
    report = sanity_check(table, [senior_rule])
    assert report.violations["old_flag"] == []


def test_sanity_check_direction_one_way(tiny_schema, senior_rule):
    from dataclasses import replace

    table = restructure(fixture_records(), tiny_schema)
    only_flag = replace(senior_rule, direction="flag_implies_member")
    hits = sanity_check(table, [only_flag]).violations["old_flag"]
    assert hits == [("bad_flag", "flag_without_member")]


def test_sanity_check_ignores_padding(tiny_schema):
    # JOB NA is an answer of an occupied slot; a padding slot is no member
    rule = SanityRule("job_na", "OWN", "yes", "JOB", ("NA",), "member_implies_flag")
    table = restructure(
        [
            HouseholdRecord("pad", ("no", "0"), [("old", "none")]),
            HouseholdRecord("real", ("no", "0"), [("kid", "NA")]),
        ],
        tiny_schema,
    )
    hits = sanity_check(table, [rule]).violations["job_na"]
    assert hits == [("real", "member_without_flag")]


def test_sanity_check_unknown_variable(tiny_schema, senior_rule):
    from dataclasses import replace

    table = restructure(fixture_records()[:2], tiny_schema)
    bad = replace(senior_rule, household_var="NOPE")
    with pytest.raises(DataError):
        sanity_check(table, [bad])


def test_sanity_check_works_on_inventory(tiny_schema, senior_rule):
    table = restructure(fixture_records(), tiny_schema)
    report = sanity_check(inventory_from_table(table), [senior_rule])
    assert sum(len(v) for v in report.violations.values()) == 2


def test_rules_file_round_trip(senior_rule, tmp_path):
    p = tmp_path / "rules.json"
    write_rules([senior_rule], p)
    back = load_rules(p)
    assert back == [senior_rule]


def test_load_rules_rejects_bad_direction(tmp_path):
    p = tmp_path / "rules.json"
    p.write_text(
        json.dumps(
            {
                "rules": [
                    {
                        "id": "r",
                        "household_var": "OWN",
                        "household_value": "yes",
                        "person_var": "AGE",
                        "person_categories": ["old"],
                        "direction": "sideways",
                    }
                ]
            }
        )
    )
    with pytest.raises(DataError, match="direction must be one of"):
        load_rules(p)


def test_rules_file_keys_are_the_rule_fields(senior_rule, tmp_path):
    p = tmp_path / "rules.json"
    write_rules([senior_rule], p)
    [entry] = json.loads(p.read_text())["rules"]
    assert list(entry) == [f.name for f in fields(SanityRule)]


# the file form of ``senior_rule``, which leaves ``direction`` to its default
RULE = {"id": "old_flag", "household_var": "OWN", "household_value": "yes",
        "person_var": "AGE", "person_categories": ["old"]}


def test_rules_file_without_direction_checks_both_ways(senior_rule, tmp_path):
    p = tmp_path / "rules.json"
    p.write_text(json.dumps({"rules": [RULE]}))
    assert load_rules(p) == [senior_rule]


# (file, message): each of these files was once read without an error, and
# checked a misspelt rule both ways or dropped a repeated rule's results
STRICT_RULES = {
    "unknown key": ({"rules": [RULE | {"directon": "flag_implies_member"}]},
                    "unknown rule key(s) ['directon']"),
    "missing key": ({"rules": [{k: v for k, v in RULE.items() if k != "person_var"}]},
                    "a rule lacks key(s) ['person_var']"),
    "top-level list": ([RULE], 'the file must be one object {"rules": [...]}'),
    "second top-level key": ({"rules": [RULE], "version": 1},
                             'the file must be one object {"rules": [...]}'),
    "repeated id": ({"rules": [RULE, RULE | {"person_var": "JOB", "person_categories": ["full"]}]},
                    "rule id 'old_flag' is used more than once"),
}


@pytest.mark.parametrize("case", sorted(STRICT_RULES))
def test_load_rules_is_strict(tmp_path, case):
    content, message = STRICT_RULES[case]
    p = tmp_path / "rules.json"
    p.write_text(json.dumps(content))
    with pytest.raises(DataError) as caught:
        load_rules(p)
    assert str(caught.value) == f"rules file {p}: {message}"


WRONG_RULE_TYPES = {
    "categories-a-string": ("person_categories", "old"),
    "categories-not-strings": ("person_categories", ["old", 3]),
    "id-a-number": ("id", 5),
    "household-var-null": ("household_var", None),
    "household-value-a-bool": ("household_value", True),
    "person-var-a-list": ("person_var", ["AGE"]),
    "direction-a-number": ("direction", 1),
}


@pytest.mark.parametrize("case", sorted(WRONG_RULE_TYPES))
def test_load_rules_rejects_a_field_of_the_wrong_type(senior_rule, tmp_path, case):
    key, value = WRONG_RULE_TYPES[case]
    p = tmp_path / "rules.json"
    write_rules([senior_rule], p)
    raw = json.loads(p.read_text())
    raw["rules"][0][key] = value
    p.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=f"'{key}' must be a"):
        load_rules(p)


def test_sanity_report_file(tiny_schema, senior_rule, tmp_path):
    table = restructure(fixture_records(), tiny_schema)
    report = sanity_check(table, [senior_rule])
    p = tmp_path / "sanity.json"
    write_sanity_report(report, p)
    payload = json.loads(p.read_text())
    assert payload["total_households"] == 20
    assert sum(payload["counts"].values()) == 2
    assert payload["rates"]["old_flag"] == pytest.approx(0.1)

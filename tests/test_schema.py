import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popsynth.schema import (
    DataError,
    EncodedMatrix,
    HouseholdRecord,
    Schema,
    SchemaError,
    Variable,
    column_layout,
    decode_onehot_with_stats,
    empirical_marginals,
    encode_onehot,
    load_microdata,
    load_schema,
    load_target_marginals,
    marginal_counts,
    restructure,
    write_encoded,
    write_restructured,
    write_schema,
    write_target_marginals,
)
from popsynth.evaluation import _pair_counts

# tiny schema codes: OWN yes=0 no=1; CAR 0=0 1=1 2+=2;
# AGE kid=0 adult=1 old=2 NA=3; JOB none=0 part=1 full=2 NA=3


def decode(matrix, schema, **kwargs):
    return decode_onehot_with_stats(matrix, schema, **kwargs)[0]


def same_table(a, b):
    return (
        np.array_equal(a.households, b.households)
        and np.array_equal(a.persons, b.persons)
    )


def record_codes(schema, persons):
    """Sorted code tuples of a list of person string tuples."""
    return sorted(
        tuple(v.index(x) for v, x in zip(schema.person_vars, p)) for p in persons
    )


def occupied_codes(table, row):
    return sorted(map(tuple, table.persons[row][table.occupied[row]].tolist()))


def test_schema_rejects_household_na():
    with pytest.raises(SchemaError):
        Schema(
            household_vars=(Variable("H", ("a", "NA")),),
            person_vars=(Variable("P", ("x", "NA"), has_na=True),),
        )


def test_schema_rejects_person_without_na():
    with pytest.raises(SchemaError):
        Schema(
            household_vars=(Variable("H", ("a", "b")),),
            person_vars=(Variable("P", ("x", "y")),),
        )


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema(
            household_vars=(Variable("X", ("a", "b")),),
            person_vars=(Variable("X", ("x", "NA"), has_na=True),),
        )


def test_schema_defaults_sort_keys_and_anchor():
    s = Schema(
        household_vars=(Variable("H", ("a", "b")),),
        person_vars=(
            Variable("P", ("x", "y", "NA"), has_na=True),
            Variable("Q", ("u", "NA"), has_na=True),
        ),
    )
    assert s.sort_keys == ("P", "Q")
    assert s.slot_anchor == "P"


def test_fingerprint_changes_with_n_window(tiny_schema):
    assert tiny_schema.fingerprint() != tiny_schema.with_n_window(5).fingerprint()


def test_column_layout_contiguous(tiny_schema):
    groups, d = column_layout(tiny_schema)
    assert groups[0].start == 0
    for a, b in zip(groups, groups[1:]):
        assert a.stop == b.start
    assert groups[-1].stop == d
    # household vars first, then slot 0, slot 1
    assert [g.slot for g in groups] == [None, None, 0, 0, 1, 1]
    assert d == 2 + 3 + 2 * (4 + 4)


def test_restructure_sorts_persons_descending(tiny_schema):
    rec = HouseholdRecord("h", ("yes", "0"), [("kid", "none"), ("old", "full")])
    table = restructure([rec], tiny_schema)
    assert table.persons[0].tolist() == [[2, 2], [0, 0]]  # (old, full), (kid, none)


def test_restructure_sort_breaks_ties_with_second_key(tiny_schema):
    rec = HouseholdRecord("h", ("yes", "0"), [("adult", "part"), ("adult", "full")])
    table = restructure([rec], tiny_schema)
    assert table.persons[0].tolist() == [[1, 2], [1, 1]]  # (adult, full), (adult, part)


def test_restructure_round_trip(tiny_schema, tiny_records):
    table = restructure(tiny_records, tiny_schema)
    assert table.household_ids == [r.household_id for r in tiny_records]
    # (yes, 2+), (no, 0), (no, 1), (yes, 0)
    assert table.households.tolist() == [[0, 2], [1, 0], [1, 1], [0, 0]]
    for row, orig in enumerate(tiny_records):
        assert occupied_codes(table, row) == record_codes(tiny_schema, orig.persons)


def test_restructure_resolves_open_n_window(tiny_records):
    s = Schema(
        household_vars=(Variable("OWN", ("yes", "no")), Variable("CAR", ("0", "1", "2+"))),
        person_vars=(
            Variable("AGE", ("kid", "adult", "old", "NA"), has_na=True),
            Variable("JOB", ("none", "part", "full", "NA"), has_na=True),
        ),
    )
    table = restructure(tiny_records, s)
    assert table.schema.n_window == 2


def test_restructure_rejects_oversized_household(tiny_schema):
    rec = HouseholdRecord(
        "big", ("yes", "0"), [("kid", "none")] * (tiny_schema.n_window + 1)
    )
    with pytest.raises(DataError):
        restructure([rec], tiny_schema)


def test_restructure_accepts_empty_household(tiny_schema):
    table = restructure([HouseholdRecord("h", ("yes", "0"), [])], tiny_schema)
    assert table.persons[0].tolist() == [[3, 3], [3, 3]]
    assert not table.occupied[0].any()


def test_encode_rejects_unknown_category(tiny_schema):
    # the encoder reads codes; a category is checked where restructure codes it
    with pytest.raises(DataError, match="maybe"):
        restructure([HouseholdRecord("h", ("maybe", "0"), [("kid", "none")])], tiny_schema)
    with pytest.raises(DataError, match="teen"):
        restructure([HouseholdRecord("h", ("yes", "0"), [("teen", "none")])], tiny_schema)


def test_encode_rows_are_group_one_hot(tiny_encoded):
    x = tiny_encoded.values
    assert set(np.unique(x)) <= {0.0, 1.0}
    for g in tiny_encoded.groups:
        np.testing.assert_array_equal(x[:, g.start : g.stop].sum(axis=1), 1.0)


def test_encode_decode_identity(tiny_schema, tiny_table, tiny_encoded):
    back = decode(tiny_encoded, tiny_schema)
    assert same_table(back, tiny_table)


def test_decode_argmax_is_onehot_fixed_point(tiny_schema, tiny_encoded, rng):
    # blend toward uniform keeps every argmax; decode must ignore the noise
    soft = tiny_encoded.values.copy()
    for g in tiny_encoded.groups:
        block = soft[:, g.start : g.stop]
        mix = rng.uniform(0.0, 0.4)
        soft[:, g.start : g.stop] = (1 - mix) * block + mix / g.width
    jittered = EncodedMatrix(soft, tiny_encoded.groups, tiny_encoded.schema_fingerprint)
    a = decode(jittered, tiny_schema)
    b = decode(tiny_encoded, tiny_schema)
    assert same_table(a, b)


def test_decode_forces_na_alignment(tiny_schema, tiny_table):
    # slot 1 of row "h2" is padding; make its JOB block point at "full"
    enc = encode_onehot(tiny_table)
    x = enc.values.copy()
    job_slot1 = [g for g in enc.groups if g.var == "JOB" and g.slot == 1][0]
    row = tiny_table.household_ids.index("h2")
    x[row, job_slot1.start : job_slot1.stop] = 0.0
    x[row, job_slot1.start + 2] = 1.0
    table, stats = decode_onehot_with_stats(
        EncodedMatrix(x, enc.groups, enc.schema_fingerprint), tiny_schema
    )
    assert not table.occupied[row, 1]
    assert table.persons[row, 1].tolist() == [3, 3]
    assert stats.forced_na_cells == 1


def test_decode_sample_mode_deterministic(tiny_schema, tiny_encoded):
    a = decode(tiny_encoded, tiny_schema, mode="sample", seed=7)
    b = decode(tiny_encoded, tiny_schema, mode="sample", seed=7)
    assert same_table(a, b)


def test_marginal_counts_match_hand_tally(tiny_table):
    counts = marginal_counts(tiny_table)
    assert list(counts) == ["OWN", "CAR", "AGE", "JOB"]
    np.testing.assert_array_equal(counts["OWN"], [2, 2])
    np.testing.assert_array_equal(counts["CAR"], [2, 1, 1])
    np.testing.assert_array_equal(counts["AGE"], [1, 3, 2])
    np.testing.assert_array_equal(counts["JOB"], [2, 2, 2])


def test_empirical_marginals_are_proportions(tiny_table):
    m = empirical_marginals(tiny_table)
    assert {k: v.size for k, v in m.proportions.items()} == {"OWN": 2, "CAR": 3, "AGE": 3, "JOB": 3}
    for v in m.proportions.values():
        assert v.sum() == pytest.approx(1.0)
    assert m.n_households == 4
    assert m.n_persons == 6


def test_schema_file_round_trip(tiny_schema, tmp_path):
    p = tmp_path / "schema.json"
    write_schema(tiny_schema, p)
    assert load_schema(p) == tiny_schema


def test_load_schema_appends_na(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(
        '{"household": [{"name": "H", "categories": ["a"]}],'
        ' "person": [{"name": "P", "categories": ["x", "y"]}]}'
    )
    s = load_schema(p)
    assert s.person_var("P").categories == ("x", "y", "NA")
    assert s.person_var("P").has_na


def test_load_microdata_round_trip(tiny_schema, tiny_records, tmp_path):
    hh = tmp_path / "households.csv"
    pp = tmp_path / "persons.csv"
    hh.write_text(
        "household_id,OWN,CAR\n"
        + "".join(f"{r.household_id},{r.values[0]},{r.values[1]}\n" for r in tiny_records)
    )
    pp.write_text(
        "household_id,AGE,JOB\n"
        + "".join(
            f"{r.household_id},{p[0]},{p[1]}\n" for r in tiny_records for p in r.persons
        )
    )
    records = load_microdata(hh, pp, tiny_schema)
    assert [r.household_id for r in records] == [r.household_id for r in tiny_records]


def test_load_microdata_rejects_orphan_person(tiny_schema, tmp_path):
    hh = tmp_path / "households.csv"
    pp = tmp_path / "persons.csv"
    hh.write_text("household_id,OWN,CAR\nh1,yes,0\n")
    pp.write_text("household_id,AGE,JOB\nh1,kid,none\nh9,kid,none\n")
    with pytest.raises(DataError):
        load_microdata(hh, pp, tiny_schema)


def test_load_microdata_rejects_short_row(tiny_schema, tmp_path):
    hh = tmp_path / "households.csv"
    pp = tmp_path / "persons.csv"
    hh.write_text("household_id,OWN,CAR\nh1,yes,0\n\nh2,no\n")
    pp.write_text("household_id,AGE,JOB\nh1,kid,none\n")
    with pytest.raises(DataError, match="line 4 has fewer fields"):
        load_microdata(hh, pp, tiny_schema)


def test_target_marginals_round_trip(tiny_schema, tiny_table, tmp_path):
    m = empirical_marginals(tiny_table)
    p = tmp_path / "targets.csv"
    write_target_marginals(m, tiny_schema, p)
    back = load_target_marginals(p, tiny_schema)
    assert back.n_households == m.n_households
    assert list(back.proportions) == list(m.proportions)
    for k, v in m.proportions.items():
        np.testing.assert_allclose(back.proportions[k], v)


def test_target_marginals_accepts_counts(tiny_schema, tmp_path):
    p = tmp_path / "targets.csv"
    p.write_text(
        "variable,category,count_or_proportion\n"
        "OWN,yes,30\nOWN,no,10\n"
        "CAR,0,20\nCAR,1,10\nCAR,2+,10\n"
        "AGE,kid,25\nAGE,adult,50\nAGE,old,25\n"
        "JOB,none,40\nJOB,part,30\nJOB,full,30\n"
        "__n_households__,,40\n"
    )
    t = load_target_marginals(p, tiny_schema)
    np.testing.assert_allclose(t.proportions["OWN"], [0.75, 0.25])
    np.testing.assert_allclose(t.proportions["AGE"], [0.25, 0.5, 0.25])
    assert t.n_households == 40


def test_write_restructured_format(tiny_table, tmp_path):
    p = tmp_path / "rows.csv"
    write_restructured(tiny_table, p)
    header = p.read_text().splitlines()[0].split(",")
    assert header[0] == "household_id"
    assert "AGE__s0" in header and "JOB__s1" in header


def test_write_encoded_formats_every_value(tiny_schema, tiny_encoded, tmp_path):
    """Each distinct value is formatted once: -0.0 keeps its sign, and every
    other cell prints exactly as formatting it on its own would."""
    values = tiny_encoded.values.copy()
    values[0, :4] = [-0.0, 0.125, 1e-300, np.nan]
    values[1, :2] = [0.125, -0.0]
    p = tmp_path / "encoded.csv"
    write_encoded(EncodedMatrix(values, tiny_encoded.groups, ""), tiny_schema, p)
    header, *rows = p.read_text().splitlines()
    assert header.split(",")[:3] == ["OWN=yes", "OWN=no", "CAR=0"]
    assert rows == [",".join(f"{v:.12g}" for v in row) for row in values]
    assert rows[0].startswith("-0,0.125,1e-300,nan,")


@st.composite
def household_batches(draw):
    sizes = draw(st.lists(st.integers(0, 2), min_size=1, max_size=6))
    recs = []
    # few categories, so sort keys often tie
    for i, size in enumerate(sizes):
        own = draw(st.sampled_from(["yes", "no"]))
        car = draw(st.sampled_from(["0", "1", "2+"]))
        persons = [
            (
                draw(st.sampled_from(["kid", "adult", "old"])),
                draw(st.sampled_from(["none", "part", "full", "NA"])),
            )
            for _ in range(size)
        ]
        recs.append(HouseholdRecord(f"h{i}", (own, car), persons))
    return recs


def brute_pair_counts(schema, recs, var_a, var_b):
    """Pair counts straight from the records: households for two household
    variables, otherwise persons with no NA in the pair."""
    variables = schema.household_vars + schema.person_vars
    names = [v.name for v in variables]
    ka, kb = names.index(var_a), names.index(var_b)
    n_hh = len(schema.household_vars)
    rows = (
        [r.values for r in recs]
        if max(ka, kb) < n_hh
        else [r.values + p for r in recs for p in r.persons]
    )
    va, vb = variables[ka], variables[kb]
    wa, wb = va.width - (ka >= n_hh), vb.width - (kb >= n_hh)
    counts = np.zeros((wa, wb))
    for row in rows:
        ia, ib = va.index(row[ka]), vb.index(row[kb])
        if ia < wa and ib < wb:
            counts[ia, ib] += 1
    return counts


@settings(max_examples=40, deadline=None)
@given(household_batches())
def test_property_encode_decode_round_trip(recs):
    schema = Schema(
        household_vars=(Variable("OWN", ("yes", "no")), Variable("CAR", ("0", "1", "2+"))),
        person_vars=(
            Variable("AGE", ("kid", "adult", "old", "NA"), has_na=True),
            Variable("JOB", ("none", "part", "full", "NA"), has_na=True),
        ),
        n_window=2,
        sort_keys=("AGE", "JOB"),
        slot_anchor="AGE",
    )
    table = restructure(recs, schema)
    back = decode(encode_onehot(table), schema)
    assert same_table(back, table)
    # multisets of persons survive the round trip through sorting
    for row, orig in enumerate(recs):
        assert occupied_codes(back, row) == record_codes(schema, orig.persons)

    counts = marginal_counts(table)
    assert list(counts) == list(schema.household_names + schema.person_names)
    for k, var in enumerate(schema.household_vars):
        brute = [sum(r.values[k] == c for r in recs) for c in var.categories]
        np.testing.assert_array_equal(counts[var.name], brute)
    for k, var in enumerate(schema.person_vars):
        brute = [sum(p[k] == c for r in recs for p in r.persons) for c in var.categories[:-1]]
        np.testing.assert_array_equal(counts[var.name], brute)
    names = schema.household_names + schema.person_names
    for i, var_a in enumerate(names):
        for var_b in names[i + 1 :]:
            np.testing.assert_array_equal(
                _pair_counts(table, var_a, var_b), brute_pair_counts(schema, recs, var_a, var_b)
            )

"""The column-wise table loader: ``load_tables`` reads each CSV pair by
column and codes it without building records; ``restructure`` of
``load_microdata``'s records must give the same tables, and bad input must
raise the same messages in the same order of checks."""

import random

import numpy as np
import pytest

from conftest import load_census_module
from popsynth import cli
from popsynth.schema import (
    DataError,
    load_microdata,
    load_schema,
    load_tables,
    restructure,
    write_schema,
)

HH_HEADER = "household_id,OWN,CAR\n"
P_HEADER = "household_id,AGE,JOB\n"


def write_pair(tmp_path, name, households, persons, hh_header=HH_HEADER, p_header=P_HEADER):
    hh, pp = tmp_path / f"{name}_hh.csv", tmp_path / f"{name}_p.csv"
    hh.write_text(hh_header + "".join(f"{row}\n" for row in households))
    pp.write_text(p_header + "".join(f"{row}\n" for row in persons))
    return hh, pp


def shuffled_persons(tmp_path, name, hh, pp, seed):
    """A copy of the pair whose person rows are in a random order, so that a
    household's persons are no longer adjacent."""
    lines = pp.read_text().splitlines(keepends=True)
    body = lines[1:]
    random.Random(seed).shuffle(body)
    out = tmp_path / f"{name}_shuffled_p.csv"
    out.write_text(lines[0] + "".join(body))
    return hh, out


def tiny_inputs(tmp_path, tiny_schema):
    households = ["h1,yes,2+", "h2,no,0", "h3,no,1", "h4,yes,0", "h5,no,2+"]
    persons = ["h1,adult,full", "h2,old,none", "h1,kid,none", "h3,adult,part",
               "h4,old,part", "h3,adult,full", "h3,kid,NA"]
    pairs = [write_pair(tmp_path, "tiny", households, persons),
             write_pair(tmp_path, "small", ["s1,no,1"], [])]
    return tiny_schema, pairs


def desk_inputs(tmp_path, _):
    out = tmp_path / "desk"
    assert cli.run(["oracle-make", "--out-dir", str(out), "--households", "300",
                    "--tract-households", "60", "--seed", "3"]) == 0
    schema = load_schema(out / "schema.json")
    return schema, [(out / "households.csv", out / "persons.csv")]


def census_inputs(tmp_path, _):
    out = tmp_path / "census"
    load_census_module().write_census(out, 5, 400, 60)
    schema = load_schema(out / "schema.json")
    return schema, [(out / "households.csv", out / "persons.csv")]


@pytest.mark.parametrize("inputs", [tiny_inputs, desk_inputs, census_inputs])
def test_load_tables_equals_restructured_records(inputs, tiny_schema, tmp_path):
    schema, pairs = inputs(tmp_path, tiny_schema)
    pairs.append(shuffled_persons(tmp_path, "x", *pairs[0], seed=1))
    open_window = schema.with_n_window(None)
    records = [load_microdata(hh, p, open_window) for hh, p in pairs]
    pinned = open_window.with_n_window(max(1, *(len(r.persons) for rs in records for r in rs)))
    # an open window is pinned to the largest household of every pair; a
    # pinned window is kept
    for given in (open_window, pinned):
        tables = load_tables(given, *pairs)
        assert len(tables) == len(pairs)
        for table, recs in zip(tables, records):
            expected = restructure(recs, pinned)
            assert table.schema == pinned
            assert table.household_ids == expected.household_ids
            assert type(table.household_ids) is list
            for got, want in ((table.households, expected.households),
                              (table.persons, expected.persons)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
    # a household's persons need not be adjacent in the file
    assert np.array_equal(tables[0].persons, tables[-1].persons)


def test_load_microdata_groups_persons_in_file_order(tiny_schema, tmp_path):
    hh, pp = write_pair(tmp_path, "t", ["h1,yes,0", "h2,no,1"],
                        ["h2,old,none", "h1,kid,none", "h2,adult,full", "h1,old,part"])
    records = load_microdata(hh, pp, tiny_schema)
    assert [(r.household_id, r.values, r.persons) for r in records] == [
        ("h1", ("yes", "0"), [("kid", "none"), ("old", "part")]),
        ("h2", ("no", "1"), [("old", "none"), ("adult", "full")]),
    ]


# (households, persons, message): one defect per case, then cases with two
# defects, where the check that comes first in the loader names its defect
BAD_INPUTS = {
    "duplicate id": (["h1,yes,0", "h2,no,1", "h2,no,0", "h1,yes,1"], [],
                     "duplicate household_id 'h2' in {hh}"),
    "orphan person": (["h1,yes,0"], ["h1,kid,none", "h9,kid,none", "h8,kid,none"],
                      "person row references unknown household_id 'h9' in {p}"),
    "short row": (["h1,yes,0", "", "h2,no"], [],
                  "{hh}: line 4 has fewer fields than the header"),
    "unknown household category": (["h1,yes,0", "h2,maybe,0"], [],
                                   "unknown category 'maybe' for variable 'OWN'"),
    # persons are coded in household order, and variable by variable
    "unknown person category": (["h1,yes,0", "h2,no,0"],
                                ["h2,teen,none", "h1,adult,bogus", "h1,alien,none"],
                                "unknown category 'alien' for variable 'AGE'"),
    "NA anchor": (["h1,yes,0", "h2,no,0"], ["h2,kid,none", "h1,adult,none", "h1,NA,none"],
                  "household 'h1' has a person with NA 'AGE'; "
                  "the anchor variable marks slot occupancy"),
    "over n_window": (["h1,yes,0", "h2,no,0", "h3,no,0"], ["h2,kid,none"] * 3 + ["h3,kid,none"] * 4,
                      "household 'h2' has 3 persons but n_window is 2"),
    "short row before duplicate id": (["h1,yes,0", "h1,no,0"], ["h1,kid"],
                                      "{p}: line 2 has fewer fields than the header"),
    "duplicate id before orphan": (["h1,yes,0", "h1,no,0"], ["h9,kid,none"],
                                   "duplicate household_id 'h1' in {hh}"),
    "orphan before unknown category": (["h1,maybe,0"], ["h9,kid,none"],
                                       "person row references unknown household_id 'h9' in {p}"),
    "n_window before unknown category": (["h1,maybe,0", "h2,no,0"], ["h2,kid,none"] * 3,
                                         "household 'h2' has 3 persons but n_window is 2"),
    "household category before person category": (["h1,maybe,0"], ["h1,teen,none"],
                                                  "unknown category 'maybe' for variable 'OWN'"),
    "unknown category before NA anchor": (["h1,yes,0"], ["h1,NA,none", "h1,kid,bogus"],
                                          "unknown category 'bogus' for variable 'JOB'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_keeps_its_message_and_order(case, tiny_schema, tmp_path):
    households, persons, message = BAD_INPUTS[case]
    hh, p = write_pair(tmp_path, "bad", households, persons)
    expected = message.format(hh=hh, p=p)
    with pytest.raises(DataError) as caught:
        load_tables(tiny_schema, (hh, p))
    assert str(caught.value) == expected
    # the record path raises the same message
    with pytest.raises(DataError) as caught:
        restructure(load_microdata(hh, p, tiny_schema), tiny_schema)
    assert str(caught.value) == expected


def test_every_pair_is_read_before_any_is_coded(tiny_schema, tmp_path):
    first = write_pair(tmp_path, "a", ["h1,maybe,0"], [])
    second = write_pair(tmp_path, "b", ["h1,yes,0", "h2,no"], [])
    with pytest.raises(DataError, match="line 3 has fewer fields"):
        load_tables(tiny_schema, first, second)


# (household lines, person lines, household header, person header, message)
REJECTED = {
    "household row with an extra field": (
        ["h1,yes,0", "h2,no,1,EXTRA"], [], HH_HEADER, P_HEADER,
        "{hh}: line 3 has more fields than the header"),
    "person row with an extra field": (
        ["h1,yes,0"], ["h1,kid,none,2"], HH_HEADER, P_HEADER,
        "{p}: line 2 has more fields than the header"),
    "household header naming a variable twice": (
        ["h1,yes,0,no"], [], "household_id,OWN,CAR,OWN\n", P_HEADER,
        "{hh}: the header names column 'OWN' more than once"),
    "person header naming household_id twice": (
        ["h1,yes,0", "h2,no,0"], ["h1,kid,none,h2"], HH_HEADER, "household_id,AGE,JOB,household_id\n",
        "{p}: the header names column 'household_id' more than once"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_ambiguous_rows_and_headers_are_exit_1(case, tiny_schema, tmp_path, capsys):
    households, persons, hh_header, p_header, message = REJECTED[case]
    hh, p = write_pair(tmp_path, "bad", households, persons, hh_header, p_header)
    expected = message.format(hh=hh, p=p)
    with pytest.raises(DataError) as caught:
        load_tables(tiny_schema, (hh, p))
    assert str(caught.value) == expected
    schema = tmp_path / "schema.json"
    write_schema(tiny_schema, schema)
    capsys.readouterr()
    rc = cli.run(["restructure", "--schema", str(schema), "--microdata-hh", str(hh),
                  "--microdata-p", str(p), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: {expected}\n"
    assert not (tmp_path / "out" / "restructured.csv").exists()

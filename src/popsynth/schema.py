"""Schema handling, microdata ingestion, the coded household table and the one-hot codec.

Data model
----------
A population dataset couples a household table with a person table, joined on
``household_id``. Every variable is categorical, and a cell's code is the
index of its category in the variable's category list. ``restructure`` folds
the persons of each household into that household's row: one row per
household, with ``n_window`` person slots. Slots beyond the household's size
are padding: NA, the reserved last category of every person variable, in
every person variable. Household variables never carry ``NA``.

``RestructuredTable`` holds those rows as integer codes (``households`` is
``n x H``, ``persons`` is ``n x n_window x P``). Category strings exist only
where CSV files are read and written. A slot is occupied iff its anchor code
is not NA; occupied slots come first and are ordered by the schema's sort
keys (descending code per key), so that equivalent households map to
identical rows.

File formats
------------
Schema: JSON object with keys ``household`` and ``person`` (lists of
``{"name": ..., "categories": [...]}``), optional ``n_window`` (defaults to
the observed maximum household size), optional ``person_sort_key`` (name or
list of names, default: first person variable then the rest in schema order)
and optional ``slot_anchor`` (default: first person variable). ``NA`` is
appended to person variables automatically when absent; a person variable
needs at least one other category. Any other key is an error.

Microdata: two CSV files with header rows. The household file needs
``household_id`` plus one column per household variable; the person file needs
``household_id`` plus one column per person variable. Extra columns are
ignored; a header that names a column twice, or a row with more or fewer
fields than the header, is an error. ``load_tables`` reads them by column.

A marginal is one vector per variable over its ``levels``: every category of
a household variable, every category but the trailing ``NA`` of a person
variable (households count households; persons count the persons with a
non-NA value). ``TargetMarginals.proportions`` maps each variable name, in
schema order, to that vector.

Marginal targets: CSV with header ``variable,category,count_or_proportion``,
one row per level, plus a ``__n_households__`` row carrying the tract's
household count (a positive integer; optionally ``__n_persons__``, a
non-negative integer). Counts must be finite and non-negative; they are
normalised to proportions per variable.

Every input file is read whole through ``read_input``, as UTF-8 text or as
bytes. Every file is written through ``write_atomic``: to ``<path>.tmp``,
then renamed over ``path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

NA = "NA"

PROB_SUM_TOL = 1e-6

N_HOUSEHOLDS_KEY = "__n_households__"
N_PERSONS_KEY = "__n_persons__"


class DataError(ValueError):
    """Bad input: a file that cannot be read or decoded, a malformed schema,
    model or latent, data that does not conform to its schema, or a bad
    setting. The one bad-input class: nothing subclasses it, and the CLI
    exits 1 on it."""


@dataclass(frozen=True)
class Variable:
    name: str
    categories: tuple[str, ...]
    has_na: bool = False

    @property
    def width(self) -> int:
        return len(self.categories)

    @property
    def levels(self) -> tuple[str, ...]:
        """The categories a marginal counts: all but the trailing NA."""
        return self.categories[:-1] if self.has_na else self.categories

    @property
    def na_index(self) -> int:
        if not self.has_na:
            raise DataError(f"variable {self.name!r} has no NA category")
        return len(self.categories) - 1

    @cached_property
    def codes(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

    def index(self, value: str) -> int:
        try:
            return self.codes[value]
        except KeyError:
            raise DataError(
                f"unknown category {value!r} for variable {self.name!r}"
            ) from None


@dataclass(frozen=True)
class Schema:
    household_vars: tuple[Variable, ...]
    person_vars: tuple[Variable, ...]
    n_window: int | None = None
    sort_keys: tuple[str, ...] = ()
    slot_anchor: str = ""

    def __post_init__(self):
        if not self.household_vars:
            raise DataError("schema needs at least one household variable")
        if not self.person_vars:
            raise DataError("schema needs at least one person variable")
        names = [v.name for v in self.variables]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise DataError(f"duplicate variable name(s): {sorted(dupes)}")
        for key in ("household_id", "person_id"):  # id columns of the CSV files
            if key in names:
                raise DataError(f"{key!r} is a key column of the CSV files, not a variable name")
        for var in self.variables:
            if not var.categories:
                raise DataError(f"variable {var.name!r} has no categories")
            cats = list(var.categories)
            for c in cats:
                if cats.count(c) > 1:
                    raise DataError(
                        f"duplicate category {c!r} in variable {var.name!r}"
                    )
        for var in self.household_vars:
            if var.has_na or NA in var.categories:
                raise DataError(
                    f"household variable {var.name!r} must not carry an NA category"
                )
        for var in self.person_vars:
            if not var.has_na or var.categories[-1] != NA:
                raise DataError(
                    f"person variable {var.name!r} must carry NA as its last category"
                )
            if var.width == 1:
                raise DataError(f"person variable {var.name!r} has no category besides NA")
        if self.n_window is not None and self.n_window < 1:
            raise DataError("n_window must be >= 1")
        person_names = {v.name for v in self.person_vars}
        if not self.sort_keys:
            object.__setattr__(
                self, "sort_keys", tuple(v.name for v in self.person_vars)
            )
        for key in self.sort_keys:
            if key not in person_names:
                raise DataError(f"sort key {key!r} is not a person variable")
        if not self.slot_anchor:
            object.__setattr__(self, "slot_anchor", self.person_vars[0].name)
        if self.slot_anchor not in person_names:
            raise DataError(
                f"slot anchor {self.slot_anchor!r} is not a person variable"
            )

    # -- lookups ----------------------------------------------------------

    def household_var(self, name: str) -> Variable:
        for v in self.household_vars:
            if v.name == name:
                return v
        raise DataError(f"no household variable named {name!r}")

    def person_var(self, name: str) -> Variable:
        for v in self.person_vars:
            if v.name == name:
                return v
        raise DataError(f"no person variable named {name!r}")

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Household variables, then person variables."""
        return self.household_vars + self.person_vars

    @property
    def household_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.household_vars)

    @property
    def person_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.person_vars)

    def with_n_window(self, n_window: int) -> Schema:
        return replace(self, n_window=n_window)

    def fingerprint(self) -> str:
        """Stable hex digest of the full schema definition."""
        payload = {
            "household": [[v.name, list(v.categories)] for v in self.household_vars],
            "person": [[v.name, list(v.categories)] for v in self.person_vars],
            "n_window": self.n_window,
            "sort_keys": list(self.sort_keys),
            "slot_anchor": self.slot_anchor,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ColumnGroup:
    """One variable's block of one-hot columns; slot is None for household vars."""

    var: str
    slot: int | None
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width


def column_layout(schema: Schema) -> tuple[tuple[ColumnGroup, ...], int]:
    """Column groups in row order: household variables, then slot 0..n-1."""
    if schema.n_window is None:
        raise DataError("cannot lay out columns while n_window is unresolved")
    groups = []
    start = 0
    for var in schema.household_vars:
        groups.append(ColumnGroup(var.name, None, start, var.width))
        start += var.width
    for slot in range(schema.n_window):
        for var in schema.person_vars:
            groups.append(ColumnGroup(var.name, slot, start, var.width))
            start += var.width
    return tuple(groups), start


@dataclass
class HouseholdRecord:
    household_id: str
    values: tuple[str, ...]
    persons: list[tuple[str, ...]]


@dataclass
class RestructuredTable:
    """One row per household, as category codes.

    ``households[i, k]`` is the code of household variable k in row i and
    ``persons[i, s, k]`` the code of person variable k in slot s. Padding
    slots are NA in every person variable; occupied slots precede padding
    and are sorted by the schema's sort keys.
    """

    schema: Schema
    household_ids: list[str]
    households: np.ndarray
    persons: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.household_ids)

    @property
    def occupied(self) -> np.ndarray:
        """(n, n_window) mask of the slots whose anchor is not NA."""
        k = self.schema.person_names.index(self.schema.slot_anchor)
        return self.persons[:, :, k] != self.schema.person_vars[k].na_index

    @property
    def codes(self) -> np.ndarray:
        """All codes of a row in column-group order (see ``column_layout``)."""
        n, w, p = self.persons.shape
        return np.hstack([self.households, self.persons.reshape(n, w * p)])

    def person_codes(self) -> np.ndarray:
        """One row per occupied slot, in row then slot order: the household's
        codes followed by the person's."""
        rows, slots = np.nonzero(self.occupied)
        return np.hstack([self.households[rows], self.persons[rows, slots]])


@dataclass
class EncodedMatrix:
    """Rows in the column layout of ``schema``: one-hot codes, or a category
    distribution per column group."""

    values: np.ndarray
    schema: Schema

    @property
    def groups(self) -> tuple[ColumnGroup, ...]:
        return column_layout(self.schema)[0]

    @property
    def d(self) -> int:
        return column_layout(self.schema)[1]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


@dataclass
class TargetMarginals:
    """Per-variable proportions over ``Variable.levels``, in schema order."""

    proportions: dict[str, np.ndarray]
    n_households: int
    n_persons: int | None = None


# ---------------------------------------------------------------------------
# loaders


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def schema_from_dict(raw) -> Schema:
    """The schema a parsed schema file or model header describes. This
    checks the JSON types and appends NA to a person variable that lacks it;
    ``Schema`` checks every structural rule. A key the format does not
    define is an error, not ignored."""
    if not isinstance(raw, dict):
        raise DataError("schema must be a JSON object")
    unknown = raw.keys() - {"household", "person", "n_window", "person_sort_key", "slot_anchor"}
    if unknown:
        raise DataError(f"unknown schema key(s) {sorted(unknown)}")

    def build(section, is_person):
        entries = raw.get(section)
        if not isinstance(entries, list):
            raise DataError(f"schema section {section!r} must be a list")
        out = []
        for entry in entries:
            if not isinstance(entry, dict) or not {"name"} <= entry.keys() <= {"name", "categories"}:
                raise DataError(f"malformed entry in section {section!r}: {entry!r}")
            name = entry["name"]
            if not isinstance(name, str):
                raise DataError(f"variable name {name!r} in section {section!r} must be a string")
            cats = entry.get("categories", [])
            if not _strings(cats):
                raise DataError(f"categories of {name!r} must be a list of strings")
            if is_person and NA not in cats:
                cats = [*cats, NA]
            out.append(Variable(name, tuple(cats), has_na=is_person))
        return tuple(out)

    sort_key = raw.get("person_sort_key", [])
    if isinstance(sort_key, str):
        sort_key = [sort_key]
    if not _strings(sort_key):
        raise DataError("person_sort_key must be a string or a list of strings")
    n_window = raw.get("n_window")
    if n_window is not None and type(n_window) is not int:  # "3", 2.5 and true included
        raise DataError(f"n_window must be an integer, not {n_window!r}")
    slot_anchor = raw.get("slot_anchor", "")
    if not isinstance(slot_anchor, str):
        raise DataError(f"slot_anchor must be a string, not {slot_anchor!r}")
    return Schema(
        household_vars=build("household", is_person=False),
        person_vars=build("person", is_person=True),
        n_window=n_window,
        sort_keys=tuple(sort_key),
        slot_anchor=slot_anchor,
    )


def schema_dict(schema: Schema) -> dict:
    """The JSON object of a schema file; ``schema_from_dict`` inverts it."""
    return {
        "n_window": schema.n_window,
        "person_sort_key": list(schema.sort_keys),
        "slot_anchor": schema.slot_anchor,
        "household": [
            {"name": v.name, "categories": list(v.categories)}
            for v in schema.household_vars
        ],
        "person": [
            {"name": v.name, "categories": list(v.categories)}
            for v in schema.person_vars
        ],
    }


def read_input(path, text: bool = True) -> str | bytes:
    """The whole input file at ``path``, as UTF-8 text or as bytes. A file
    that cannot be read or is not UTF-8 text is a ``DataError`` naming it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        return blob.decode("utf-8") if text else blob
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_schema(path) -> Schema:
    try:
        raw = json.loads(read_input(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"could not parse schema file {path}: {exc}") from None
    return schema_from_dict(raw)


def write_schema(schema: Schema, path) -> None:
    write_text(path, json.dumps(schema_dict(schema), indent=2) + "\n")


def _read_rows(path, required: list[str]) -> list[tuple[str, ...]]:
    """The ``required`` columns of every non-blank row, as tuples. A header
    that names a column twice, or a row with more or fewer fields than the
    header, is an error."""
    reader = csv.reader(io.StringIO(read_input(path), newline=""))
    header = next(reader, [])
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: missing column(s) {missing}")
    twice = [c for c, k in Counter(header).items() if k > 1]
    if twice:
        raise DataError(f"{path}: the header names column {twice[0]!r} more than once")
    pick = itemgetter(*(header.index(c) for c in required))
    rows = []
    for row in reader:
        if len(row) != len(header):
            if not row:
                continue
            which = "more" if len(row) > len(header) else "fewer"
            raise DataError(f"{path}: line {reader.line_num} has {which} fields than the header")
        rows.append(pick(row))
    return rows


def _columns(rows, width: int) -> list[tuple]:
    """``rows`` of ``width`` fields as ``width`` column tuples."""
    return list(zip(*rows)) or [()] * width


def _read_microdata(household_path, person_path, schema: Schema):
    """One CSV pair by column: the household ids, the household variables'
    columns, each person row's household index and the person variables'
    columns. Ids are validated here, categories where ``_code`` codes them."""
    hid, *households = _columns(
        _read_rows(household_path, ["household_id", *schema.household_names]),
        1 + len(schema.household_vars),
    )
    pid, *persons = _columns(
        _read_rows(person_path, ["household_id", *schema.person_names]),
        1 + len(schema.person_vars),
    )
    index = dict(zip(hid, range(len(hid))))
    if len(index) < len(hid):
        seen = set()
        twice = next(h for h in hid if h in seen or seen.add(h))
        raise DataError(f"duplicate household_id {twice!r} in {household_path}")
    owner = np.fromiter(map(index.get, pid, repeat(-1)), np.intp, len(pid))
    if (owner < 0).any():
        raise DataError(
            f"person row references unknown household_id {pid[np.argmax(owner < 0)]!r} "
            f"in {person_path}"
        )
    return list(hid), households, owner, persons


def load_microdata(household_path, person_path, schema: Schema) -> list[HouseholdRecord]:
    """Read and join the two microdata tables as records; validates ids.
    Categories are checked where ``restructure`` codes them. ``load_tables``
    reads the same files without building records."""
    ids, households, owner, persons = _read_microdata(household_path, person_path, schema)
    records = [HouseholdRecord(h, values, []) for h, values in zip(ids, zip(*households))]
    for i, person in zip(owner.tolist(), zip(*persons)):
        records[i].persons.append(person)
    return records


# ---------------------------------------------------------------------------
# restructuring


class _Coded(NamedTuple):
    """One table's codes before its persons take slots."""

    ids: list[str]
    sizes: np.ndarray  # persons per household
    households: np.ndarray  # (n, H)
    people: np.ndarray  # (m, P), grouped by household, in input order within one
    unknown: str | None  # the error naming the first unknown category


def _code_columns(variables, columns, order: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Codes of string columns, one dict lookup per cell, with the rows taken
    in ``order``; an unknown category codes as -1. Also the error that names
    the first unknown category, variable by variable, in that row order."""
    codes = np.empty((len(order), len(variables)), dtype=np.int64)
    for k, (var, column) in enumerate(zip(variables, columns)):
        codes[:, k] = np.fromiter(map(var.codes.get, column, repeat(-1)), np.int64, len(order))
    codes = codes[order]
    for var, column, code in zip(variables, columns, codes.T):
        bad = np.flatnonzero(code < 0)
        if bad.size:
            return codes, f"unknown category {column[order[bad[0]]]!r} for variable {var.name!r}"
    return codes, None


def _code(schema: Schema, ids, households, owner: np.ndarray, persons) -> _Coded:
    """Code one table's columns; person rows are grouped by ``owner``, their
    household's index, with a stable sort."""
    households, unknown = _code_columns(schema.household_vars, households, np.arange(len(ids)))
    people, person_unknown = _code_columns(
        schema.person_vars, persons, np.argsort(owner, kind="stable")
    )
    sizes = np.bincount(owner, minlength=len(ids))
    return _Coded(ids, sizes, households, people, unknown or person_unknown)


def _sort_slots(persons: np.ndarray, schema: Schema) -> np.ndarray:
    """Reorder each row's slots: occupied first, then descending code per
    sort key; the sort is stable, so full ties keep their slot order."""
    names = schema.person_names
    anchor = names.index(schema.slot_anchor)
    keys = [-persons[:, :, names.index(k)] for k in reversed(schema.sort_keys)]
    keys.append(persons[:, :, anchor] == schema.person_vars[anchor].na_index)
    order = np.lexsort(keys, axis=-1)
    return np.take_along_axis(persons, order[:, :, None], axis=1)


def _fold(coded: _Coded, schema: Schema) -> RestructuredTable:
    """Fold each household's persons into its row of ``schema.n_window``
    slots. A household larger than the window, an unknown category and a
    person with an NA anchor are errors, checked in that order."""
    sizes = coded.sizes
    if int(sizes.max(initial=0)) > schema.n_window:
        i = int(np.argmax(sizes > schema.n_window))
        raise DataError(
            f"household {coded.ids[i]!r} has {int(sizes[i])} "
            f"persons but n_window is {schema.n_window}"
        )
    if coded.unknown:
        raise DataError(coded.unknown)
    owner = np.repeat(np.arange(len(coded.ids)), sizes)
    anchor = schema.person_names.index(schema.slot_anchor)
    unanchored = coded.people[:, anchor] == schema.person_vars[anchor].na_index
    if unanchored.any():
        raise DataError(
            f"household {coded.ids[owner[np.argmax(unanchored)]]!r} has a "
            f"person with NA {schema.slot_anchor!r}; the anchor variable marks slot occupancy"
        )
    persons = np.empty((len(coded.ids), schema.n_window, len(schema.person_vars)), np.int64)
    persons[:] = [v.na_index for v in schema.person_vars]
    # each person goes to the next free slot of its household, then rows are sorted
    first = np.cumsum(sizes) - sizes
    persons[owner, np.arange(owner.size) - first[owner]] = coded.people
    return RestructuredTable(schema, coded.ids, coded.households, _sort_slots(persons, schema))


def restructure(records: list[HouseholdRecord], schema: Schema) -> RestructuredTable:
    """Fold person records into one fixed-width row of codes per household.

    This is where category strings become codes, so an unknown category is a
    ``DataError``. The schema's n_window must be pinned (``load_tables`` pins
    an open one); a household larger than it is an error. ``load_tables``
    codes CSV files through the same core without records.
    """
    if schema.n_window is None:
        raise DataError("restructure needs a pinned n_window; load_tables pins an open one")
    coded = _code(
        schema,
        [r.household_id for r in records],
        _columns([r.values for r in records], len(schema.household_vars)),
        np.repeat(np.arange(len(records)), [len(r.persons) for r in records]),
        _columns([p for r in records for p in r.persons], len(schema.person_vars)),
    )
    return _fold(coded, schema)


def load_tables(schema: Schema, *path_pairs) -> list[RestructuredTable]:
    """One restructured table per (household CSV, person CSV) pair, read by
    column and coded without building records. An open n_window is pinned to
    the largest household in any of them (at least 1), so that every table
    has one layout."""
    coded = [_code(schema, *_read_microdata(hh, p, schema)) for hh, p in path_pairs]
    if schema.n_window is None:
        schema = schema.with_n_window(max([1, *(int(c.sizes.max(initial=0)) for c in coded)]))
    return [_fold(c, schema) for c in coded]


# ---------------------------------------------------------------------------
# one-hot codec


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row of ``codes`` at its first occurrence,
    in that order, and how often the row occurs. One-hot encoding is
    injective, so the encoded rows at ``first`` are the distinct rows of the
    whole table's encoding, in the same order. Rows compare by their bytes
    in the narrowest unsigned type that holds the codes, which are
    non-negative: census rows take 42 bytes, not 42 int64 codes."""
    codes = np.ascontiguousarray(codes, dtype=np.min_scalar_type(codes.max(initial=0)))
    keys = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order]


def one_hot(codes: np.ndarray, starts, width: int) -> np.ndarray:
    """Rows of ``width`` zeros with a one at ``starts[k] + codes[:, k]``."""
    x = np.zeros((codes.shape[0], width), dtype=np.float64)
    x[np.arange(codes.shape[0])[:, None], np.asarray(starts) + codes] = 1.0
    return x


def encode_onehot(table: RestructuredTable) -> EncodedMatrix:
    """One row per household; one-hot per variable per slot, padding hits NA."""
    groups, d = column_layout(table.schema)
    x = one_hot(table.codes, [g.start for g in groups], d)
    return EncodedMatrix(x, table.schema)


def _draw_categories(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    r = rng.random(probs.shape[0])
    return np.minimum(
        (cdf < r[:, None]).sum(axis=1), probs.shape[1] - 1
    )


def decode_onehot_with_stats(
    matrix: EncodedMatrix,
    mode: str = "argmax",
    seed: int | None = None,
) -> tuple[RestructuredTable, int]:
    """Map probability rows back to category codes of the matrix's schema;
    also return the number of forced-NA cells.

    argmax ties break toward the lowest category index; "sample" draws one
    category per group from its probabilities, group by group in column
    order (seed required). A slot is occupied iff its anchor-variable group
    decodes to something other than NA; every other variable in an
    unoccupied slot is forced to NA and each decode that disagreed with the
    forced value is counted. Row ids are "0".."n-1".
    """
    if mode not in ("argmax", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs a seed")
    schema = matrix.schema
    x = np.asarray(matrix.values, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed) if mode == "sample" else None

    codes = np.empty((n, len(matrix.groups)), dtype=np.int64)
    for j, g in enumerate(matrix.groups):
        block = x[:, g.start : g.stop]
        sums = block.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= PROB_SUM_TOL))  # a NaN sum is bad too
        if bad.size:
            raise DataError(
                f"group {g.var!r} (slot {g.slot}) row {bad[0]} sums to "
                f"{sums[bad[0]]:.8f}, not 1"
            )
        codes[:, j] = np.argmax(block, axis=1) if rng is None else _draw_categories(block, rng)

    n_hh = len(schema.household_vars)
    na = np.array([v.na_index for v in schema.person_vars])
    table = RestructuredTable(
        schema, [str(i) for i in range(n)], codes[:, :n_hh],
        codes[:, n_hh:].reshape(n, schema.n_window, na.size),
    )
    padding = ~table.occupied[:, :, None]
    forced_na_cells = int((padding & (table.persons != na)).sum())
    table.persons = _sort_slots(np.where(padding, na, table.persons), schema)
    return table, forced_na_cells


# ---------------------------------------------------------------------------
# marginals


def marginal_counts(table: RestructuredTable) -> dict[str, np.ndarray]:
    """Raw counts over each variable's levels, in schema order: households
    for a household variable, persons for a person variable. NA is not a
    level, and padding slots are NA throughout, so they never count."""
    schema = table.schema
    persons = np.moveaxis(table.persons, 2, 0).reshape(len(schema.person_vars), -1)
    columns = [*table.households.T, *persons]
    return {
        v.name: np.bincount(column, minlength=v.width)[: len(v.levels)]
        for v, column in zip(schema.variables, columns)
    }


def marginals_from_counts(
    table: RestructuredTable, counts: dict[str, np.ndarray]
) -> TargetMarginals:
    """Proportions of ``marginal_counts(table)``; NA never enters a person
    variable's numerator or denominator."""
    if table.n_rows == 0:
        raise DataError("cannot compute marginals of an empty table")
    proportions = {}
    for name, c in counts.items():
        total = c.sum()
        if total == 0:
            raise DataError(f"no persons with a non-NA value for {name!r}")
        proportions[name] = c / total
    n_persons = int(counts[table.schema.slot_anchor].sum())
    return TargetMarginals(proportions, table.n_rows, n_persons)


def empirical_marginals(table: RestructuredTable) -> TargetMarginals:
    """Observed proportions of every variable."""
    return marginals_from_counts(table, marginal_counts(table))


def _number(raw: str, what: str) -> float:
    """A finite, non-negative number from a marginals file."""
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{what}: {raw!r} is not a number") from None
    if not np.isfinite(value) or value < 0:
        raise DataError(f"{what}: {raw!r} is not a finite non-negative number")
    return value


def _whole(raw: str, what: str) -> int:
    value = _number(raw, what)
    if not value.is_integer():
        raise DataError(f"{what}: {raw!r} is not a whole number")
    return int(value)


def load_target_marginals(path, schema: Schema) -> TargetMarginals:
    rows = _read_rows(path, ["variable", "category", "count_or_proportion"])
    by_var: dict[str, dict[str, float]] = {}
    totals: dict[str, int] = {}
    for var, cat, raw in rows:
        if var in (N_HOUSEHOLDS_KEY, N_PERSONS_KEY):
            if var in totals:
                raise DataError(f"duplicate {var} row in {path}")
            totals[var] = _whole(raw, f"{path}: {var}")
            continue
        value = _number(raw, f"{path}: count for {var!r}/{cat!r}")
        by_var.setdefault(var, {})
        if cat in by_var[var]:
            raise DataError(f"duplicate row for {var!r}/{cat!r} in {path}")
        by_var[var][cat] = value

    n_households = totals.get(N_HOUSEHOLDS_KEY)
    if n_households is None:
        raise DataError(f"{path}: missing {N_HOUSEHOLDS_KEY} row")
    if n_households <= 0:
        raise DataError(f"{path}: household total must be positive")

    proportions = {}
    for v in schema.variables:
        got = by_var.pop(v.name, None)
        if got is None:
            raise DataError(f"{path}: no rows for variable {v.name!r}")
        if v.has_na and NA in got:
            raise DataError(f"{path}: person variable {v.name!r} must not list an NA target")
        unknown = set(got) - set(v.levels)
        if unknown:
            raise DataError(
                f"{path}: unknown categor{'ies' if len(unknown) > 1 else 'y'} "
                f"{sorted(unknown)} for variable {v.name!r}"
            )
        vec = np.array([got.get(c, 0.0) for c in v.levels], dtype=np.float64)
        total = vec.sum()
        if total <= 0:
            raise DataError(f"{path}: variable {v.name!r} has zero total")
        proportions[v.name] = vec / total if abs(total - 1.0) > 1e-9 else vec
    if by_var:
        raise DataError(f"{path}: rows for unknown variable(s) {sorted(by_var)}")
    return TargetMarginals(proportions, n_households, totals.get(N_PERSONS_KEY))


def write_target_marginals(targets: TargetMarginals, schema: Schema, path) -> None:
    rows = [
        [v.name, cat, f"{p:.12g}"]
        for v in schema.variables
        for cat, p in zip(v.levels, targets.proportions[v.name])
    ]
    rows.append([N_HOUSEHOLDS_KEY, "", targets.n_households])
    if targets.n_persons is not None:
        rows.append([N_PERSONS_KEY, "", targets.n_persons])
    write_csv(path, ["variable", "category", "count_or_proportion"], rows)


# ---------------------------------------------------------------------------
# writers


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then rename it over ``path``. When
    either step fails, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def labels(variables, codes: np.ndarray) -> list[list[str]]:
    """Category strings of an (n, len(variables)) code matrix, row by row."""
    cols = [np.array(v.categories, dtype=object)[codes[:, k]] for k, v in enumerate(variables)]
    return np.stack(cols, axis=1).tolist()


def write_restructured(table: RestructuredTable, path) -> None:
    schema = table.schema
    header = ["household_id", *schema.household_names]
    for s in range(schema.n_window):
        header.extend(f"{name}__s{s}" for name in schema.person_names)
    variables = schema.household_vars + schema.person_vars * schema.n_window
    rows = labels(variables, table.codes)
    write_csv(path, header, ([hid, *row] for hid, row in zip(table.household_ids, rows)))


def write_encoded(table: RestructuredTable, path) -> None:
    """The one-hot rows of ``table`` (the columns of ``encode_onehot``), each
    cell the integer 0 or 1, in the CSV dialect of ``write_csv``."""
    groups, d = column_layout(table.schema)
    categories = {v.name: v.categories for v in table.schema.variables}
    header = []
    for g in groups:
        prefix = g.var if g.slot is None else f"{g.var}__s{g.slot}"
        header.extend(f"{prefix}={c}" for c in categories[g.var])
    head = io.StringIO()
    csv.writer(head).writerow(header)
    # one byte per digit, comma and line end, set straight from the codes
    text = np.full((table.n_rows, 2 * d + 1), ord(","), dtype=np.uint8)
    text[:, 0 : 2 * d : 2] = ord("0")
    starts = np.array([g.start for g in groups], dtype=np.int64)
    text[np.arange(table.n_rows)[:, None], 2 * (starts + table.codes)] = ord("1")
    text[:, -2:] = (ord("\r"), ord("\n"))
    write_text(path, head.getvalue() + text.tobytes().decode("ascii"))

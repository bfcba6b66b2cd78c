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
appended to person variables automatically when absent.

Microdata: two CSV files with header rows. The household file needs
``household_id`` plus one column per household variable; the person file needs
``household_id`` plus one column per person variable. Extra columns are
ignored.

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

Every file is written through ``write_atomic``: to ``<path>.tmp``, then
renamed over ``path``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

NA = "NA"

PROB_SUM_TOL = 1e-6

N_HOUSEHOLDS_KEY = "__n_households__"
N_PERSONS_KEY = "__n_persons__"


class SchemaError(ValueError):
    """Raised when a schema file or schema object is structurally invalid."""


class DataError(ValueError):
    """Raised when data does not conform to its schema."""


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
            raise SchemaError(f"variable {self.name!r} has no NA category")
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
            raise SchemaError("schema needs at least one household variable")
        if not self.person_vars:
            raise SchemaError("schema needs at least one person variable")
        names = [v.name for v in self.variables]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"duplicate variable name(s): {sorted(dupes)}")
        for var in self.variables:
            if not var.categories:
                raise SchemaError(f"variable {var.name!r} has no categories")
            cats = list(var.categories)
            for c in cats:
                if cats.count(c) > 1:
                    raise SchemaError(
                        f"duplicate category {c!r} in variable {var.name!r}"
                    )
        for var in self.household_vars:
            if NA in var.categories:
                raise SchemaError(
                    f"household variable {var.name!r} must not carry an NA category"
                )
        for var in self.person_vars:
            if not var.has_na or var.categories[-1] != NA:
                raise SchemaError(
                    f"person variable {var.name!r} must carry NA as its last category"
                )
        if self.n_window is not None and self.n_window < 1:
            raise SchemaError("n_window must be >= 1")
        person_names = {v.name for v in self.person_vars}
        if not self.sort_keys:
            object.__setattr__(
                self, "sort_keys", tuple(v.name for v in self.person_vars)
            )
        for key in self.sort_keys:
            if key not in person_names:
                raise SchemaError(f"sort key {key!r} is not a person variable")
        if not self.slot_anchor:
            object.__setattr__(self, "slot_anchor", self.person_vars[0].name)
        if self.slot_anchor not in person_names:
            raise SchemaError(
                f"slot anchor {self.slot_anchor!r} is not a person variable"
            )

    # -- lookups ----------------------------------------------------------

    def household_var(self, name: str) -> Variable:
        for v in self.household_vars:
            if v.name == name:
                return v
        raise SchemaError(f"no household variable named {name!r}")

    def person_var(self, name: str) -> Variable:
        for v in self.person_vars:
            if v.name == name:
                return v
        raise SchemaError(f"no person variable named {name!r}")

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
        raise SchemaError("cannot lay out columns while n_window is unresolved")
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
    values: np.ndarray
    groups: tuple[ColumnGroup, ...]
    schema_fingerprint: str

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class TargetMarginals:
    """Per-variable proportions over ``Variable.levels``, in schema order."""

    proportions: dict[str, np.ndarray]
    n_households: int
    n_persons: int | None = None


# ---------------------------------------------------------------------------
# loaders


def load_schema(path) -> Schema:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"could not parse schema file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("schema file must contain a JSON object")

    def build(section, is_person):
        entries = raw.get(section)
        if not isinstance(entries, list):
            raise SchemaError(f"schema section {section!r} must be a list")
        out = []
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry:
                raise SchemaError(f"malformed entry in section {section!r}: {entry!r}")
            name = str(entry["name"])
            cats = [str(c) for c in entry.get("categories", [])]
            if is_person:
                if NA in cats and cats[-1] != NA:
                    raise SchemaError(
                        f"person variable {name!r} lists NA in a non-final position"
                    )
                if NA not in cats:
                    cats.append(NA)
                out.append(Variable(name, tuple(cats), has_na=True))
            else:
                out.append(Variable(name, tuple(cats)))
        return tuple(out)

    sort_key = raw.get("person_sort_key") or []
    if isinstance(sort_key, str):
        sort_key = [sort_key]
    n_window = raw.get("n_window")
    if n_window is not None:
        try:
            n_window = int(str(n_window))  # "x", 2.5 and true are errors, not truncated
        except ValueError:
            raise SchemaError(f"n_window must be an integer, not {raw['n_window']!r}") from None
    return Schema(
        household_vars=build("household", is_person=False),
        person_vars=build("person", is_person=True),
        n_window=n_window,
        sort_keys=tuple(str(k) for k in sort_key),
        slot_anchor=str(raw.get("slot_anchor") or ""),
    )


def write_schema(schema: Schema, path) -> None:
    payload = {
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
    write_text(path, json.dumps(payload, indent=2) + "\n")


def _read_rows(path, required: list[str]) -> list[tuple[str, ...]]:
    """The ``required`` columns of every non-blank row, as tuples."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        pick = itemgetter(*(header.index(c) for c in required))
        rows = []
        for row in reader:
            if len(row) < len(header):
                if not row:
                    continue
                raise DataError(
                    f"{path}: line {reader.line_num} has fewer fields than the header"
                )
            rows.append(pick(row))
        return rows


def load_microdata(household_path, person_path, schema: Schema) -> list[HouseholdRecord]:
    """Read and join the two microdata tables; validates ids. Categories are
    checked where ``restructure`` codes them."""
    hh_rows = _read_rows(household_path, ["household_id", *schema.household_names])
    p_rows = _read_rows(person_path, ["household_id", *schema.person_names])

    records: dict[str, HouseholdRecord] = {}
    for hid, *values in hh_rows:
        if hid in records:
            raise DataError(f"duplicate household_id {hid!r} in {household_path}")
        records[hid] = HouseholdRecord(hid, tuple(values), [])

    for hid, *values in p_rows:
        if hid not in records:
            raise DataError(
                f"person row references unknown household_id {hid!r} in {person_path}"
            )
        records[hid].persons.append(tuple(values))

    if not p_rows:
        warnings.warn(
            f"person table {person_path} is empty; every household has zero persons",
            stacklevel=2,
        )
    return list(records.values())


# ---------------------------------------------------------------------------
# restructuring


def _code_columns(variables, rows) -> np.ndarray:
    """(len(rows), len(variables)) codes of string rows, one dict lookup per cell."""
    out = np.empty((len(rows), len(variables)), dtype=np.int64)
    for k, var in enumerate(variables):
        try:
            out[:, k] = [var.codes[row[k]] for row in rows]
        except KeyError as exc:
            raise DataError(
                f"unknown category {exc.args[0]!r} for variable {var.name!r}"
            ) from None
    return out


def _sort_slots(persons: np.ndarray, schema: Schema) -> np.ndarray:
    """Reorder each row's slots: occupied first, then descending code per
    sort key; the sort is stable, so full ties keep their slot order."""
    names = schema.person_names
    anchor = names.index(schema.slot_anchor)
    keys = [-persons[:, :, names.index(k)] for k in reversed(schema.sort_keys)]
    keys.append(persons[:, :, anchor] == schema.person_vars[anchor].na_index)
    order = np.lexsort(keys, axis=-1)
    return np.take_along_axis(persons, order[:, :, None], axis=1)


def restructure(records: list[HouseholdRecord], schema: Schema) -> RestructuredTable:
    """Fold person records into one fixed-width row of codes per household.

    This is where category strings become codes, so an unknown category is a
    ``DataError``. Resolves n_window to the observed maximum household size
    when the schema leaves it open; a pinned n_window smaller than some
    household is an error.
    """
    sizes = np.array([len(r.persons) for r in records], dtype=np.int64)
    max_size = int(sizes.max(initial=0))
    if schema.n_window is None:
        schema = schema.with_n_window(max(max_size, 1))
    elif max_size > schema.n_window:
        offender = records[int(np.argmax(sizes > schema.n_window))]
        raise DataError(
            f"household {offender.household_id!r} has {len(offender.persons)} "
            f"persons but n_window is {schema.n_window}"
        )

    households = _code_columns(schema.household_vars, [r.values for r in records])
    people = _code_columns(schema.person_vars, [p for r in records for p in r.persons])
    owner = np.repeat(np.arange(len(records)), sizes)
    anchor = schema.person_names.index(schema.slot_anchor)
    unanchored = people[:, anchor] == schema.person_vars[anchor].na_index
    if unanchored.any():
        raise DataError(
            f"household {records[owner[np.argmax(unanchored)]].household_id!r} has a "
            f"person with NA {schema.slot_anchor!r}; the anchor variable marks slot occupancy"
        )
    persons = np.empty((len(records), schema.n_window, len(schema.person_vars)), np.int64)
    persons[:] = [v.na_index for v in schema.person_vars]
    # each person goes to the next free slot of its household, then rows are sorted
    first = np.cumsum(sizes) - sizes
    persons[owner, np.arange(owner.size) - first[owner]] = people
    return RestructuredTable(
        schema, [r.household_id for r in records], households, _sort_slots(persons, schema)
    )


# ---------------------------------------------------------------------------
# one-hot codec


def one_hot(codes: np.ndarray, starts, width: int) -> np.ndarray:
    """Rows of ``width`` zeros with a one at ``starts[k] + codes[:, k]``."""
    x = np.zeros((codes.shape[0], width), dtype=np.float64)
    x[np.arange(codes.shape[0])[:, None], np.asarray(starts) + codes] = 1.0
    return x


def encode_onehot(table: RestructuredTable) -> EncodedMatrix:
    """One row per household; one-hot per variable per slot, padding hits NA."""
    groups, d = column_layout(table.schema)
    x = one_hot(table.codes, [g.start for g in groups], d)
    return EncodedMatrix(x, groups, table.schema.fingerprint())


def _draw_categories(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs, axis=1)
    cdf[:, -1] = np.maximum(cdf[:, -1], 1.0)
    r = rng.random(probs.shape[0])
    return np.minimum(
        (cdf < r[:, None]).sum(axis=1), probs.shape[1] - 1
    )


def decode_onehot_with_stats(
    matrix: EncodedMatrix,
    schema: Schema,
    mode: str = "argmax",
    seed: int | None = None,
) -> tuple[RestructuredTable, int]:
    """Map probability rows back to category codes; also return the number of
    forced-NA cells.

    argmax ties break toward the lowest category index; "sample" draws one
    category per group from its probabilities, group by group in column
    order (seed required). A slot is occupied iff its anchor-variable group
    decodes to something other than NA; every other variable in an
    unoccupied slot is forced to NA and each decode that disagreed with the
    forced value is counted. Row ids are "0".."n-1".
    """
    if matrix.schema_fingerprint != schema.fingerprint():
        raise DataError("encoded matrix does not match the supplied schema")
    if mode not in ("argmax", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs a seed")
    x = np.asarray(matrix.values, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed) if mode == "sample" else None

    codes = np.empty((n, len(matrix.groups)), dtype=np.int64)
    for j, g in enumerate(matrix.groups):
        block = x[:, g.start : g.stop]
        sums = block.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > PROB_SUM_TOL)[0]
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
    n_households = None
    n_persons = None
    for var, cat, raw in rows:
        if var == N_HOUSEHOLDS_KEY:
            n_households = _whole(raw, f"{path}: {N_HOUSEHOLDS_KEY}")
            continue
        if var == N_PERSONS_KEY:
            n_persons = _whole(raw, f"{path}: {N_PERSONS_KEY}")
            continue
        value = _number(raw, f"{path}: count for {var!r}/{cat!r}")
        by_var.setdefault(var, {})
        if cat in by_var[var]:
            raise DataError(f"duplicate row for {var!r}/{cat!r} in {path}")
        by_var[var][cat] = value

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
    return TargetMarginals(proportions, n_households, n_persons)


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
    """Write ``data`` to ``<path>.tmp``, then rename it over ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


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


def write_encoded(matrix: EncodedMatrix, schema: Schema, path) -> None:
    categories = {v.name: v.categories for v in schema.variables}
    header = []
    for g in matrix.groups:
        prefix = g.var if g.slot is None else f"{g.var}__s{g.slot}"
        header.extend(f"{prefix}={c}" for c in categories[g.var])
    write_csv(path, header, _formatted_rows(matrix.values))


def _formatted_rows(values: np.ndarray):
    """Rows of ``values`` as ``.12g`` strings. Each distinct value of a block
    of rows is formatted once; unique by bit pattern, so -0.0 keeps its sign.
    Blocks of 256 rows keep the temporaries of ``np.unique`` small."""
    for start in range(0, values.shape[0], 256):
        block = np.ascontiguousarray(values[start : start + 256], dtype=np.float64)
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([f"{v:.12g}" for v in bits.view(np.float64)], dtype=object)
        yield from text[inverse.reshape(block.shape)].tolist()

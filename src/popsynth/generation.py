"""Decode latents into a synthetic inventory and check structural sanity rules.

An inventory is a ``RestructuredTable``, the one record of a population: the
kept households, with sequential integer ids "1".."k". ``generate_inventory``
decodes with the model's own schema, in bounded row blocks, and returns that
table with its provenance record. Households whose decode produced zero
occupied person slots are dropped and counted there. The CSV files
(households, persons) are the only place where the codes become category
strings again.

Sanity rules are data, not code: each rule links a household flag value to a
set of person categories and is checked in one or both directions per
household (flag set but no qualifying member / qualifying member but flag not
set). A rule that names an unknown variable or category, or that cannot be
parsed, is a ``DataError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .schema import (
    DataError,
    EncodedMatrix,
    RestructuredTable,
    _strings,
    decode_onehot_with_stats,
    labels,
    read_input,
    write_csv,
    write_json,
    write_text,
)

DIRECTIONS = ("flag_implies_member", "member_implies_flag", "both")
DECODE_BLOCK_VALUES = 2**17  # largest layer output of one decode block: 1 MB of float64
DECODE_MIN_ROWS = 256  # no smaller block; the GEMM's bits hold on row blocks this tall


@dataclass
class Provenance:
    model_fingerprint: str = ""
    schema_fingerprint: str = ""
    mode: str = "argmax"
    seed: int | None = None
    tract_id: str | None = None
    latent_seed: int | None = None
    n_latent_rows: int = 0
    dropped_households: int = 0
    forced_na_cells: int = 0
    toolkit_version: str = ""


def inventory_from_table(table: RestructuredTable) -> RestructuredTable:
    """The rows of ``table`` with an occupied slot, renumbered "1".."k"."""
    keep = table.occupied.any(axis=1)
    return RestructuredTable(
        table.schema,
        [str(i) for i in range(1, int(keep.sum()) + 1)],
        table.households[keep],
        table.persons[keep],
    )


def decode_latent(model, z: np.ndarray) -> np.ndarray:
    """The frozen decoder's probabilities for the rows of ``z``, decoded in
    even row blocks into one preallocated array, so the working set beyond
    that array is one block's, whatever the number of rows.

    A block's widest layer output holds at most ``DECODE_BLOCK_VALUES``
    values, but never fewer than ``2 * DECODE_MIN_ROWS`` rows are asked for,
    so the even split leaves every block at least ``DECODE_MIN_ROWS``. The
    eval-mode layers work row by row except the Affine GEMMs, which give a
    block of that height the bits of the whole product on the BLAS this is
    tested with (``tests/test_generation.py``); a one-block decode is the
    whole product."""
    n = z.shape[0]
    widest = max(model.d, *model.hyper.encoder_widths)
    rows = max(2 * DECODE_MIN_ROWS, DECODE_BLOCK_VALUES // widest)
    probs = np.empty((n, model.d))
    start = 0
    for block in np.array_split(z, max(1, -(-n // rows))):
        probs[start : start + block.shape[0]] = model.decode(block, train=False)
        start += block.shape[0]
    return probs


def generate_inventory(
    model,
    latent,
    mode: str = "argmax",
    seed: int | None = None,
    tract_id: str | None = None,
    toolkit_version: str = "",
) -> tuple[RestructuredTable, Provenance]:
    """Decode the latent matrix with the frozen decoder (eval-mode batch norm,
    in row blocks) and the model's own schema; return the kept table and its
    provenance."""
    probs = decode_latent(model, np.asarray(latent.z, dtype=np.float64))
    decoded, forced_na_cells = decode_onehot_with_stats(
        EncodedMatrix(probs, model.schema), mode=mode, seed=seed
    )
    table = inventory_from_table(decoded)
    provenance = Provenance(
        model_fingerprint=model.checksum(),
        schema_fingerprint=model.schema_fingerprint,
        mode=mode,
        seed=seed,
        tract_id=tract_id,
        latent_seed=latent.seed,
        n_latent_rows=latent.z.shape[0],
        dropped_households=decoded.n_rows - table.n_rows,
        forced_na_cells=forced_na_cells,
        toolkit_version=toolkit_version,
    )
    return table, provenance


def write_inventory(table: RestructuredTable, provenance: Provenance, out_dir) -> dict[str, str]:
    """households.csv, persons.csv and provenance.json under out_dir; person
    ids run "1".."m" over the occupied slots in row then slot order."""
    schema = table.schema
    paths = {
        name: os.path.join(out_dir, name)
        for name in ("households.csv", "persons.csv", "provenance.json")
    }
    hh_rows = labels(schema.household_vars, table.households)
    write_csv(
        paths["households.csv"],
        ["household_id", *schema.household_names],
        ([hid, *row] for hid, row in zip(table.household_ids, hh_rows)),
    )
    rows, slots = np.nonzero(table.occupied)
    people = labels(schema.person_vars, table.persons[rows, slots])
    write_csv(
        paths["persons.csv"],
        ["person_id", "household_id", *schema.person_names],
        (
            [pid, table.household_ids[i], *row]
            for pid, (i, row) in enumerate(zip(rows, people), start=1)
        ),
    )
    write_json(paths["provenance.json"], asdict(provenance))
    return paths


# ---------------------------------------------------------------------------
# sanity rules


@dataclass(frozen=True)
class SanityRule:
    """One rule; its fields are the keys of a rule in a rules file."""

    id: str
    household_var: str
    household_value: str
    person_var: str
    person_categories: tuple[str, ...]
    direction: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "person_categories", tuple(self.person_categories))
        if self.direction not in DIRECTIONS:
            raise DataError(f"rule {self.id!r}: direction must be one of {DIRECTIONS}")


RULE_KEYS = [f.name for f in fields(SanityRule)]


def load_rules(path) -> list[SanityRule]:
    """The rules of a rules file, ``{"rules": [...]}``, each rule an object
    whose keys are ``SanityRule``'s fields (``direction`` may be left out).
    A key a rule lacks or does not define, a field of the wrong JSON type
    and an id that two rules share are errors that name them, not defaults,
    coercions or overwritten results."""
    try:
        raw = json.loads(read_input(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"could not parse rules file {path}: {exc}") from None
    if not isinstance(raw, dict) or raw.keys() != {"rules"} or not isinstance(raw["rules"], list):
        raise DataError(f'rules file {path}: the file must be one object {{"rules": [...]}}')
    rules = []
    for e in raw["rules"]:
        if not isinstance(e, dict):
            raise DataError(f"rules file {path}: a rule must be an object, not {e!r}")
        unknown = e.keys() - RULE_KEYS
        if unknown:
            raise DataError(f"rules file {path}: unknown rule key(s) {sorted(unknown)}")
        missing = [k for k in RULE_KEYS if k not in e and k != "direction"]
        if missing:
            raise DataError(f"rules file {path}: a rule lacks key(s) {missing}")
        for key, value in e.items():
            listed = key == "person_categories"
            if not (_strings(value) if listed else isinstance(value, str)):
                kind = "a list of strings" if listed else "a string"
                raise DataError(f"rules file {path}: {key!r} must be {kind}, not {value!r}")
        if any(r.id == e["id"] for r in rules):
            raise DataError(f"rules file {path}: rule id {e['id']!r} is used more than once")
        rules.append(SanityRule(**e))
    return rules


def write_rules(rules: list[SanityRule], path) -> None:
    write_text(path, json.dumps({"rules": [asdict(r) for r in rules]}, indent=2) + "\n")


@dataclass
class SanityReport:
    total_households: int
    violations: dict[str, list[tuple[str, str]]] = field(default_factory=dict)

    @property
    def counts(self) -> dict[str, int]:
        return {rule: len(v) for rule, v in self.violations.items()}

    @property
    def rates(self) -> dict[str, float]:
        n = max(self.total_households, 1)
        return {rule: len(v) / n for rule, v in self.violations.items()}


def _rule_masks(table: RestructuredTable, rule: SanityRule) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the household flag is set; some occupied slot qualifies."""
    schema = table.schema
    try:
        hv = schema.household_var(rule.household_var)
        pv = schema.person_var(rule.person_var)
        flag_code = hv.index(rule.household_value)
        wanted = [pv.index(c) for c in rule.person_categories]
    except DataError as exc:
        raise DataError(f"rule {rule.id!r}: {exc}") from None
    flag = table.households[:, schema.household_names.index(hv.name)] == flag_code
    qualifies = np.isin(table.persons[:, :, schema.person_names.index(pv.name)], wanted)
    return flag, (qualifies & table.occupied).any(axis=1)


def sanity_check(table: RestructuredTable, rules: list[SanityRule]) -> SanityReport:
    """Check every rule against every household of a coded table;
    violations are (household_id, kind) pairs."""
    report = SanityReport(total_households=table.n_rows)
    for rule in rules:
        flag, member = _rule_masks(table, rule)
        no_member = flag & ~member & (rule.direction != "member_implies_flag")
        no_flag = member & ~flag & (rule.direction != "flag_implies_member")
        report.violations[rule.id] = [
            (
                table.household_ids[i],
                "flag_without_member" if no_member[i] else "member_without_flag",
            )
            for i in np.flatnonzero(no_member | no_flag)
        ]
    return report


def write_sanity_report(report: SanityReport, path) -> None:
    payload = {
        "total_households": report.total_households,
        "counts": report.counts,
        "rates": report.rates,
        "violations": {k: [list(v) for v in vs] for k, vs in report.violations.items()},
    }
    write_json(path, payload)

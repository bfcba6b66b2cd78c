"""Decode latents into a synthetic inventory and check structural sanity rules.

An inventory is the coded table of the kept households, with sequential
integer ids "1".."k", plus a provenance record. Households whose decode
produced zero occupied person slots are dropped and counted. Its CSV files
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
from dataclasses import dataclass, field

import numpy as np

from .schema import (
    DataError,
    EncodedMatrix,
    RestructuredTable,
    Schema,
    SchemaError,
    decode_onehot_with_stats,
    labels,
    write_csv,
    write_json,
    write_text,
)

DIRECTIONS = ("flag_implies_member", "member_implies_flag", "both")


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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SyntheticInventory:
    table: RestructuredTable
    provenance: Provenance

    @property
    def n_households(self) -> int:
        return self.table.n_rows


def inventory_from_table(
    table: RestructuredTable, provenance: Provenance
) -> SyntheticInventory:
    """Keep the rows with an occupied slot, renumbered "1".."k"; count the
    dropped ones."""
    keep = table.occupied.any(axis=1)
    kept = RestructuredTable(
        table.schema,
        [str(i) for i in range(1, int(keep.sum()) + 1)],
        table.households[keep],
        table.persons[keep],
    )
    provenance.dropped_households = table.n_rows - kept.n_rows
    return SyntheticInventory(kept, provenance)


def generate_inventory(
    model,
    latent,
    schema: Schema,
    mode: str = "argmax",
    seed: int | None = None,
    tract_id: str | None = None,
    toolkit_version: str = "",
) -> SyntheticInventory:
    """Decode the latent matrix with the frozen decoder (eval-mode batch norm)
    and translate the rows into an inventory."""
    if schema.fingerprint() != model.schema_fingerprint:
        raise DataError("schema does not match the model's schema fingerprint")
    probs = model.decode(np.asarray(latent.z, dtype=np.float64), train=False)
    matrix = EncodedMatrix(probs, model.groups, model.schema_fingerprint)
    table, forced_na_cells = decode_onehot_with_stats(matrix, schema, mode=mode, seed=seed)
    prov = Provenance(
        model_fingerprint=model.checksum(),
        schema_fingerprint=model.schema_fingerprint,
        mode=mode,
        seed=seed,
        tract_id=tract_id,
        latent_seed=getattr(latent, "seed", None),
        n_latent_rows=latent.z.shape[0],
        forced_na_cells=forced_na_cells,
        toolkit_version=toolkit_version,
    )
    return inventory_from_table(table, prov)


def write_inventory(inventory: SyntheticInventory, out_dir) -> dict[str, str]:
    """households.csv, persons.csv and provenance.json under out_dir; person
    ids run "1".."m" over the occupied slots in row then slot order."""
    table = inventory.table
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
    write_json(paths["provenance.json"], inventory.provenance.to_dict())
    return paths


# ---------------------------------------------------------------------------
# sanity rules


@dataclass(frozen=True)
class SanityRule:
    rule_id: str
    household_var: str
    household_value: str
    person_var: str
    person_categories: tuple[str, ...]
    direction: str = "both"

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise DataError(
                f"rule {self.rule_id!r}: direction must be one of {DIRECTIONS}"
            )


def load_rules(path) -> list[SanityRule]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        entries = raw["rules"] if isinstance(raw, dict) else raw
        return [
            SanityRule(
                rule_id=e["id"],
                household_var=e["household_var"],
                household_value=e["household_value"],
                person_var=e["person_var"],
                person_categories=tuple(e["person_categories"]),
                direction=e.get("direction", "both"),
            )
            for e in entries
        ]
    except json.JSONDecodeError as exc:
        raise DataError(f"could not parse rules file {path}: {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed rules file {path}: {exc!r}") from None


def write_rules(rules: list[SanityRule], path) -> None:
    payload = {
        "rules": [
            {
                "id": r.rule_id,
                "household_var": r.household_var,
                "household_value": r.household_value,
                "person_var": r.person_var,
                "person_categories": list(r.person_categories),
                "direction": r.direction,
            }
            for r in rules
        ]
    }
    write_text(path, json.dumps(payload, indent=2) + "\n")


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

    @property
    def total_violations(self) -> int:
        return sum(len(v) for v in self.violations.values())


def _rule_masks(table: RestructuredTable, rule: SanityRule) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the household flag is set; some occupied slot qualifies."""
    schema = table.schema
    try:
        hv = schema.household_var(rule.household_var)
        pv = schema.person_var(rule.person_var)
        flag_code = hv.index(rule.household_value)
        wanted = [pv.index(c) for c in rule.person_categories]
    except (SchemaError, DataError) as exc:
        raise DataError(f"rule {rule.rule_id!r}: {exc}") from None
    flag = table.households[:, schema.household_names.index(hv.name)] == flag_code
    qualifies = np.isin(table.persons[:, :, schema.person_names.index(pv.name)], wanted)
    return flag, (qualifies & table.occupied).any(axis=1)


def sanity_check(target, rules: list[SanityRule]) -> SanityReport:
    """Check every rule against every household of an inventory or
    restructured table; violations are (household_id, kind) pairs."""
    table = target.table if isinstance(target, SyntheticInventory) else target
    report = SanityReport(total_households=table.n_rows)
    for rule in rules:
        flag, member = _rule_masks(table, rule)
        no_member = flag & ~member & (rule.direction != "member_implies_flag")
        no_flag = member & ~flag & (rule.direction != "flag_implies_member")
        report.violations[rule.rule_id] = [
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

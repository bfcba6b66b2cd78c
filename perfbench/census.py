"""Seeded census-like inputs for the ``census`` benchmark workload.

Real census microdata rarely repeat a household row, and their rows are
wide. This writer draws households from a mixture of latent household types:
the type sets the household variables and each member's age band, and the
other person variables depend on the age band. Twelve variables over six
person slots make 360 one-hot columns in 42 groups, and 4,000 households
come out nearly all distinct. The tract is a separate sample from a shifted
type mix, so its marginals differ from the microdata but stay attainable.

The conditional tables and the samples are drawn from the seed, so one seed
always gives byte-identical files. Only numpy and the writers of
``popsynth.schema`` are used.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from popsynth.schema import (
    HouseholdRecord,
    Schema,
    Variable,
    empirical_marginals,
    restructure,
    write_schema,
    write_target_marginals,
)

# name -> number of categories; person variables also get NA
HOUSEHOLD_VARS = {"TEN": 4, "BLD": 5, "VEH": 6, "HINC": 7, "RNT": 8, "YBL": 6}
PERSON_VARS = {"AGEP": 12, "OCC": 10, "SCHL": 8, "WKHP": 7, "MAR": 6, "RAC": 5}
N_WINDOW = 6
N_TYPES = 8
# shares of households with 1..6 persons, roughly those of US households. The
# size mix is fixed rather than seeded so that every seed gives about the
# same number of persons, and so the same amount of work.
SIZE_WEIGHTS = np.array([0.28, 0.34, 0.16, 0.13, 0.06, 0.03])


def census_schema() -> Schema:
    return Schema(
        household_vars=tuple(
            Variable(name, tuple(f"{name}{k}" for k in range(width)))
            for name, width in HOUSEHOLD_VARS.items()
        ),
        person_vars=tuple(
            Variable(name, tuple(f"{name}{k}" for k in range(width)) + ("NA",), has_na=True)
            for name, width in PERSON_VARS.items()
        ),
        n_window=N_WINDOW,
        slot_anchor="AGEP",
    )


class _Tables:
    """The mixture's conditional tables, all drawn from one generator."""

    def __init__(self, rng: np.random.Generator):
        self.type_weights = rng.dirichlet(np.full(N_TYPES, 2.0))
        self.hh = {n: rng.dirichlet(np.full(w, 0.6), size=N_TYPES) for n, w in HOUSEHOLD_VARS.items()}
        n_age = PERSON_VARS["AGEP"]
        self.age = rng.dirichlet(np.full(n_age, 0.5), size=N_TYPES)
        self.person = {
            n: rng.dirichlet(np.full(w, 0.7), size=n_age)
            for n, w in PERSON_VARS.items()
            if n != "AGEP"
        }


def _draw(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One category per row of ``probs`` by inverse CDF."""
    cdf = probs.cumsum(axis=1)
    u = rng.random(probs.shape[0]) * cdf[:, -1]
    return np.minimum((cdf < u[:, None]).sum(axis=1), probs.shape[1] - 1)


def _sample(tables: _Tables, n: int, type_weights: np.ndarray, rng: np.random.Generator, prefix: str):
    schema = census_schema()
    types = rng.choice(N_TYPES, size=n, p=type_weights / type_weights.sum())
    hh_codes = np.stack([_draw(rng, tables.hh[v][types]) for v in HOUSEHOLD_VARS], axis=1)
    sizes = rng.choice(N_WINDOW, size=n, p=SIZE_WEIGHTS) + 1
    owner = np.repeat(np.arange(n), sizes)
    ages = _draw(rng, tables.age[types[owner]])
    p_codes = np.stack(
        [ages] + [_draw(rng, tables.person[v][ages]) for v in PERSON_VARS if v != "AGEP"],
        axis=1,
    )
    hh_cats = [v.categories for v in schema.household_vars]
    p_cats = [v.categories for v in schema.person_vars]
    records = [
        HouseholdRecord(f"{prefix}{i + 1:06d}", tuple(c[k] for c, k in zip(hh_cats, row)), [])
        for i, row in enumerate(hh_codes.tolist())
    ]
    for i, row in zip(owner.tolist(), p_codes.tolist()):
        records[i].persons.append(tuple(c[k] for c, k in zip(p_cats, row)))
    return records


def write_census(out_dir, seed: int, households: int = 4000, tract_households: int = 400) -> None:
    """Write schema.json, households.csv, persons.csv and tract_marginals.csv."""
    rng = np.random.default_rng([seed, 0xCE5])
    tables = _Tables(rng)
    schema = census_schema()
    records = _sample(tables, households, tables.type_weights, rng, "H")
    # the tract over-represents the types the microdata holds least of
    shifted = tables.type_weights[::-1] ** 1.5
    tract = _sample(tables, tract_households, shifted, rng, "T")

    os.makedirs(out_dir, exist_ok=True)
    write_schema(schema, os.path.join(out_dir, "schema.json"))
    with open(os.path.join(out_dir, "households.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id", *schema.household_names])
        writer.writerows([rec.household_id, *rec.values] for rec in records)
    with open(os.path.join(out_dir, "persons.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id", *schema.person_names])
        writer.writerows([rec.household_id, *p] for rec in records for p in rec.persons)
    targets = empirical_marginals(restructure(tract, schema))
    write_target_marginals(targets, schema, os.path.join(out_dir, "tract_marginals.csv"))

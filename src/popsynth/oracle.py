"""Desk-scale ground-truth population generator for tests and demos.

Samples households from an explicit hierarchical mixture: household type ->
composition (member list) -> member ages -> education given age, plus tenure
and vehicle counts given type. The senior flag R65 is derived from the
sampled member ages, so the generated microdata satisfies the matching sanity
rule by construction. Because every conditional is a small table, the exact
population marginals of any type mix are available in closed form
(``analytic_marginals``); a reweighted type mix doubles as a synthetic census
tract whose targets are attainable by reweighting the learned population.
"""

from __future__ import annotations

import bisect

import numpy as np

from .generation import SanityRule
from .schema import (
    HouseholdRecord,
    Schema,
    TargetMarginals,
    Variable,
)

AGES = ("Under 18", "18-29", "30-44", "45-64", "65-74", "75 and over")
EDUS = ("No diploma", "High school", "College")
TENURES = ("Owned", "Rented")
VEHICLES = ("No vehicle", "1 vehicle", "2 or more")
SENIOR_AGES = ("65-74", "75 and over")

# member age profiles; each profile's support is entirely below or entirely
# above 65, so the R65 flag is deterministic given the household type
MEMBER_AGES = {
    "young_adult": {"18-29": 1.0},
    "parent": {"30-44": 0.65, "45-64": 0.35},
    "mid_adult": {"45-64": 1.0},
    "senior": {"65-74": 0.6, "75 and over": 0.4},
    "child": {"Under 18": 1.0},
}

EDU_GIVEN_AGE = {
    "Under 18": {"No diploma": 1.0},
    "18-29": {"High school": 0.45, "College": 0.55},
    "30-44": {"High school": 0.40, "College": 0.60},
    "45-64": {"High school": 0.70, "College": 0.30},
    "65-74": {"High school": 1.0},
    "75 and over": {"No diploma": 0.5, "High school": 0.5},
}

# type -> (compositions, tenure dist, vehicle dist); compositions are
# (member profile list, probability)
HOUSEHOLD_TYPES = {
    "young_single": {
        "compositions": [(("young_adult",), 1.0)],
        "TEN": {"Owned": 0.2, "Rented": 0.8},
        "VEH": {"No vehicle": 0.3, "1 vehicle": 0.7},
    },
    "young_couple": {
        "compositions": [(("young_adult", "young_adult"), 1.0)],
        "TEN": {"Owned": 0.4, "Rented": 0.6},
        "VEH": {"1 vehicle": 0.5, "2 or more": 0.5},
    },
    "family": {
        "compositions": [
            (("parent", "child"), 0.3),
            (("parent", "parent", "child"), 0.7),
        ],
        "TEN": {"Owned": 0.7, "Rented": 0.3},
        "VEH": {"1 vehicle": 0.25, "2 or more": 0.75},
    },
    "older_couple": {
        "compositions": [(("mid_adult", "mid_adult"), 1.0)],
        "TEN": {"Owned": 0.85, "Rented": 0.15},
        "VEH": {"1 vehicle": 0.3, "2 or more": 0.7},
    },
    "retiree": {
        "compositions": [(("senior",), 0.4), (("senior", "senior"), 0.6)],
        "TEN": {"Owned": 0.8, "Rented": 0.2},
        "VEH": {"No vehicle": 0.3, "1 vehicle": 0.7},
    },
}

DEFAULT_TYPE_WEIGHTS = {
    "young_single": 0.18,
    "young_couple": 0.17,
    "family": 0.30,
    "older_couple": 0.20,
    "retiree": 0.15,
}

# a senior-heavy tract: same conditionals, different mix
SHIFTED_TYPE_WEIGHTS = {
    "young_single": 0.10,
    "young_couple": 0.10,
    "family": 0.15,
    "older_couple": 0.25,
    "retiree": 0.40,
}


def desk_schema() -> Schema:
    return Schema(
        household_vars=(
            Variable("TEN", TENURES),
            Variable("VEH", VEHICLES),
            Variable("R65", ("No", "Yes")),
        ),
        person_vars=(
            Variable("AGEP", AGES + ("NA",), has_na=True),
            Variable("EDU", EDUS + ("NA",), has_na=True),
        ),
        n_window=3,
        sort_keys=("AGEP", "EDU"),
        slot_anchor="AGEP",
    )


def desk_rules() -> list[SanityRule]:
    return [SanityRule("R65", "R65", "Yes", "AGEP", SENIOR_AGES, "both")]


def _normalize_weights(weights: dict[str, float] | None) -> dict[str, float]:
    w = dict(DEFAULT_TYPE_WEIGHTS if weights is None else weights)
    unknown = set(w) - set(HOUSEHOLD_TYPES)
    if unknown:
        raise ValueError(f"unknown household type(s): {sorted(unknown)}")
    total = sum(w.values())
    if total <= 0:
        raise ValueError("type weights must have positive total")
    return {k: v / total for k, v in w.items()}


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative table that ``Generator.choice(len(p), p=p)`` searches
    with one ``random()`` double."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def sample_records(n_households: int, seed: int) -> list[HouseholdRecord]:
    """Draw households from the ``DEFAULT_TYPE_WEIGHTS`` mix; deterministic in
    the seed.

    Every categorical draw takes the next double of one ``rng.random`` stream
    and looks it up in the table's cdf, exactly as ``rng.choice(k, p=p)``
    would: household type, composition, then age and education per member,
    tenure, vehicles. Each table is normalised by its sum and accumulated
    on first use, once per call."""
    if n_households < 1:
        raise ValueError("n_households must be >= 1")
    weights = _normalize_weights(DEFAULT_TYPE_WEIGHTS)
    rng = np.random.default_rng(seed)
    names = list(weights)
    type_cdf = _cdf(np.array([weights[k] for k in names]))
    longest = max(len(m) for t in HOUSEHOLD_TYPES.values() for m, _ in t["compositions"])
    # type and composition, age and education per member, tenure and vehicles
    uniforms = iter(rng.random((2 + 2 * longest + 2) * n_households).tolist())
    tables: dict[int, tuple[list, list[float]]] = {}

    def draw(table):
        """One draw from a ``{label: weight}`` dict or ``[(label, weight)]``
        list. Tables are module constants, so an id names one for the
        call."""
        entry = tables.get(id(table))
        if entry is None:
            pairs = list(table.items() if isinstance(table, dict) else table)
            probs = np.array([w for _, w in pairs], dtype=np.float64)
            entry = tables[id(table)] = ([k for k, _ in pairs], _cdf(probs / probs.sum()))
        labels, cdf = entry
        return labels[bisect.bisect_right(cdf, next(uniforms))]

    records = []
    for i in range(n_households):
        t = HOUSEHOLD_TYPES[names[bisect.bisect_right(type_cdf, next(uniforms))]]
        persons = []
        any_senior = False
        for profile in draw(t["compositions"]):
            age = draw(MEMBER_AGES[profile])
            persons.append((age, draw(EDU_GIVEN_AGE[age])))
            any_senior = any_senior or age in SENIOR_AGES
        values = (draw(t["TEN"]), draw(t["VEH"]), "Yes" if any_senior else "No")
        records.append(HouseholdRecord(f"H{i + 1:05d}", values, persons))
    return records


def analytic_marginals(
    type_weights: dict[str, float] | None = None,
    n_households: int = 0,
) -> TargetMarginals:
    """Exact population marginals of the mixture, as proportions."""
    weights = _normalize_weights(type_weights)
    ten = dict.fromkeys(TENURES, 0.0)
    veh = dict.fromkeys(VEHICLES, 0.0)
    r65 = {"No": 0.0, "Yes": 0.0}
    age_mass = dict.fromkeys(AGES, 0.0)
    edu_mass = dict.fromkeys(EDUS, 0.0)
    expected_size = 0.0
    for name, w in weights.items():
        t = HOUSEHOLD_TYPES[name]
        for cat, p in t["TEN"].items():
            ten[cat] += w * p
        for cat, p in t["VEH"].items():
            veh[cat] += w * p
        senior_type = any(
            profile == "senior" for members, _ in t["compositions"] for profile in members
        )
        r65["Yes" if senior_type else "No"] += w
        for members, cp in t["compositions"]:
            expected_size += w * cp * len(members)
            for profile in members:
                for age, ap in MEMBER_AGES[profile].items():
                    age_mass[age] += w * cp * ap
                    for edu, ep in EDU_GIVEN_AGE[age].items():
                        edu_mass[edu] += w * cp * ap * ep
    total_persons = sum(age_mass.values())
    shares = {
        "TEN": ten,
        "VEH": veh,
        "R65": r65,
        "AGEP": {c: m / total_persons for c, m in age_mass.items()},
        "EDU": {c: m / total_persons for c, m in edu_mass.items()},
    }
    schema = desk_schema()
    return TargetMarginals(
        {
            v.name: np.array([shares[v.name][c] for c in v.levels])
            for v in schema.variables
        },
        n_households=n_households,
        n_persons=round(n_households * expected_size) if n_households else None,
    )

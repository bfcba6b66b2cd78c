import pytest

import oracles
from popsynth import oracle
from popsynth.evaluation import rmse_metric
from popsynth.generation import sanity_check
from popsynth.oracle import (
    DEFAULT_TYPE_WEIGHTS,
    SENIOR_AGES,
    SHIFTED_TYPE_WEIGHTS,
    analytic_marginals,
    desk_rules,
    desk_schema,
    sample_records,
)
from popsynth.schema import empirical_marginals, encode_onehot, restructure


def test_schema_is_valid_and_stable():
    s = desk_schema()
    assert s.n_window == 3
    assert s.household_names == ("TEN", "VEH", "R65")
    assert s.person_names == ("AGEP", "EDU")
    # encoding a sample works end to end
    table = restructure(sample_records(50, seed=0), s)
    enc = encode_onehot(table)
    assert enc.d == sum(v.width for v in s.household_vars) + 3 * sum(
        v.width for v in s.person_vars
    )


def test_sampling_is_deterministic():
    a = sample_records(40, seed=7)
    b = sample_records(40, seed=7)
    assert [(r.household_id, r.values, r.persons) for r in a] == [
        (r.household_id, r.values, r.persons) for r in b
    ]
    c = sample_records(40, seed=8)
    assert [(r.values, r.persons) for r in a] != [(r.values, r.persons) for r in c]


def _records(recs):
    return [(r.household_id, r.values, r.persons) for r in recs]


@pytest.mark.parametrize(
    "households, seeds",
    [(1, range(10)), (2, range(10)), (40, range(10)), (2000, range(10)), (20000, [11])],
)
def test_sampler_matches_one_choice_per_draw(households, seeds):
    for seed in seeds:
        assert _records(sample_records(households, seed)) == _records(
            oracles.choice_sample_records(households, seed)
        )


# each table is normalised by its sum before it is drawn from, so one that
# sums to 0.9 is drawn from as rescaled, as by one choice per draw
@pytest.mark.parametrize(
    "patch",
    [
        (oracle.EDU_GIVEN_AGE, "18-29", {"High school": 0.40, "College": 0.50}),
        (oracle.HOUSEHOLD_TYPES["family"], "compositions",
         [(("parent", "child"), 0.3), (("parent", "parent", "child"), 0.6)]),
    ],
    ids=["education-sums-to-0.9", "compositions-sum-to-0.9"],
)
def test_sampler_draws_a_table_off_one_as_rescaled(monkeypatch, patch):
    monkeypatch.setitem(*patch)
    assert _records(sample_records(40, 9)) == _records(oracles.choice_sample_records(40, 9))


def test_r65_flag_is_consistent_by_construction():
    recs = sample_records(300, seed=3)
    for r in recs:
        has_senior = any(p[0] in SENIOR_AGES for p in r.persons)
        assert (r.values[2] == "Yes") == has_senior
    table = restructure(recs, desk_schema())
    report = sanity_check(table, desk_rules())
    assert sum(report.counts.values()) == 0


def test_household_sizes_in_window():
    recs = sample_records(200, seed=5)
    assert all(1 <= len(r.persons) <= 3 for r in recs)


def test_sampled_marginals_approach_analytic():
    recs = sample_records(20000, seed=11)
    table = restructure(recs, desk_schema())
    emp = empirical_marginals(table)
    ana = analytic_marginals()
    assert list(ana.proportions) == list(emp.proportions)
    for var, target in ana.proportions.items():
        assert rmse_metric(emp.proportions[var], target) < 0.015


def test_analytic_marginals_are_distributions():
    for weights in (None, SHIFTED_TYPE_WEIGHTS):
        m = analytic_marginals(weights, n_households=400)
        assert list(m.proportions) == ["TEN", "VEH", "R65", "AGEP", "EDU"]
        for v in m.proportions.values():
            assert v.min() >= 0
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
        assert m.n_households == 400


def test_shifted_weights_move_marginals():
    base = analytic_marginals(DEFAULT_TYPE_WEIGHTS)
    shift = analytic_marginals(SHIFTED_TYPE_WEIGHTS)
    gaps = [rmse_metric(base.proportions[v], shift.proportions[v]) for v in base.proportions]
    assert len(gaps) == 5
    # every attribute separates clearly, so target-fit can beat the baseline
    assert min(gaps) > 0.05


def test_weights_validation():
    with pytest.raises(ValueError):
        analytic_marginals({"castle": 1.0})
    with pytest.raises(ValueError):
        analytic_marginals({"family": 0.0})
    with pytest.raises(ValueError):
        sample_records(0, seed=0)

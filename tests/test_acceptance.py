"""Acceptance gate for the population synthesis toolkit.

Nine end-to-end criteria, one test each. Every test records a single
PASS/FAIL line with the measured numbers; the lines are replayed in the
terminal summary (see conftest) so a full run prints a compact scorecard.
The desk-scale criteria (4-8) share one session-scoped run of the chain in
scripts/run_desk_pipeline.py (``run_chain``), which goes entirely through
the CLI entry points; criteria 4-7 assert the flags of that script's
``scorecard`` of the run. Criterion 9 runs the chain twice at a smaller size.
"""

import csv
import hashlib
import json
import time

import numpy as np
import pytest

import oracles
from conftest import load_desk_script
from popsynth import generation, losses, vae
from popsynth.schema import (
    column_layout,
    RestructuredTable,
    decode_onehot_with_stats,
    encode_onehot,
    load_schema,
    load_tables,
)

# the desk-scale recipe, chain and scorecard of scripts/run_desk_pipeline.py:
# every stage is seeded, so these numbers are reproduced bit-for-bit on every
# run (criterion 9 checks that directly)
DESK = load_desk_script()


@pytest.fixture(scope="session")
def verdict(request):
    lines = getattr(request.config, "acceptance_lines", None)
    if lines is None:
        lines = request.config.acceptance_lines = []

    def record(num: int, name: str, ok: bool, detail: str) -> bool:
        line = f"[C{num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        print(line)
        lines.append(line)
        return ok

    return record


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """One run of the script's desk chain: ground truth, pretrain, fine-tune,
    three inventories, fidelity reports and the privacy comparison."""
    w = tmp_path_factory.mktemp("desk")
    seconds = DESK.run_chain(str(w))
    data = w / "data"
    schema = load_schema(data / "schema.json")
    [table] = load_tables(schema, (data / "households.csv", data / "persons.csv"))
    return dict(w=w, data=data, schema=schema, table=table, seconds=seconds,
                card=DESK.scorecard(w))


# --- criterion 1: gradient correctness -------------------------------------

def test_gradient_correctness(verdict):
    start = time.perf_counter()
    worst = 0.0
    width = 9
    for point in range(20):
        rng = np.random.default_rng([101, point])
        n = int(rng.integers(2, 5))
        pred = rng.uniform(0.05, 0.95, size=(n, width))
        target = (rng.uniform(size=pred.shape) < 0.5).astype(float)

        gamma = float(rng.uniform(0.5, 3.0))

        def f_focal(v):
            loss, grad = losses.focal_loss(v.reshape(pred.shape), target, 0.25, gamma)
            return loss, grad

        worst = max(worst, oracles.worst_rel_error(f_focal, pred.ravel()))

        mu = rng.normal(size=(n, 3))
        logsig = rng.normal(scale=0.5, size=(n, 3))

        def f_kl_mu(v):
            loss, gmu, _ = losses.latent_kl(v.reshape(mu.shape), logsig)
            return loss, gmu

        def f_kl_ls(v):
            loss, _, gls = losses.latent_kl(mu, v.reshape(logsig.shape))
            return loss, gls

        worst = max(worst, oracles.worst_rel_error(f_kl_mu, mu.ravel()))
        worst = max(worst, oracles.worst_rel_error(f_kl_ls, logsig.ravel()))

        micro = (rng.uniform(size=(n + 2, width)) < 0.4).astype(float)

        def f_dbce(v):
            r = losses.dbce(v.reshape(pred.shape), micro, temperature=0.7, w_normkl=0.3)
            return r.dbce_loss + 0.3 * r.norm_kl, r.grad

        worst = max(worst, oracles.worst_rel_error(f_dbce, pred.ravel()))

    # marginal RMSE and the full encoder/decoder need a real schema layout
    from conftest import make_tiny_schema

    schema = make_tiny_schema()
    groups, d = column_layout(schema)
    tm_rows = None
    for point in range(20):
        rng = np.random.default_rng([202, point])
        n = int(rng.integers(2, 5))
        from conftest import random_simplex_batch

        pred = random_simplex_batch(rng, groups, n)
        from popsynth.schema import TargetMarginals

        targets = TargetMarginals(
            {
                "OWN": np.array([0.6, 0.4]), "CAR": np.array([0.2, 0.5, 0.3]),
                "AGE": np.array([0.3, 0.5, 0.2]), "JOB": np.array([0.4, 0.3, 0.3]),
            },
            n_households=n,
        )

        def f_marg(v):
            r = losses.marginal_rmse_loss(v.reshape(pred.shape), targets, groups)
            return r.loss, r.grad

        worst = max(worst, oracles.worst_rel_error(f_marg, pred.ravel()))

    model = vae.VaeModel(schema, vae.VaeHyperparams(3, (10, 8, 8, 8, 8, 10), init_seed=3))
    for point in range(20):
        rng = np.random.default_rng([303, point])
        x = random_simplex_batch(rng, groups, 3)
        w_mu = rng.normal(size=(3, model.latent_dim))
        w_ls = rng.normal(size=(3, model.latent_dim))

        def f_enc(v):
            mu, logsig = model.encode(v.reshape(x.shape), train=False)
            loss = float((mu * w_mu).sum() + (logsig * w_ls).sum())
            dx = model.encode_backward(w_mu, w_ls)
            return loss, dx

        worst = max(worst, oracles.worst_rel_error(f_enc, x.ravel()))

        z = rng.normal(size=(3, model.latent_dim))
        w_out = rng.normal(size=(3, d))

        def f_dec(v):
            probs = model.decode(v.reshape(z.shape), train=False)
            loss = float((probs * w_out).sum())
            dz = model.decode_backward(w_out)
            return loss, dz

        worst = max(worst, oracles.worst_rel_error(f_dec, z.ravel()))

    took = time.perf_counter() - start
    ok = worst <= 1e-4 and took < 60
    assert verdict(1, "gradient correctness",
                   ok, f"max rel err {worst:.2e}, {took:.1f}s")


# --- criterion 2: loss identities -------------------------------------------

def test_loss_identities(verdict):
    rng = np.random.default_rng(77)
    worst_focal = 0.0
    for _ in range(100):
        n, d = rng.integers(2, 6), rng.integers(2, 12)
        pred = rng.uniform(0.02, 0.98, size=(n, d))
        target = (rng.uniform(size=pred.shape) < 0.5).astype(float)
        b = oracles.brute_bce(pred, target)
        f, _ = losses.focal_loss(pred, target, alpha=0.5, gamma=0.0)
        worst_focal = max(worst_focal, abs(f - 0.5 * b) / abs(0.5 * b))

    x = (rng.uniform(size=(40, 12)) < 0.5).astype(float)
    r = losses.dbce(losses.clamp01(x), x, temperature=1e-3)

    worst_softmin = 0.0
    for _ in range(100):
        v = rng.uniform(0, 5, size=rng.integers(2, 10))
        soft = float(losses.softmin(v, temperature=1e-3) @ v)
        worst_softmin = max(worst_softmin, abs(soft - v.min()))

    ok = (worst_focal <= 1e-9 and r.dbce_loss <= 1e-4
          and r.norm_kl <= 1e-4 and worst_softmin <= 1e-3)
    assert verdict(
        2, "loss identities", ok,
        f"focal-vs-bce {worst_focal:.1e}, self-match loss {r.dbce_loss:.1e} "
        f"kl {r.norm_kl:.1e}, softmin gap {worst_softmin:.1e}")


# --- criterion 3: matcher equivalence ---------------------------------------

def test_matcher_matches_brute_force(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        n_t = int(rng.integers(1, 9))
        d = int(rng.integers(2, 13))
        tau = float(rng.uniform(0.2, 2.0))
        pred = rng.uniform(0.05, 0.95, size=(n_t, d))
        micro = (rng.uniform(size=(n, d)) < 0.5).astype(float)
        r = losses.dbce(pred, micro, temperature=tau)
        loss_b, kl_b, _, _ = oracles.brute_dbce(pred, micro, tau)
        worst = max(worst, abs(r.dbce_loss - loss_b), abs(r.norm_kl - kl_b))
    took = time.perf_counter() - start
    ok = worst <= 1e-9 and took < 10
    assert verdict(3, "soft matcher equals brute force",
                   ok, f"max abs diff {worst:.1e}, {took:.2f}s")


# --- criteria 4-7: the desk script's scorecard, plus run-time bounds -------


def scored(verdict, desk, num, stages=()):
    key = f"C{num}"
    took = sum(desk["seconds"][k] for k in stages)
    ok = desk["card"][key]["pass"] and took <= 600
    detail = DESK.details(desk["card"])[key] + (f", {took:.0f}s" if stages else "")
    return verdict(num, DESK.NAMES[key], ok, detail)


def test_pretrain_recovery(verdict, desk):
    assert scored(verdict, desk, 4, ("oracle-make", "pretrain", "generate syn_pre_wide",
                                     "evaluate report_pre"))


def test_finetune_distribution_shift(verdict, desk):
    assert scored(verdict, desk, 5, ("finetune", "generate syn_pre_tract", "generate syn_tuned",
                                     "evaluate report_tuned", "privacy"))


def test_realism_preservation(verdict, desk):
    assert scored(verdict, desk, 6)


def test_privacy_nondegradation(verdict, desk):
    assert scored(verdict, desk, 7)


# --- criterion 8: structural suite -------------------------------------------

def test_structural_suite(verdict, desk, tmp_path):
    schema = desk["schema"]
    table = desk["table"]

    # microdata -> inventory files -> reload -> identical restructured table
    prov = generation.Provenance(
        model_fingerprint="", schema_fingerprint=schema.fingerprint(),
        mode="argmax", seed=None, tract_id=None, latent_seed=None,
        n_latent_rows=len(table.households), forced_na_cells=0,
        toolkit_version="")
    (tmp_path / "roundtrip").mkdir()
    generation.write_inventory(
        generation.inventory_from_table(table), prov, tmp_path / "roundtrip")
    [table2] = load_tables(
        schema, (tmp_path / "roundtrip" / "households.csv", tmp_path / "roundtrip" / "persons.csv"))
    round_trip = (np.array_equal(table.households, table2.households)
                  and np.array_equal(table.persons, table2.persons))

    # encode -> argmax decode identity
    decoded, _ = decode_onehot_with_stats(encode_onehot(table), mode="argmax")
    encode_identity = (np.array_equal(decoded.households, table.households)
                       and np.array_equal(decoded.persons, table.persons))

    # inventory referential integrity on a generated inventory
    with open(desk["w"] / "syn_tuned" / "persons.csv", encoding="utf-8") as fh:
        person_rows = list(csv.DictReader(fh))
    with open(desk["w"] / "syn_tuned" / "households.csv", encoding="utf-8") as fh:
        hh_ids = {r["household_id"] for r in csv.DictReader(fh)}
    referential = all(r["household_id"] in hh_ids for r in person_rows)
    person_ids = [r["person_id"] for r in person_rows]
    referential = referential and len(person_ids) == len(set(person_ids))

    # sanity checker: exactly the planted violations in a 20-household
    # fixture, zero violations on the microdata itself
    rules = generation.load_rules(desk["data"] / "rules.json")
    clean = generation.sanity_check(table, rules)
    planted = table.households[:20].copy()
    persons = table.persons[:20].copy()
    ids = table.household_ids[:20]
    age_i = schema.person_names.index("AGEP")
    r65_i = schema.household_names.index("R65")
    r65, agep = schema.household_var("R65"), schema.person_var("AGEP")
    senior = [agep.index("65-74"), agep.index("75 and over")]
    # padding slots are NA, never a senior
    candidates = [i for i in range(20)
                  if planted[i, r65_i] == r65.index("No")
                  and not np.isin(persons[i, :, age_i], senior).any()]
    flag_idx, member_idx = candidates[0], candidates[1]
    planted[flag_idx, r65_i] = r65.index("Yes")  # flag with no qualifying member
    # qualifying member without the flag
    persons[member_idx, 0, age_i] = agep.index("75 and over")
    broken = RestructuredTable(
        schema=schema, household_ids=ids, households=planted, persons=persons)
    report = generation.sanity_check(broken, rules)
    flagged = {hid for v in report.violations.values() for hid, _ in v}
    expected = {ids[flag_idx], ids[member_idx]}
    planted_found = (flagged == expected and sum(report.counts.values()) == 2)

    clean_ok = sum(clean.counts.values()) == 0
    ok = round_trip and encode_identity and referential and planted_found and clean_ok
    assert verdict(8, "structural suite", ok,
                   f"round trip {round_trip}, encode identity {encode_identity}, "
                   f"referential {referential}, planted found {planted_found}, "
                   f"clean microdata {clean_ok}")


# --- criterion 9: reproducibility --------------------------------------------

def test_reproducibility(verdict, tmp_path):
    # the desk chain at C9's sizes, run twice; every output it writes, prior
    # inventories, reports and privacy included, must match byte for byte
    digests = []
    complete = True
    for root in (tmp_path / "a", tmp_path / "b"):
        DESK.run_chain(str(root), DESK.SMALL_RECIPE)
        DESK.write_digests(str(root))
        digests.append(json.loads((root / "digests.json").read_text()))
        on_disk = {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*")
            if p.is_file() and not p.name.endswith("manifest.json")
            and p.name != "digests.json"
        }
        complete = complete and digests[-1] == on_disk
    a, b = digests
    same_names = set(a) == set(b)
    diffs = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    key_outputs = {"model.psv", "latent.psl", "syn_tuned/households.csv"} <= set(a)
    ok = same_names and not diffs and complete and key_outputs
    assert verdict(9, "reproducibility", ok,
                   f"{len(a)} files compared, mismatches: {diffs or 'none'}, "
                   f"digests match the files {complete}, key outputs {key_outputs}")

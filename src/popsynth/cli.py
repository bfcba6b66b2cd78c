"""Command-line front end.

Subcommands: restructure, pretrain, finetune, generate, evaluate, privacy,
oracle-make. Every run that succeeds writes a manifest (resolved
configuration, fingerprints, wall-clock timings, sha256 of every emitted
file) atomically next to its outputs. Exit codes: 0 success, 1 usage or
validation failure (a malformed or mismatched model or latent file included),
2 runtime failure. Seeds are explicit flags; nothing is
seeded from the clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import evaluation, generation, oracle, training, vae
from .losses import distinct_rows
from .schema import (
    DataError,
    SchemaError,
    encode_onehot,
    load_microdata,
    load_schema,
    load_target_marginals,
    restructure,
    write_csv,
    write_encoded,
    write_restructured,
    write_schema,
    write_target_marginals,
    write_text,
)

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


# ---------------------------------------------------------------------------
# helpers


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json_atomic(payload: dict, path) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(path, subcommand, config, outputs, started, fingerprints=None):
    finished = time.time()
    manifest = {
        "subcommand": subcommand,
        "toolkit_version": __version__,
        "config": config,
        "fingerprints": fingerprints or {},
        "started_unix": started,
        "finished_unix": finished,
        "duration_s": finished - started,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    _write_json_atomic(manifest, path)


def _config_dict(args) -> dict:
    return {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }


def _load_tables(schema, *path_pairs):
    """One restructured table per (household CSV, person CSV) pair. An open
    n_window is pinned to the largest household in any of them (at least 1),
    so that every table has one layout."""
    record_sets = [load_microdata(hh, p, schema) for hh, p in path_pairs]
    if schema.n_window is None:
        schema = schema.with_n_window(
            max([1, *(len(r.persons) for records in record_sets for r in records)])
        )
    return [restructure(records, schema) for records in record_sets]


def _train_config(args, **overrides) -> training.TrainConfig:
    fields = dict(
        epochs=args.epochs,
        initial_lr=args.lr,
        min_lr=args.min_lr,
        decay_start_epoch=args.decay_start,
        batch_size=getattr(args, "batch_size", None),
        seed=args.seed,
    )
    fields.update(overrides)
    return training.TrainConfig(**fields)


def _add_train_flags(p, epochs):
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--min-lr", type=float, default=1e-4, dest="min_lr")
    p.add_argument("--decay-start", type=int, default=1000, dest="decay_start")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_restructure(args) -> int:
    started = time.time()
    [table] = _load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "restructured.csv")
    write_restructured(table, out)
    outputs = [out]
    if args.write_encoded:
        enc_path = os.path.join(args.out_dir, "encoded.csv")
        write_encoded(encode_onehot(table), table.schema, enc_path)
        outputs.append(enc_path)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "restructure",
        _config_dict(args),
        outputs,
        started,
        {"schema": table.schema.fingerprint()},
    )
    return 0


def _cmd_pretrain(args) -> int:
    started = time.time()
    [table] = _load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    data = encode_onehot(table)
    widths = tuple(int(w) for w in args.hidden_widths.split(",")) if args.hidden_widths else None
    model = vae.init_model(
        table.schema, latent_dim=args.latent_dim, hidden_widths=widths, seed=args.seed
    )
    config = _train_config(
        args,
        reparam_mode=args.reparam_mode,
        kl_weight=args.kl_weight,
        focal_alpha=args.focal_alpha,
        focal_gamma=args.focal_gamma,
    )
    result = training.pretrain(model, data, config)
    vae.save_model(model, args.out)
    history_path = args.history or f"{args.out}.history.csv"
    training.write_history(
        history_path, training.PRETRAIN_HISTORY_COLUMNS, result.history
    )
    _write_manifest(
        f"{args.out}.manifest.json",
        "pretrain",
        _config_dict(args) | {"focal_alpha_used": result.focal_alpha},
        [args.out, history_path],
        started,
        {"schema": table.schema.fingerprint(), "model": model.checksum()},
    )
    return 0


def _cmd_finetune(args) -> int:
    started = time.time()
    model = vae.load_model(args.model)
    schema = load_schema(args.schema)
    if schema.fingerprint() != model.schema_fingerprint:
        raise DataError("schema does not match the model's schema fingerprint")
    [table] = _load_tables(schema, (args.microdata_hh, args.microdata_p))
    data = encode_onehot(table)
    targets = load_target_marginals(args.tract_marginals, table.schema)
    latent = training.init_latent(targets.n_households, model.latent_dim, args.seed)
    config = _train_config(
        args,
        w_marginal=args.w_marginal,
        w_dbce=args.w_dbce,
        w_normkl=args.w_normkl,
        softmin_temperature=args.temperature,
        dbce_subsample=args.dbce_subsample,
    )
    before = model.decoder_checksum()
    result = training.finetune(model, latent, targets, data, config)
    if model.decoder_checksum() != before:
        raise RuntimeError("decoder parameters changed during fine-tuning")
    training.save_latent(
        latent, args.out_latent, model.schema_fingerprint, model.checksum()
    )
    history_path = args.history or f"{args.out_latent}.history.csv"
    training.write_history(
        history_path, training.FINETUNE_HISTORY_COLUMNS, result.history
    )
    marg_path = f"{args.out_latent}.soft_marginals.json"
    _write_json_atomic(
        {
            "household": {k: list(result.marginals[k]) for k in schema.household_names},
            "person": {k: list(result.marginals[k]) for k in schema.person_names},
            "final_losses": result.final_losses,
        },
        marg_path,
    )
    _write_manifest(
        f"{args.out_latent}.manifest.json",
        "finetune",
        _config_dict(args)
        | {
            "reference_rows": result.reference_rows,
            "distinct_reference_rows": result.distinct_reference_rows,
        },
        [args.out_latent, history_path, marg_path],
        started,
        {"schema": schema.fingerprint(), "model": model.checksum()},
    )
    return 0


def _cmd_generate(args) -> int:
    started = time.time()
    model = vae.load_model(args.model)
    schema = load_schema(args.schema)
    latent, header = training.load_latent(args.latent)
    fingerprint = model.checksum()
    fitted_for = (header.get("schema_fingerprint"), header.get("model_fingerprint"))
    if fitted_for != (model.schema_fingerprint, fingerprint):
        raise DataError(f"{args.latent} was fitted for another model or schema than {args.model}")
    rules = generation.load_rules(args.rules) if args.rules else None
    inventory = generation.generate_inventory(
        model,
        latent,
        schema,
        mode=args.mode,
        seed=args.seed,
        tract_id=args.tract_id,
        toolkit_version=__version__,
    )
    # a rule naming an unknown variable or category fails here, before any write
    report = generation.sanity_check(inventory, rules) if rules is not None else None
    os.makedirs(args.out_dir, exist_ok=True)
    paths = generation.write_inventory(inventory, args.out_dir)
    outputs = list(paths.values())
    if report is not None:
        report_path = os.path.join(args.out_dir, "sanity_report.json")
        generation.write_sanity_report(report, report_path)
        outputs.append(report_path)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "generate",
        _config_dict(args),
        outputs,
        started,
        {"schema": schema.fingerprint(), "model": fingerprint},
    )
    return 0


def _cmd_evaluate(args) -> int:
    started = time.time()
    micro, syn = _load_tables(
        load_schema(args.schema), (args.microdata_hh, args.microdata_p), (args.syn_hh, args.syn_p)
    )
    schema = micro.schema
    targets = (
        load_target_marginals(args.tract_marginals, schema)
        if args.tract_marginals
        else None
    )
    report = evaluation.marginal_report(syn, micro, targets)
    joint = evaluation.joint_pair_metrics(syn, micro)

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    report_path = os.path.join(out_dir, "marginals_report.csv")
    keys = sorted({k for row in report.rows.values() for k in row})
    rows = [
        [name, *[f"{row[k]:.12g}" if k in row else "" for k in keys]]
        for name, row in report.rows.items()
    ]
    rows.append(["__mean__", *[f"{report.means[k]:.12g}" for k in keys]])
    write_csv(report_path, ["variable", *keys], rows)
    outputs.append(report_path)

    for metric_name, values in (
        ("rmse", joint.rmse),
        ("kl", joint.kl),
        ("chi2_p", joint.p_value),
    ):
        path = os.path.join(out_dir, f"joint_{metric_name}.csv")
        write_csv(
            path,
            ["variable_a", "variable_b", metric_name],
            ([a, b, f"{v:.12g}"] for (a, b), v in values.items()),
        )
        outputs.append(path)

    variables = {
        var.name: {
            "categories": list(var.levels),
            "microdata": [float(v) for v in report.reference[var.name]],
            "synthetic": [float(v) for v in report.synthetic[var.name]],
            "target": [float(v) for v in targets.proportions[var.name]] if targets else None,
            "metrics": report.rows[var.name],
        }
        for var in schema.variables
    }
    summary = {
        "variables": variables,
        "means": report.means,
        "joint": {
            "rmse": {f"{a}|{b}": v for (a, b), v in joint.rmse.items()},
            "kl": {f"{a}|{b}": v for (a, b), v in joint.kl.items()},
            "chi2_p": {f"{a}|{b}": v for (a, b), v in joint.p_value.items()},
        },
        "n_households": {"microdata": micro.n_rows, "synthetic": syn.n_rows},
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json_atomic(summary, summary_path)
    outputs.append(summary_path)
    for name, entry in variables.items():
        # one CSV per variable: category, microdata, synthetic, target proportions
        path = os.path.join(out_dir, f"hist_{name}.csv")
        target = entry["target"] or [None] * len(entry["categories"])
        write_csv(
            path,
            ["category", "microdata", "synthetic", "target"],
            (
                [cat, f"{m:.12g}", f"{syn:.12g}", "" if t is None else f"{t:.12g}"]
                for cat, m, syn, t in zip(
                    entry["categories"], entry["microdata"], entry["synthetic"], target
                )
            ),
        )
        outputs.append(path)

    _write_manifest(
        os.path.join(out_dir, "manifest.json"),
        "evaluate",
        _config_dict(args),
        outputs,
        started,
        {"schema": schema.fingerprint()},
    )
    return 0


def _cmd_privacy(args) -> int:
    started = time.time()
    tables = _load_tables(
        load_schema(args.schema),
        (args.microdata_hh, args.microdata_p),
        (args.a_hh, args.a_p),
        (args.b_hh, args.b_p),
    )
    schema = tables[0].schema

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    summary = {"binned": args.binned, "bins": args.bins, "levels": {}}

    dist_path = os.path.join(out_dir, "dcr_distances.csv")
    rows = []
    for level, matrix in (
        ("household", evaluation.household_matrix),
        ("person", evaluation.person_level_matrix),
    ):
        m, xa, xb = (matrix(table) for table in tables)
        m = distinct_rows(m)[0]  # a repeated row cannot change a minimum
        da = evaluation.dcr(xa, m)
        db = evaluation.dcr(xb, m)
        ks = evaluation.ks_test(da, db, binned=args.binned, bins=args.bins)
        summary["levels"][level] = {
            "ks_statistic": ks.statistic,
            "ks_p_value": ks.p_value,
            "a_mean": float(da.mean()),
            "b_mean": float(db.mean()),
            "a_n": int(da.size),
            "b_n": int(db.size),
        }
        rows.extend(
            [(level, "a", i, d) for i, d in enumerate(da)]
            + [(level, "b", i, d) for i, d in enumerate(db)]
        )
        lo = float(min(da.min(), db.min()))
        hi = float(max(da.max(), db.max()))
        edges = np.linspace(lo, hi if hi > lo else lo + 1e-12, args.bins + 1)
        hist_a, _ = np.histogram(da, bins=edges)
        hist_b, _ = np.histogram(db, bins=edges)
        hist_path = os.path.join(out_dir, f"dcr_histogram_{level}.csv")
        write_csv(
            hist_path,
            ["bin_low", "bin_high", "count_a", "count_b"],
            (
                [f"{edges[i]:.12g}", f"{edges[i + 1]:.12g}", hist_a[i], hist_b[i]]
                for i in range(args.bins)
            ),
        )
        outputs.append(hist_path)
    write_csv(
        dist_path,
        ["level", "inventory", "row", "distance"],
        ([level, inv, i, f"{d:.12g}"] for level, inv, i, d in rows),
    )
    outputs.append(dist_path)

    summary_path = os.path.join(out_dir, "privacy_summary.json")
    _write_json_atomic(summary, summary_path)
    outputs.append(summary_path)
    _write_manifest(
        os.path.join(out_dir, "manifest.json"),
        "privacy",
        _config_dict(args),
        outputs,
        started,
        {"schema": schema.fingerprint()},
    )
    return 0


def _parse_weights(text):
    if not text:
        return None
    out = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise UsageError(f"bad type weight {part!r}; expected name=weight")
        out[name.strip()] = float(value)
    return out


def _cmd_oracle_make(args) -> int:
    started = time.time()
    schema = oracle.desk_schema()
    records = oracle.sample_records(
        args.households, args.seed, _parse_weights(args.type_weights)
    )
    os.makedirs(args.out_dir, exist_ok=True)

    schema_path = os.path.join(args.out_dir, "schema.json")
    write_schema(schema, schema_path)
    hh_path = os.path.join(args.out_dir, "households.csv")
    p_path = os.path.join(args.out_dir, "persons.csv")
    write_csv(
        hh_path,
        ["household_id", *schema.household_names],
        ([rec.household_id, *rec.values] for rec in records),
    )
    write_csv(
        p_path,
        ["household_id", *schema.person_names],
        ([rec.household_id, *p] for rec in records for p in rec.persons),
    )

    tract_weights = _parse_weights(args.tract_type_weights)
    targets = oracle.analytic_marginals(
        tract_weights if tract_weights is not None else oracle.SHIFTED_TYPE_WEIGHTS,
        n_households=args.tract_households,
    )
    tract_path = os.path.join(args.out_dir, "tract_marginals.csv")
    write_target_marginals(targets, schema, tract_path)

    rules_path = os.path.join(args.out_dir, "rules.json")
    generation.write_rules(oracle.desk_rules(), rules_path)

    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "oracle-make",
        _config_dict(args),
        [schema_path, hh_path, p_path, tract_path, rules_path],
        started,
        {"schema": schema.fingerprint()},
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="popsynth", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def microdata_flags(p):
        p.add_argument("--schema", required=True)
        p.add_argument("--microdata-hh", required=True, dest="microdata_hh")
        p.add_argument("--microdata-p", required=True, dest="microdata_p")

    p = sub.add_parser("restructure", help="fold persons into household rows")
    microdata_flags(p)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--write-encoded", action="store_true", dest="write_encoded")
    p.set_defaults(func=_cmd_restructure)

    p = sub.add_parser("pretrain", help="fit the autoencoder to microdata")
    microdata_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p, epochs=4000)
    p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    p.add_argument("--latent-dim", type=int, default=vae.DEFAULT_LATENT_DIM, dest="latent_dim")
    p.add_argument(
        "--hidden-widths",
        default=None,
        dest="hidden_widths",
        help="six comma-separated encoder widths; decoder mirrors them",
    )
    p.add_argument(
        "--reparam-mode",
        choices=["paper-literal", "standard"],
        default="paper-literal",
        dest="reparam_mode",
    )
    p.add_argument("--kl-weight", type=float, default=1.0, dest="kl_weight")
    p.add_argument("--focal-gamma", type=float, default=2.0, dest="focal_gamma")
    p.add_argument("--focal-alpha", type=float, default=None, dest="focal_alpha")
    p.add_argument("--history", default=None)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fit a latent matrix to tract marginals")
    microdata_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tract-marginals", required=True, dest="tract_marginals")
    p.add_argument("--out-latent", required=True, dest="out_latent")
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p, epochs=4000)
    p.add_argument("--w-marginal", type=float, default=1.0, dest="w_marginal")
    p.add_argument("--w-dbce", type=float, default=1.0, dest="w_dbce")
    p.add_argument("--w-normkl", type=float, default=0.1, dest="w_normkl")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--dbce-subsample", type=int, default=None, dest="dbce_subsample")
    p.add_argument("--history", default=None)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("generate", help="decode a latent matrix into an inventory")
    p.add_argument("--model", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--latent", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--mode", choices=["argmax", "sample"], default="argmax")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tract-id", default=None, dest="tract_id")
    p.add_argument("--rules", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="fidelity report: synthetic vs microdata")
    microdata_flags(p)
    p.add_argument("--syn-hh", required=True, dest="syn_hh")
    p.add_argument("--syn-p", required=True, dest="syn_p")
    p.add_argument("--tract-marginals", default=None, dest="tract_marginals")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("privacy", help="DCR distributions of two inventories")
    microdata_flags(p)
    p.add_argument("--a-hh", required=True, dest="a_hh")
    p.add_argument("--a-p", required=True, dest="a_p")
    p.add_argument("--b-hh", required=True, dest="b_hh")
    p.add_argument("--b-p", required=True, dest="b_p")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--binned", action="store_true")
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=_cmd_privacy)

    p = sub.add_parser("oracle-make", help="desk-scale ground-truth dataset")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--households", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tract-households", type=int, default=400, dest="tract_households")
    p.add_argument("--type-weights", default=None, dest="type_weights")
    p.add_argument(
        "--tract-type-weights", default=None, dest="tract_type_weights"
    )
    p.set_defaults(func=_cmd_oracle_make)

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, SchemaError, DataError, vae.ModelFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (training.TrainingDivergedError, OSError, RuntimeError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

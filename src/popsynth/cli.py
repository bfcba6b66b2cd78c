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
import contextlib
import hashlib
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
    write_json,
    write_restructured,
    write_schema,
    write_target_marginals,
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


def _write_manifest(path, subcommand, config, outputs, started, fingerprints):
    finished = time.time()
    manifest = {
        "subcommand": subcommand,
        "toolkit_version": __version__,
        "config": config,
        "fingerprints": fingerprints,
        "started_unix": started,
        "finished_unix": finished,
        "duration_s": finished - started,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    write_json(path, manifest)


def _out_path(args, *name) -> str:
    """``name`` under ``--out-dir`` (the directory itself without a name).
    The directory is made on first use, so a command that checks its input
    before it asks for a path writes nothing when a check fails."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, *name)


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


@contextlib.contextmanager
def _usage_errors():
    """Re-raise a ValueError as a UsageError. Commands build their settings
    inside this block before they read any data, so a bad number exits 1."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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


def _require_counts(args, *names) -> None:
    for name in names:
        if getattr(args, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")


def _add_train_flags(p, epochs):
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--min-lr", type=float, default=1e-4, dest="min_lr")
    p.add_argument("--decay-start", type=int, default=1000, dest="decay_start")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_restructure(args):
    [table] = _load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    out = _out_path(args, "restructured.csv")
    write_restructured(table, out)
    outputs = [out]
    if args.write_encoded:
        enc_path = _out_path(args, "encoded.csv")
        write_encoded(encode_onehot(table), table.schema, enc_path)
        outputs.append(enc_path)
    return outputs, {"schema": table.schema.fingerprint()}


def _cmd_pretrain(args):
    with _usage_errors():
        widths = (
            tuple(int(w) for w in args.hidden_widths.split(","))
            if args.hidden_widths
            else vae.DEFAULT_ENCODER_WIDTHS
        )
        hyper = vae.VaeHyperparams(args.latent_dim, widths, args.seed)
        config = _train_config(
            args,
            reparam_mode=args.reparam_mode,
            kl_weight=args.kl_weight,
            focal_gamma=args.focal_gamma,
        )
    [table] = _load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    if table.n_rows < 2:
        raise DataError(
            f"pretraining needs at least 2 households; {args.microdata_hh} has {table.n_rows}"
        )
    data = encode_onehot(table)
    model = vae.init_model(
        table.schema, hyper.latent_dim, hyper.encoder_widths, hyper.init_seed
    )
    result = training.pretrain(model, data, config)
    vae.save_model(model, args.out)
    history_path = f"{args.out}.history.csv"
    training.write_history(
        history_path, training.PRETRAIN_HISTORY_COLUMNS, result.history
    )
    return (
        [args.out, history_path],
        {"schema": table.schema.fingerprint(), "model": model.checksum()},
        {"focal_alpha_used": result.focal_alpha},
    )


def _cmd_finetune(args):
    with _usage_errors():
        config = _train_config(
            args,
            w_marginal=args.w_marginal,
            w_dbce=args.w_dbce,
            w_normkl=args.w_normkl,
            softmin_temperature=args.temperature,
        )
    model = vae.load_model(args.model)
    schema = load_schema(args.schema)
    if schema.fingerprint() != model.schema_fingerprint:
        raise DataError("schema does not match the model's schema fingerprint")
    [table] = _load_tables(schema, (args.microdata_hh, args.microdata_p))
    data = encode_onehot(table)
    targets = load_target_marginals(args.tract_marginals, table.schema)
    latent = training.init_latent(targets.n_households, model.latent_dim, args.seed)
    before = model.decoder_checksum()
    result = training.finetune(model, latent, targets, data, config)
    if model.decoder_checksum() != before:
        raise RuntimeError("decoder parameters changed during fine-tuning")
    training.save_latent(
        latent, args.out_latent, model.schema_fingerprint, model.checksum()
    )
    history_path = f"{args.out_latent}.history.csv"
    training.write_history(
        history_path, training.FINETUNE_HISTORY_COLUMNS, result.history
    )
    marg_path = f"{args.out_latent}.soft_marginals.json"
    write_json(
        marg_path,
        {
            "household": {k: list(result.marginals[k]) for k in schema.household_names},
            "person": {k: list(result.marginals[k]) for k in schema.person_names},
            "final_losses": result.final_losses,
        },
    )
    return (
        [args.out_latent, history_path, marg_path],
        {"schema": schema.fingerprint(), "model": model.checksum()},
        {
            "reference_rows": result.reference_rows,
            "distinct_reference_rows": result.distinct_reference_rows,
        },
    )


def _cmd_generate(args):
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
    outputs = list(generation.write_inventory(inventory, _out_path(args)).values())
    if report is not None:
        report_path = _out_path(args, "sanity_report.json")
        generation.write_sanity_report(report, report_path)
        outputs.append(report_path)
    return outputs, {"schema": schema.fingerprint(), "model": fingerprint}


def _cmd_evaluate(args):
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
    joint_metrics = (("rmse", joint.rmse), ("kl", joint.kl), ("chi2_p", joint.p_value))

    report_path = _out_path(args, "marginals_report.csv")
    keys = sorted({k for row in report.rows.values() for k in row})
    rows = [
        [name, *[f"{row[k]:.12g}" if k in row else "" for k in keys]]
        for name, row in report.rows.items()
    ]
    rows.append(["__mean__", *[f"{report.means[k]:.12g}" for k in keys]])
    write_csv(report_path, ["variable", *keys], rows)
    outputs = [report_path]

    for metric_name, values in joint_metrics:
        path = _out_path(args, f"joint_{metric_name}.csv")
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
            metric_name: {f"{a}|{b}": v for (a, b), v in values.items()}
            for metric_name, values in joint_metrics
        },
        "n_households": {"microdata": micro.n_rows, "synthetic": syn.n_rows},
    }
    summary_path = _out_path(args, "summary.json")
    write_json(summary_path, summary)
    outputs.append(summary_path)
    for name, entry in variables.items():
        # one CSV per variable: category, microdata, synthetic, target proportions
        path = _out_path(args, f"hist_{name}.csv")
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
    return outputs, {"schema": schema.fingerprint()}


def _cmd_privacy(args):
    _require_counts(args, "bins")
    pairs = [(args.microdata_hh, args.microdata_p), (args.a_hh, args.a_p), (args.b_hh, args.b_p)]
    tables = _load_tables(load_schema(args.schema), *pairs)
    for (hh, p), table in zip(pairs, tables):
        if not table.occupied.any():
            raise DataError(f"{hh} and {p} hold no persons; privacy compares persons too")
    schema = tables[0].schema

    outputs = []
    summary = {"binned": args.binned, "bins": args.bins, "levels": {}}
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
        hist_path = _out_path(args, f"dcr_histogram_{level}.csv")
        write_csv(
            hist_path,
            ["bin_low", "bin_high", "count_a", "count_b"],
            (
                [f"{edges[i]:.12g}", f"{edges[i + 1]:.12g}", hist_a[i], hist_b[i]]
                for i in range(args.bins)
            ),
        )
        outputs.append(hist_path)
    dist_path = _out_path(args, "dcr_distances.csv")
    write_csv(
        dist_path,
        ["level", "inventory", "row", "distance"],
        ([level, inv, i, f"{d:.12g}"] for level, inv, i, d in rows),
    )
    outputs.append(dist_path)

    summary_path = _out_path(args, "privacy_summary.json")
    write_json(summary_path, summary)
    outputs.append(summary_path)
    return outputs, {"schema": schema.fingerprint()}


def _cmd_oracle_make(args):
    """Microdata from the default household-type mix, and the marginals of a
    tract with the shifted mix."""
    _require_counts(args, "households", "tract_households")
    schema = oracle.desk_schema()
    records = oracle.sample_records(args.households, args.seed)

    schema_path = _out_path(args, "schema.json")
    write_schema(schema, schema_path)
    hh_path = _out_path(args, "households.csv")
    p_path = _out_path(args, "persons.csv")
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

    targets = oracle.analytic_marginals(
        oracle.SHIFTED_TYPE_WEIGHTS, n_households=args.tract_households
    )
    tract_path = _out_path(args, "tract_marginals.csv")
    write_target_marginals(targets, schema, tract_path)

    rules_path = _out_path(args, "rules.json")
    generation.write_rules(oracle.desk_rules(), rules_path)
    return [schema_path, hh_path, p_path, tract_path, rules_path], {"schema": schema.fingerprint()}


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
    p.set_defaults(func=_cmd_oracle_make)

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    started = time.time()
    try:
        # a command returns its outputs, its fingerprints and, optionally,
        # config keys of its own; the manifest goes in --out-dir when the
        # command has one, else next to its first output
        outputs, fingerprints, *extra = args.func(args)
        manifest = (
            os.path.join(args.out_dir, "manifest.json")
            if "out_dir" in vars(args)
            else f"{outputs[0]}.manifest.json"
        )
        config = _config_dict(args) | dict(*extra)
        _write_manifest(manifest, args.subcommand, config, outputs, started, fingerprints)
        return 0
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

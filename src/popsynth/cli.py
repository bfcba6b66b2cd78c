"""Command-line front end.

Subcommands: restructure, pretrain, finetune, generate, evaluate, privacy,
oracle-make. Every input file is read whole as UTF-8 text (a model or latent
as bytes) through ``schema.read_input``. Every run that succeeds writes a
manifest (resolved configuration, fingerprints, wall-clock timings, the
process's peak RSS, numpy's BLAS, sha256 of every emitted file) atomically
next to its outputs. Exit codes: 0 success; 1 bad flags, unreadable,
undecodable or malformed inputs and mismatched artifacts (every
``DataError``); 2 divergence, a model that changed during fine-tuning, write
failures and running out of memory. Seeds are explicit flags; nothing is
seeded from the clock.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from . import evaluation, generation, oracle, rowpool, training, vae
from .schema import (
    DataError,
    distinct_rows,
    encode_onehot,
    load_schema,
    load_tables,
    load_target_marginals,
    write_csv,
    write_encoded,
    write_json,
    write_restructured,
    write_schema,
    write_target_marginals,
)

TRAIN_FIELDS = {f.name for f in fields(training.TrainConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every other exit-1 path; -h prints the usage
        raise DataError(f"{self.prog}: {message}")


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
        # the process's peak so far (KiB on Linux): a running maximum in-process
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas": _blas(),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    write_json(path, manifest)


def _blas() -> dict:
    """numpy's BLAS and its thread count now (null where numpy's OpenBLAS
    is not found): the matcher's bits depend on the BLAS, and on its thread
    count where ``rowpool.parked`` does not park it (the manifest's
    ``matcher_workers`` is 1), so a latent is reproduced only with them on
    record."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = rowpool.openblas_threads()
    return {"name": info["name"], "version": info["version"],
            "threads": openblas[0]() if openblas else None}


class _Outputs(list):
    """The files a command writes, in order; the manifest lists them.

    ``--out-dir`` is checked when the list is built: it must not be empty,
    and it, or the part of it that exists, must be a directory. ``out(name)``
    is ``name`` under it, made on first use, so a command that checks its
    input before it asks for a path writes nothing when a check fails.
    ``out.file(path, flag)`` is a ``--out`` or ``--out-latent`` file, checked
    when it is recorded (it too must not be empty): a command records those
    before it reads any data."""

    def __init__(self, out_dir=None):
        super().__init__()
        if out_dir == "":
            raise DataError("--out-dir: the path is empty")
        self.out_dir = existing = out_dir
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise DataError(f"--out-dir: {existing} is not a directory")

    def directory(self) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return self.out_dir

    def __call__(self, name) -> str:
        self.append(os.path.join(self.directory(), name))
        return self[-1]

    def file(self, path, flag) -> str:
        if not path:
            raise DataError(f"{flag}: the path is empty")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise DataError(f"{flag}: directory {parent} does not exist")
        if os.path.isdir(path):
            raise DataError(f"{flag}: {path} is a directory")
        self.append(path)
        return path


def _train_config(args) -> training.TrainConfig:
    """The TrainConfig of the command's flags, which carry the field names."""
    return training.TrainConfig(**{k: v for k, v in vars(args).items() if k in TRAIN_FIELDS})


def _seed(text: str) -> int:
    """A --seed value: numpy seeds are non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {seed}")
    return seed


def _count(text: str) -> int:
    """A --households or --tract-households value: a positive integer."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {count}")
    return count


def _widths(text: str) -> tuple[int, ...]:
    """A --hidden-widths value: comma-separated integers."""
    try:
        return tuple(int(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _add_train_flags(p, *names):
    """``--seed`` and one flag per TrainConfig field in ``names``, named
    after the field and defaulting to the field's default."""
    p.add_argument("--seed", type=_seed, required=True)
    for name in names:
        default = getattr(training.TrainConfig, name)
        p.add_argument(
            f"--{name.replace('_', '-')}",
            type=float if isinstance(default, float) else int,
            default=default,
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_restructure(args, out):
    [table] = load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    write_restructured(table, out("restructured.csv"))
    if args.write_encoded:
        write_encoded(table, out("encoded.csv"))
    return {"schema": table.schema.fingerprint()}, {}


def _cmd_pretrain(args, out):
    widths = args.hidden_widths or vae.VaeHyperparams.encoder_widths
    hyper = vae.VaeHyperparams(args.latent_dim, widths, args.seed)
    config = _train_config(args)
    model_path = out.file(args.out, "--out")
    history_path = out.file(f"{args.out}.history.csv", "--out")
    [table] = load_tables(load_schema(args.schema), (args.microdata_hh, args.microdata_p))
    if table.n_rows < 2:
        raise DataError(
            f"pretraining needs at least 2 households; {args.microdata_hh} has {table.n_rows}"
        )
    data = encode_onehot(table)
    model = vae.VaeModel(table.schema, hyper)
    result = training.pretrain(model, data, config)
    vae.save_model(model, model_path)
    training.write_history(history_path, training.PRETRAIN_HISTORY_COLUMNS, result.history)
    return (
        {"schema": table.schema.fingerprint(), "model": model.checksum()},
        {"focal_alpha_used": result.focal_alpha},
    )


def _cmd_finetune(args, out):
    config = _train_config(args)
    latent_path, history_path, marg_path = (
        out.file(f"{args.out_latent}{suffix}", "--out-latent")
        for suffix in ("", ".history.csv", ".soft_marginals.json")
    )
    model = vae.load_model(args.model)
    schema = model.schema_for(load_schema(args.schema))
    [table] = load_tables(schema, (args.microdata_hh, args.microdata_p))
    if table.n_rows == 0:
        raise DataError(f"--microdata-hh: fine-tuning needs at least 1 household; "
                        f"{args.microdata_hh} has 0")
    targets = load_target_marginals(args.tract_marginals, table.schema)
    latent = training.init_latent(targets.n_households, model.latent_dim, args.seed)
    fingerprint = model.checksum()
    result = training.finetune(model, latent, targets, table, config)
    if model.checksum() != fingerprint:
        raise RuntimeError("model changed during fine-tuning")
    training.save_latent(latent, latent_path, model.schema_fingerprint, fingerprint)
    training.write_history(history_path, training.FINETUNE_HISTORY_COLUMNS, result.history)
    write_json(
        marg_path,
        {
            "household": {k: list(result.marginals[k]) for k in schema.household_names},
            "person": {k: list(result.marginals[k]) for k in schema.person_names},
            "final_losses": result.final_losses,
        },
    )
    return (
        {"schema": schema.fingerprint(), "model": fingerprint},
        {
            "reference_rows": result.reference_rows,
            "distinct_reference_rows": result.distinct_reference_rows,
            "matcher_workers": result.matcher_workers,
        },
    )


def _cmd_generate(args, out):
    model = vae.load_model(args.model)
    schema = model.schema_for(load_schema(args.schema))
    latent, header = training.load_latent(args.latent)
    fingerprint = model.checksum()
    fitted_for = (header.get("schema_fingerprint"), header.get("model_fingerprint"))
    if fitted_for != (model.schema_fingerprint, fingerprint):
        raise DataError(f"{args.latent} was fitted for another model or schema than {args.model}")
    if latent.z.shape[1] != model.latent_dim:
        raise DataError(f"{args.latent} holds latents {latent.z.shape[1]} wide; "
                        f"{args.model} decodes latents {model.latent_dim} wide")
    rules = generation.load_rules(args.rules) if args.rules else None
    table, provenance = generation.generate_inventory(
        model,
        latent,
        mode=args.mode,
        seed=args.seed,
        tract_id=args.tract_id,
        toolkit_version=__version__,
    )
    # a rule naming an unknown variable or category fails here, before any write
    report = generation.sanity_check(table, rules) if rules is not None else None
    out.extend(generation.write_inventory(table, provenance, out.directory()).values())
    if report is not None:
        generation.write_sanity_report(report, out("sanity_report.json"))
    return {"schema": schema.fingerprint(), "model": fingerprint}, {}


def _cmd_evaluate(args, out):
    micro, syn = load_tables(
        load_schema(args.schema), (args.microdata_hh, args.microdata_p), (args.syn_hh, args.syn_p)
    )
    schema = micro.schema
    tract = args.tract_marginals
    targets = load_target_marginals(tract, schema) if tract else None
    report = evaluation.marginal_report(syn, micro, targets)
    joint = evaluation.joint_pair_metrics(syn, micro)
    joint_metrics = (("rmse", joint.rmse), ("kl", joint.kl), ("chi2_p", joint.p_value))

    keys = list(report.means)
    rows = [
        [name, *[f"{row[k]:.12g}" if k in row else "" for k in keys]]
        for name, row in report.rows.items()
    ]
    rows.append(["__mean__", *[f"{report.means[k]:.12g}" for k in keys]])
    write_csv(out("marginals_report.csv"), ["variable", *keys], rows)

    for metric_name, values in joint_metrics:
        write_csv(
            out(f"joint_{metric_name}.csv"),
            ["variable_a", "variable_b", metric_name],
            ([a, b, f"{v:.12g}"] for (a, b), v in values.items()),
        )

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
    write_json(out("summary.json"), summary)
    for name, entry in variables.items():
        # one CSV per variable: category, microdata, synthetic, target proportions
        target = entry["target"] or [None] * len(entry["categories"])
        write_csv(
            out(f"hist_{name}.csv"),
            ["category", "microdata", "synthetic", "target"],
            (
                [cat, f"{m:.12g}", f"{syn:.12g}", "" if t is None else f"{t:.12g}"]
                for cat, m, syn, t in zip(
                    entry["categories"], entry["microdata"], entry["synthetic"], target
                )
            ),
        )
    return {"schema": schema.fingerprint()}, {}


def _cmd_privacy(args, out):
    pairs = [(args.microdata_hh, args.microdata_p), (args.a_hh, args.a_p), (args.b_hh, args.b_p)]
    tables = load_tables(load_schema(args.schema), *pairs)
    for (hh, p), table in zip(pairs, tables):
        if not table.occupied.any():
            raise DataError(f"{hh} and {p} hold no persons; privacy compares persons too")
    micro = tables[0]

    summary = {"levels": {}}
    rows = []
    # a level's codes are built only to be deduplicated, so dcr runs without them
    for level, matrix, codes in (
        ("household", evaluation.household_matrix, lambda t: t.codes),
        ("person", evaluation.person_level_matrix, lambda t: t.person_codes()),
    ):
        m, xa, xb = (matrix(table) for table in tables)
        # a repeated row cannot change a minimum; rows that are all distinct,
        # as census rows are, are kept without a copy
        first = distinct_rows(codes(micro))[0]
        if first.size < len(m):
            m = m[first]
        dist = evaluation.dcr(np.concatenate([xa, xb]), m)
        da, db = dist[: len(xa)], dist[len(xa) :]
        ks = evaluation.ks_test(da, db)
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
        # DCR takes one value per best match count, so rows tie: each
        # distance that occurs gets one row of counts
        values, index = np.unique(dist, return_inverse=True)
        counts = [np.bincount(index[s], minlength=values.size)
                  for s in (slice(len(xa)), slice(len(xa), None))]
        write_csv(
            out(f"dcr_histogram_{level}.csv"),
            ["distance", "count_a", "count_b"],
            ([f"{v:.12g}", ca, cb] for v, ca, cb in zip(values, *counts)),
        )
    write_csv(
        out("dcr_distances.csv"),
        ["level", "inventory", "row", "distance"],
        ([level, inv, i, f"{d:.12g}"] for level, inv, i, d in rows),
    )
    write_json(out("privacy_summary.json"), summary)
    return {"schema": micro.schema.fingerprint()}, {}


def _cmd_oracle_make(args, out):
    """Microdata from the default household-type mix, and the marginals of a
    tract with the shifted mix."""
    schema = oracle.desk_schema()
    records = oracle.sample_records(args.households, args.seed)

    write_schema(schema, out("schema.json"))
    write_csv(
        out("households.csv"),
        ["household_id", *schema.household_names],
        ([rec.household_id, *rec.values] for rec in records),
    )
    write_csv(
        out("persons.csv"),
        ["household_id", *schema.person_names],
        ([rec.household_id, *p] for rec in records for p in rec.persons),
    )

    targets = oracle.analytic_marginals(
        oracle.SHIFTED_TYPE_WEIGHTS, n_households=args.tract_households
    )
    write_target_marginals(targets, schema, out("tract_marginals.csv"))
    generation.write_rules(oracle.desk_rules(), out("rules.json"))
    return {"schema": schema.fingerprint()}, {}


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
    _add_train_flags(
        p, "epochs", "lr", "min_lr", "decay_start", "batch_size", "kl_weight", "focal_gamma"
    )
    p.add_argument("--latent-dim", type=int, default=vae.VaeHyperparams.latent_dim)
    p.add_argument(
        "--hidden-widths",
        type=_widths,
        default=None,
        dest="hidden_widths",
        help="six comma-separated encoder widths; decoder mirrors them",
    )
    # the one sampler, mu + noise * exp(0.5 * logsig); the flag is kept only
    # because existing command lines pass it
    p.add_argument(
        "--reparam-mode", choices=["standard"], default="standard", dest="reparam_mode"
    )
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fit a latent matrix to tract marginals")
    microdata_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tract-marginals", required=True, dest="tract_marginals")
    p.add_argument("--out-latent", required=True, dest="out_latent")
    _add_train_flags(
        p, "epochs", "lr", "min_lr", "decay_start", "w_marginal", "w_dbce", "w_normkl",
        "temperature",
    )
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("generate", help="decode a latent matrix into an inventory")
    p.add_argument("--model", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--latent", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--mode", choices=["argmax", "sample"], default="argmax")
    p.add_argument("--seed", type=_seed, required=True)
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
    p.set_defaults(func=_cmd_privacy)

    p = sub.add_parser("oracle-make", help="desk-scale ground-truth dataset")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--households", type=_count, default=2000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--tract-households", type=_count, default=400, dest="tract_households")
    p.set_defaults(func=_cmd_oracle_make)

    return parser


def run(argv) -> int:
    """Execute one subcommand; returns the process exit code."""
    started = time.time()
    try:
        args = build_parser().parse_args(argv)
        out = _Outputs(getattr(args, "out_dir", None))
        # a command records its files in ``out`` and returns its fingerprints
        # and the config keys of its own; the manifest goes in --out-dir when
        # the command has one, else next to its first output
        fingerprints, extra = args.func(args, out)
        manifest = (
            os.path.join(out.out_dir, "manifest.json") if out.out_dir else f"{out[0]}.manifest.json"
        )
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
        _write_manifest(manifest, args.subcommand, config | extra, out, started, fingerprints)
        return 0
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array it could not allocate; Python's is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime failure: out of memory{detail}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

"""Command-line entry points.

Subcommands: generate | transform | train | evaluate | report. Shared
flags: --config PATH, --seed INT, --force, --out DIR. Every command
writes a manifest (manifest.json, or eval_manifest.json for evaluate,
which shares the training run directory) embedding the command name, the
effective seed and the fully resolved config; passing that manifest back
as --config reproduces the run bit for bit.

Exit status: 0 on success, 2 on configuration / file-format errors,
3 on a numeric failure (with a diagnostic dump on stderr).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .alignment import Trainer, cosine_similarity_matrix, encode_pairs, init_parameters
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, load_config
from .datagen import BANK_FILE, IMAGES_DIR, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, FormatError, NumericError, ProtocolError
from .evaluation import nway_evaluate
from .pixmap import read_pixmap, write_pixmap
from .providers import BankProvider, EmbeddingBank, SyntheticProvider

__all__ = ["main"]

_TRANSFORM_VIEWS = ("foveated", "noise", "lowres", "mosaic")
_METRICS_COLUMNS = (
    "epoch", "loss", "mean_smoothed_sim",
    "kernel_min", "kernel_mean", "kernel_max", "t_lower", "t_upper",
)
_EVAL_COLUMNS = ("subject", "n", "seed", "trials", "top1", "top5", "map", "similarity")


def _refuse_existing(paths, force: bool) -> None:
    if force:
        return
    for p in paths:
        if Path(p).exists():
            raise ConfigError(f"{p} already exists (pass --force to overwrite)")


def _write_manifest(directory: Path, command: str, seed, config: RunConfig,
                    filename: str = "manifest.json") -> None:
    manifest = {"command": command, "seed": seed, "config": config.to_dict()}
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (directory / filename).write_text(text, encoding="utf-8")


def _with_seed(config: RunConfig, section: str, field: str, seed: int | None) -> RunConfig:
    if seed is None:
        return config
    part = dataclasses.replace(getattr(config, section), **{field: int(seed)})
    return dataclasses.replace(config, **{section: part})


def _load_data(config: RunConfig, splits):
    """(bank, provider) for the configured provider kind; only the synthetic
    provider reads pixmaps, and only those of the samples in `splits`."""
    kind = config.provider.kind
    bank, images = load_dataset(config.paths.dataset, splits if kind == "synthetic" else ())
    if kind == "bank":
        if bank.views != config.views.count:
            raise ConfigError(
                f"embedding bank stores {bank.views} views but the config "
                f"enables {config.views.count}"
            )
        if bank.dim_feature != config.provider.dim_feature:
            raise ConfigError(
                f"embedding bank stores dim_feature={bank.dim_feature} but the "
                f"config asks for {config.provider.dim_feature}"
            )
        return bank, BankProvider(bank)
    for height, width in sorted({image.shape[1:] for image in images if image is not None}):
        config.transforms.check_fits(
            height, width, config.views.enabled(), f"images of dataset {config.paths.dataset}"
        )
    return bank, SyntheticProvider(
        config.transforms, config.views,
        config.provider.dim_feature, config.provider.seed, images,
    )


# -- subcommands ---------------------------------------------------------


def cmd_generate(args) -> int:
    config, manifest_seed = load_config(args.config, "generate")
    seed = args.seed if args.seed is not None else manifest_seed
    config = _with_seed(config, "data", "seed", seed)
    out = Path(args.out) if args.out else Path(config.paths.dataset)
    _refuse_existing([out / BANK_FILE, out / IMAGES_DIR, out / "manifest.json"], args.force)
    bank, images = generate_dataset(config)
    save_dataset(out, bank, images)
    _write_manifest(out, "generate", config.data.seed, config)
    print(f"generated {bank.sample_count} samples ({len(bank.indices('test'))} test) in {out}")
    return 0


def cmd_transform(args) -> int:
    config, manifest_seed = load_config(args.config, "transform")
    seed = args.seed if args.seed is not None else manifest_seed
    noise_seed = int(seed) if seed is not None else 0
    out = Path(args.out) if args.out else Path("views")
    files = [out / f"{name}.ppm" for name in _TRANSFORM_VIEWS]
    _refuse_existing(files + [out / "manifest.json"], args.force)
    image = read_pixmap(config.paths.input_image)
    t = config.transforms
    t.check_fits(*image.shape[1:], _TRANSFORM_VIEWS, f"input image {config.paths.input_image}")
    provider = SyntheticProvider(
        t, config.views, config.provider.dim_feature, config.provider.seed, [image]
    )
    views = [
        provider.view_image(name, image, t.kernel_size, noise_seed) for name in _TRANSFORM_VIEWS
    ]
    out.mkdir(parents=True, exist_ok=True)
    for path, view in zip(files, views):
        write_pixmap(path, view)
    _write_manifest(out, "transform", noise_seed, config)
    print(f"wrote {len(views)} views of {config.paths.input_image} to {out}")
    return 0


def _write_metrics_csv(path, reports) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRICS_COLUMNS)
        for r in reports:
            writer.writerow([
                r.epoch, r.loss, r.mean_smoothed,
                r.kernel_min, r.kernel_mean, r.kernel_max, r.t_lower, r.t_upper,
            ])


def cmd_train(args) -> int:
    config, manifest_seed = load_config(args.config, "train")
    seed = args.seed if args.seed is not None else manifest_seed
    config = _with_seed(config, "training", "seed", seed)
    checkpoint_path = Path(config.paths.checkpoint)
    out = Path(args.out) if args.out else checkpoint_path.parent
    if args.out:
        checkpoint_path = out / checkpoint_path.name
    _refuse_existing([checkpoint_path, out / "metrics.csv", out / "manifest.json"], args.force)

    bank, provider = _load_data(config, ("train",))
    trainer = Trainer(config, bank, provider)
    reports = trainer.train()

    out.mkdir(parents=True, exist_ok=True)
    metadata = {
        "config_hash": config_hash(config),
        "dataset_tag": bank.tag,
        "seed": config.training.seed,
        "epochs": config.training.epochs,
        "views": provider.views,
        "view_names": config.views.enabled(),
        "dim_feature": provider.dim_feature,
        "dim_neural": bank.dim_neural,
        "dim_latent": config.fusion.dim_latent,
        "kernel_hist": {str(k): v for k, v in trainer.schedule.kernel_histogram().items()},
        "final_loss": reports[-1].loss if reports else None,
    }
    save_checkpoint(checkpoint_path, trainer.params, metadata)
    _write_metrics_csv(out / "metrics.csv", reports)
    _write_manifest(out, "train", config.training.seed, config)
    tail = f"final loss {reports[-1].loss:.6f}" if reports else "no epochs run"
    print(f"trained {config.training.epochs} epochs ({tail}); checkpoint at {checkpoint_path}")
    return 0


def _check_checkpoint(arrays: dict, config: RunConfig, bank: EmbeddingBank, provider) -> None:
    """Structural compatibility between a checkpoint and the configured model."""
    expected = init_parameters(config, bank.dim_neural)
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise ConfigError(
            f"checkpoint arrays do not match the configured model "
            f"(missing {missing}, unexpected {extra})"
        )
    if arrays["enc_w"].shape[0] != bank.dim_neural:
        raise ConfigError(
            f"checkpoint was trained with dim_neural={arrays['enc_w'].shape[0]} "
            f"but the dataset provides dim_neural={bank.dim_neural}"
        )
    if arrays["proj_w"].shape[0] != provider.dim_feature:
        raise ConfigError(
            f"checkpoint was trained with dim_feature={arrays['proj_w'].shape[0]} "
            f"but the provider supplies dim_feature={provider.dim_feature}"
        )
    for name, ref in expected.items():
        if arrays[name].shape != ref.shape:
            raise ConfigError(
                f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                f"the configured model expects {ref.shape}"
            )


def cmd_evaluate(args) -> int:
    config, manifest_seed = load_config(args.config, "evaluate")
    seed = args.seed if args.seed is not None else manifest_seed
    config = _with_seed(config, "evaluation", "seed", seed)
    checkpoint_path = Path(config.paths.checkpoint)
    out = Path(args.out) if args.out else checkpoint_path.parent
    # evaluate shares the training run directory, so its manifest gets
    # its own name instead of clobbering the train manifest
    _refuse_existing(
        [out / "eval.csv", out / "summary.txt", out / "eval_manifest.json"], args.force
    )

    arrays, _ = load_checkpoint(checkpoint_path)
    bank, provider = _load_data(config, ("test",))
    _check_checkpoint(arrays, config, bank, provider)

    test_ids = bank.indices("test")
    # fail before the costly encoding, with nway_evaluate's message
    largest = max(config.evaluation.gallery_sizes)
    if largest > len(test_ids):
        raise ConfigError(f"gallery size n={largest} exceeds the test set size {len(test_ids)}")
    f_n, latent = encode_pairs(
        config, bank, provider, arrays, test_ids,
        kernel=config.transforms.kernel_size,
        noise_base_seed=config.evaluation.seed,
    )
    similarity = cosine_similarity_matrix(f_n, latent)
    truth = np.arange(len(test_ids))
    reports = [
        nway_evaluate(similarity, truth, n, config.evaluation.trials, config.evaluation.seed)
        for n in config.evaluation.gallery_sizes
    ]

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EVAL_COLUMNS)
        for r in reports:
            writer.writerow([
                bank.tag, r.gallery_size, r.seed, r.trials,
                r.top1, r.top5, r.mean_ap, r.similarity,
            ])
    lines = [f"subject {bank.tag}: {len(test_ids)} zero-shot test queries"]
    for r in reports:
        lines.append(
            f"n={r.gallery_size}: top1={r.top1:.6f} top5={r.top5:.6f} "
            f"map={r.mean_ap:.6f} similarity={r.similarity:.6f}"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out, "evaluate", config.evaluation.seed, config,
                    filename="eval_manifest.json")
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    config, _ = load_config(args.config, "report")
    out = Path(args.out) if args.out else Path("report")
    _refuse_existing([out / "report.csv", out / "manifest.json"], args.force)
    rows = []
    for run in config.paths.runs:
        eval_path = Path(run) / "eval.csv"
        if not eval_path.exists():
            raise ConfigError(
                f"searched {run} for eval.csv and found none: run `evaluate` for "
                f"{run} first, and list an `evaluate --out` directory in paths.runs"
            )
        with open(eval_path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(_EVAL_COLUMNS):
                raise FormatError(f"{eval_path} has unexpected columns {reader.fieldnames}")
            for record in reader:
                rows.append([run] + [record[c] for c in _EVAL_COLUMNS])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("run",) + _EVAL_COLUMNS)
        writer.writerows(rows)
    _write_manifest(out, "report", None, config)
    print(f"aggregated {len(rows)} result rows from {len(config.paths.runs)} runs into {out / 'report.csv'}")
    return 0


# -- argument parsing ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file or a manifest.json from a previous run")
    shared.add_argument("--seed", type=int, default=None,
                        help="override the command's seed (data / noise / training / evaluation)")
    shared.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    shared.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (defaults to the configured path)")

    parser = argparse.ArgumentParser(
        prog="fovalign",
        description="Foveated multi-view alignment: generate, transform, train, evaluate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", parents=[shared],
                   help="render the synthetic paired dataset and its embedding bank").set_defaults(func=cmd_generate)
    sub.add_parser("transform", parents=[shared],
                   help="write the four degraded views of the configured input pixmap").set_defaults(func=cmd_transform)
    sub.add_parser("train", parents=[shared],
                   help="train the alignment model and write checkpoint + metrics").set_defaults(func=cmd_train)
    sub.add_parser("evaluate", parents=[shared],
                   help="zero-shot n-way retrieval evaluation of a checkpoint").set_defaults(func=cmd_evaluate)
    sub.add_parser("report", parents=[shared],
                   help="aggregate eval.csv files across run directories").set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        json.dump(exc.state, sys.stderr, indent=2, sort_keys=True)
        print(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

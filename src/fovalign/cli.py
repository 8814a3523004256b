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
import typing
from pathlib import Path

import numpy as np

from .alignment import (
    _QUERY_BLOCK, EpochReport, Trainer, cosine_similarity_matrix, encode_pairs, init_parameters,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import _SIGNED_UNIT, _UNIT, RunConfig, _at_least, config_hash, load_config, parse_record
from .datagen import BANK_FILE, IMAGES_DIR, generate_dataset, load_dataset
from .errors import ConfigError, FormatError, NumericError, ProtocolError
from .evaluation import nway_reports
from .pixmap import read_pixmap, to_bytes_quantized, write_pixmap
from .providers import BankProvider, EmbeddingBank, SyntheticProvider

__all__ = ["main"]

_TRANSFORM_VIEWS = ("foveated", "noise", "lowres", "mosaic")


@dataclasses.dataclass(frozen=True)
class _EvalRow:  # an eval.csv row, one field per column in order
    subject: str
    n: typing.Annotated[int, _at_least(1)]
    seed: typing.Annotated[int, _at_least(0)]
    trials: typing.Annotated[int, _at_least(1)]
    top1: typing.Annotated[float, _UNIT]
    top5: typing.Annotated[float, _UNIT]
    map: typing.Annotated[float, _UNIT]
    similarity: typing.Annotated[float, _SIGNED_UNIT]


_EVAL_TYPES = typing.get_type_hints(_EvalRow)  # column -> int, float or str
_EVAL_COLUMNS = tuple(_EVAL_TYPES)


class _Absent:  # the value of an entry that one side of a comparison lacks
    def __repr__(self) -> str:
        return "(absent)"


def _require_match(source: str, found, expected, entry: str = "") -> None:
    """ConfigError naming the first entry where what `source` holds differs
    from what the config expects, with both values. Dicts are compared
    entry by entry, the expected ones first; an entry only one side has
    differs too."""
    if isinstance(found, dict) and isinstance(expected, dict):
        for key in list(expected) + sorted(set(found) - set(expected)):
            name = f"{entry}.{key}" if entry else key
            _require_match(source, found.get(key, _Absent()), expected.get(key, _Absent()), name)
    elif found != expected:
        raise ConfigError(f"{source} gives {entry} = {found!r}, the config {expected!r}")


def _model(config: RunConfig, bank: EmbeddingBank) -> dict:
    """What a trained model's arrays mean: the views fused, in order, the
    frozen encoder, the fusion set-up and the dataset. `enc_w`'s shape
    fixes dim_neural; both provider kinds serve the same encoder's rows."""
    return {
        "views": config.views.enabled(),
        "provider": {"dim_feature": config.provider.dim_feature, "seed": config.provider.seed},
        "fusion": dataclasses.asdict(config.fusion),
        "dataset_tag": bank.tag,
    }


def _load_data(config: RunConfig, splits, lazy: bool = False):
    """(bank, provider) for the configured provider kind; only the bank
    provider keeps the bank's features, and only the synthetic provider
    reads pixmaps, those of the samples in `splits`: all of them now, or
    with `lazy` each when the provider asks for it."""
    kind = config.provider.kind
    bank, images = load_dataset(config.paths.dataset, splits if kind == "synthetic" else (), lazy,
                                features=kind == "bank")
    if kind == "bank":
        _require_match(f"embedding bank {Path(config.paths.dataset) / BANK_FILE}",
                       {"views": bank.views, "dim_feature": bank.dim_feature},
                       {"views": config.views.count, "dim_feature": config.provider.dim_feature})
        return bank, BankProvider(bank)
    # the first image of the splits; a lazy `images` keeps it, so it is read once
    first = next((image for image in images if image is not None), None)
    if first is not None:  # every other image must have its size
        config.transforms.check_fits(*first.shape[1:], config.views.enabled(),
                                     f"images of dataset {config.paths.dataset}")
    return bank, SyntheticProvider(
        config.transforms, config.views,
        config.provider.dim_feature, config.provider.seed, images,
    )


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- the work of each command: (config, out, seed) -> summary line ---------


def _generate(config: RunConfig, out: Path, seed) -> str:
    bank = generate_dataset(config, out)
    return f"generated {bank.sample_count} samples ({len(bank.indices('test'))} test) in {out}"


def _transform(config: RunConfig, out: Path, noise_seed: int) -> str:
    image = read_pixmap(config.paths.input_image) / 255.0
    t = config.transforms
    t.check_fits(*image.shape[1:], _TRANSFORM_VIEWS, f"input image {config.paths.input_image}")
    # only view_image is used, on the widened image; no dataset is loaded
    provider = SyntheticProvider(t, config.views, config.provider.dim_feature, config.provider.seed, [])
    views = [
        provider.view_image(name, image, t.kernel_size, noise_seed) for name in _TRANSFORM_VIEWS
    ]
    out.mkdir(parents=True, exist_ok=True)
    for name, view in zip(_TRANSFORM_VIEWS, views):
        write_pixmap(out / f"{name}.ppm", to_bytes_quantized(view))
    return f"wrote {len(views)} views of {config.paths.input_image} to {out}"


def _train(config: RunConfig, out: Path, seed) -> str:
    bank, provider = _load_data(config, ("train",))
    trainer = Trainer(config, bank, provider)
    reports = trainer.train()

    out.mkdir(parents=True, exist_ok=True)
    metadata = {
        "config_hash": config_hash(config),
        "model": _model(config, bank),
        "kernel_hist": {str(k): v for k, v in trainer.schedule.kernel_histogram().items()},
        "final_loss": reports[-1].loss if reports else None,
    }
    checkpoint_path = out / Path(config.paths.checkpoint).name
    save_checkpoint(checkpoint_path, trainer.params, metadata)
    # a column per field of the epoch record, in declaration order, but the
    # histogram, which the checkpoint keeps
    columns = [f.name for f in dataclasses.fields(EpochReport) if f.name != "kernel_hist"]
    _write_csv(out / "metrics.csv", columns, [[getattr(r, c) for c in columns] for r in reports])
    tail = f"final loss {reports[-1].loss:.6f}" if reports else "no epochs run"
    return f"trained {config.training.epochs} epochs ({tail}); checkpoint at {checkpoint_path}"


def _evaluate(config: RunConfig, out: Path, seed) -> str:
    arrays, header = load_checkpoint(config.paths.checkpoint)
    # each test pixmap is read when its query block is encoded
    bank, provider = _load_data(config, ("test",), lazy=True)
    found, expected = ({name: list(a.shape) for name, a in params.items()}
                       for params in (arrays, init_parameters(config, bank.dim_neural)))
    _require_match(f"checkpoint {config.paths.checkpoint}",
                   {"model": header.get("model", _Absent()), "arrays": found},
                   {"model": _model(config, bank), "arrays": expected})

    test_ids = bank.indices("test")
    e = config.evaluation
    # fail before the costly encoding, with nway_reports' message
    largest = max(e.gallery_sizes)
    if largest > len(test_ids):
        raise ConfigError(f"gallery size n={largest} exceeds the test set size {len(test_ids)}")
    f_n, latent = encode_pairs(config, bank, provider, arrays, test_ids)
    del provider  # its cached rows are not asked for again
    # the cosine is ranked a block of query rows at a time, so no
    # (queries, gallery) matrix is held; its rows are per-row sums, so each
    # block has the bits of the whole matrix's rows
    blocks = (cosine_similarity_matrix(f_n[start : start + _QUERY_BLOCK], latent)
              for start in range(0, len(test_ids), _QUERY_BLOCK))
    reports = nway_reports(blocks, np.arange(len(test_ids)), e.gallery_sizes, e.trials, e.seed)

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "eval.csv", _EVAL_COLUMNS, [
        [bank.tag, r.gallery_size, r.seed, r.trials, r.top1, r.top5, r.mean_ap, r.similarity]
        for r in reports
    ])
    lines = [f"subject {bank.tag}: {len(test_ids)} zero-shot test queries"] + [
        f"n={r.gallery_size}: top1={r.top1:.6f} top5={r.top5:.6f} "
        f"map={r.mean_ap:.6f} similarity={r.similarity:.6f}"
        for r in reports
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "\n".join(lines)


def _cell_value(cell: str, kind):
    """An eval.csv cell read as `kind`: an int from ASCII digits, a float from ASCII
    float() text with no whitespace or "_"; other cells stay text for `parse_record` to refuse."""
    plain = cell.isascii() and "_" not in cell and cell == cell.strip()
    try:
        return kind(cell) if plain and (kind is float or cell.isdigit()) else cell
    except ValueError:  # text float() rejects, or more digits than int() reads
        return cell


def _report(config: RunConfig, out: Path, seed) -> str:
    rows = []
    for run in config.paths.runs:
        eval_path = Path(run) / "eval.csv"
        if not eval_path.exists():
            raise ConfigError(
                f"searched {run} for eval.csv and found none: run `evaluate` for "
                f"{run} first, and list an `evaluate --out` directory in paths.runs"
            )
        try:
            with open(eval_path, "r", encoding="utf-8", newline="") as fh:
                header, *records = list(csv.reader(fh)) or [[]]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{eval_path} is not UTF-8 CSV text: {exc}") from exc
        if header != list(_EVAL_COLUMNS):
            raise FormatError(f"{eval_path} has unexpected columns {header}")
        for i, record in enumerate(records, start=1):
            if len(record) != len(header):
                raise FormatError(
                    f"{eval_path}: row {i} has {len(record)} cells, the header {len(header)}")
            values = {c: _cell_value(cell, _EVAL_TYPES[c]) for c, cell in zip(header, record)}
            parse_record(_EvalRow, values, f"{eval_path}: row {i}", FormatError)
            rows.append([run] + record)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "report.csv", ("run",) + _EVAL_COLUMNS, rows)
    return f"aggregated {len(rows)} result rows from {len(config.paths.runs)} runs into {out / 'report.csv'}"


@dataclasses.dataclass(frozen=True)
class Command:
    """One row of the README's "Artifacts per command" table. `out` and
    `files` may name {dataset}, {run} (the checkpoint's directory) and
    {checkpoint} (its file name) from the config's paths."""

    work: object  # (config, out, seed) -> the line printed on success
    help: str
    # the config section whose seed --seed overrides; an int is the default
    # of a seed the config does not hold; None: the command has no seed
    seed: str | int | None
    out: str  # the output directory when --out is not given
    files: tuple[str, ...]
    manifest: str = "manifest.json"


COMMANDS = {
    "generate": Command(_generate, "render the synthetic paired dataset and its embedding bank",
                        "data", "{dataset}", (BANK_FILE, IMAGES_DIR)),
    "transform": Command(_transform, "write the four degraded views of the configured input pixmap",
                         0, "views", tuple(f"{name}.ppm" for name in _TRANSFORM_VIEWS)),
    "train": Command(_train, "train the alignment model and write checkpoint + metrics",
                     "training", "{run}", ("{checkpoint}", "metrics.csv")),
    # evaluate shares the training run directory, so its manifest gets its
    # own name instead of clobbering the train manifest
    "evaluate": Command(_evaluate, "zero-shot n-way retrieval evaluation of a checkpoint",
                        "evaluation", "{run}", ("eval.csv", "summary.txt"), "eval_manifest.json"),
    "report": Command(_report, "aggregate eval.csv files across run directories",
                      None, "report", ("report.csv",)),
}


def _run(args) -> int:
    """The shared set-up of every command, then its work, then its manifest."""
    command = COMMANDS[args.command]
    config, manifest_seed = load_config(args.config, args.command)
    seed = args.seed if args.seed is not None else manifest_seed
    if seed is not None and seed < 0:
        source = "--seed" if args.seed is not None else f"{args.config}: seed"
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    if isinstance(command.seed, str):
        if seed is not None:
            section = dataclasses.replace(getattr(config, command.seed), seed=seed)
            config = dataclasses.replace(config, **{command.seed: section})
        seed = getattr(config, command.seed).seed
    elif seed is None or command.seed is None:
        seed = command.seed
    ckpt = Path(config.paths.checkpoint)
    paths = {"dataset": config.paths.dataset, "run": ckpt.parent, "checkpoint": ckpt.name}
    out = Path(args.out or command.out.format(**paths))
    if not args.force:
        for name in command.files + (command.manifest,):
            path = out / name.format(**paths)
            if path.exists():
                raise ConfigError(f"{path} already exists (pass --force to overwrite)")
    summary = command.work(config, out, seed)
    manifest = {"command": args.command, "seed": seed, "config": config.to_dict()}
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (out / command.manifest).write_text(text, encoding="utf-8")
    print(summary)
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
    for name, command in COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=command.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, FormatError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        json.dump(exc.state, sys.stderr, indent=2, sort_keys=True)
        print(file=sys.stderr)
        return 3

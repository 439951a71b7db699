"""Command-line driver: generate, preprocess, train, eval, predict.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure.
Errors print a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint
from . import metrics as M
from .config import RunConfig
from .data import N_CLASSES, read_dataset, write_dataset
from .errors import ConfigError, DataError, NumericError, RedaeError
from .network import VARIANTS, build
from .optim import TrainConfig, TrainLog, carve_validation, evaluate, segment, train
from .pipeline import generate_dataset, overlay, preprocess
from .tensor import Rng


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"--size expects H,W, got {text!r}") from None
    if h < 32 or w < 32:
        raise ConfigError(f"--size must be at least 32,32, got {text!r}")
    return h, w


def cmd_generate(args) -> int:
    h, w = _parse_size(args.size)
    samples, manifest = generate_dataset(args.count, h, w, args.seed, args.tear_frac)
    write_dataset(args.out, samples, manifest)
    print(f"wrote {len(samples)} samples to {args.out} "
          f"({len(manifest.train)} train / {len(manifest.test)} test)")
    return 0


def cmd_preprocess(args) -> int:
    samples, manifest = read_dataset(getattr(args, "in"))
    cfg = RunConfig.from_file(args.config)
    out_samples, out_manifest = preprocess(samples, manifest, equalize=args.equalize,
                                           augment_copies=args.augment,
                                           spec=cfg.augment_spec(), seed=manifest.seed)
    ordered = [out_samples[sid] for sid in out_manifest.train + out_manifest.test]
    write_dataset(args.out, ordered, out_manifest)
    print(f"wrote {len(ordered)} samples to {args.out} "
          f"({len(out_manifest.train)} train / {len(out_manifest.test)} test)")
    return 0


def cmd_train(args) -> int:
    samples, manifest = read_dataset(args.data)
    cfg = RunConfig.from_file(args.config)
    variant = args.variant or cfg.variant
    train_cfg = cfg.train_config()
    if args.seed is not None:
        train_cfg = TrainConfig(**{**vars(train_cfg), "seed": args.seed})

    if not manifest.train:
        raise DataError(f"{args.data}: the train split is empty")
    in_channels = samples[manifest.train[0]].channels
    net = build(variant, cfg.widths, N_CLASSES, Rng(train_cfg.seed),
                in_channels=in_channels)

    train_ids, val_ids = carve_validation(manifest.train, train_cfg.val_fraction,
                                          train_cfg.seed)
    train_set = [samples[i] for i in train_ids]
    val_set = [samples[i] for i in val_ids]
    try:
        net, log = train(net, train_set, val_set or None, train_cfg, TrainLog())
    except NumericError:
        checkpoint.save(net, args.out + ".lastgood")
        raise
    checkpoint.save(net, args.out)
    base = os.path.splitext(args.out)[0]
    log.write_csv(base + "_loss.csv")
    if log.epoch_metrics:
        log.write_metrics_csv(base + "_metrics.csv")
    print(f"trained {variant} for {train_cfg.epochs} epochs; "
          f"final epoch mean loss {log.epoch_mean_loss(train_cfg.epochs):.6f}; "
          f"checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    samples, manifest = read_dataset(args.data)
    ids = manifest.test if args.split == "test" else manifest.train
    if not ids:
        raise DataError(f"{args.data}: the {args.split} split is empty")
    subset = [samples[i] for i in ids]
    if args.oracle:
        counts = M.ConfusionCounts(N_CLASSES)
        for s in subset:
            M.accumulate(counts, s.mask, s.mask)
        report = M.compute_report(counts)
        model_name = "oracle"
    else:
        if not args.ckpt:
            raise ConfigError("--ckpt is required unless --oracle is given")
        net = checkpoint.load(args.ckpt)
        if subset[0].channels != net.in_channels:
            raise DataError(f"checkpoint expects {net.in_channels}-channel images, "
                            f"dataset has {subset[0].channels}")
        report, _ = evaluate(net, subset)
        model_name = net.variant
    print(M.render_report(report))
    if args.out_prefix:
        with open(args.out_prefix + "metrics.json", "w") as f:
            f.write(report.to_json())
        with open(args.out_prefix + "metrics.csv", "w") as f:
            f.write(M.CSV_HEADER + "\n")
            for row in M.report_csv_rows(report, model_name):
                f.write(row + "\n")
    return 0


def cmd_predict(args) -> int:
    net = checkpoint.load(args.ckpt)
    img = read_image_any(args.image)
    from .data import write_pgm, write_ppm  # at call time, so perfbench can wrap them
    if img.shape[2] != net.in_channels:
        raise DataError(f"checkpoint expects {net.in_channels}-channel images, "
                        f"image has {img.shape[2]}")
    mask = segment(net, img)
    write_pgm(args.out + "_mask.pgm", mask)
    write_ppm(args.out + "_overlay.ppm", overlay(img, mask))
    print(f"wrote {args.out}_mask.pgm and {args.out}_overlay.ppm")
    return 0


def read_image_any(path: str) -> np.ndarray:
    from .data import image_to_unit, read_pgm, read_ppm
    arr = read_ppm(path) if path.endswith(".ppm") else read_pgm(path)
    img = image_to_unit(arr)
    return img if img.ndim == 3 else img[:, :, None]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="redae",
                                     description="hybrid-pooling segmentation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic phantom dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--size", default="304,304", help="H,W (default 304,304)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tear-frac", type=float, default=0.02, dest="tear_frac")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="equalize and augment a dataset")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--equalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--augment", type=int, default=0,
                   help="augmented copies per training image")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_preprocess)

    t = sub.add_parser("train", help="train a model on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--variant", default=None, choices=VARIANTS)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--data", required=True)
    e.add_argument("--ckpt", default=None)
    e.add_argument("--split", default="test", choices=["train", "test"])
    e.add_argument("--oracle", action="store_true",
                   help="score ground-truth masks against themselves")
    e.add_argument("--out-prefix", default=None, dest="out_prefix")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("predict", help="predict a mask and color overlay")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--image", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: numeric: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 3
    except RedaeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

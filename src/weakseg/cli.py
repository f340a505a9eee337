"""Command-line surface tying the toolkit together.

Subcommands: synth, train, eval, segment-cv, fit-ellipse, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import losses, metrics, model, recist, synthgen, weaktrain
from .imgcore import BG, FG, decode_pgm, encode_pgm
from .levelset import CvConfig, cv_evolve
from .losses import LossConfig, bce_loss, finite_diff_check, iou_loss, rls_loss
from .model import ArchConfig, forward_with_params, backward, init_params, \
    load_model, save_model
from .synthgen import Sample, SynthConfig, gen_dataset


class DataError(Exception):
    pass


class UsageError(Exception):
    """A bad invocation: arguments, config file or environment (exit 1)."""


def _worker_count() -> int:
    raw = os.environ.get("WEAKSEG_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"WEAKSEG_THREADS must be a positive integer, "
                         f"got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# dataset directory I/O

def write_dataset(samples, manifest: str, out: Path) -> None:
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "gt").mkdir(parents=True, exist_ok=True)
    rows = []
    for s in samples:
        (out / "images" / f"{s.sample_id}.pgm").write_bytes(encode_pgm(s.image))
        if s.gt_mask is not None:
            (out / "gt" / f"{s.sample_id}.pgm").write_bytes(
                encode_pgm(s.gt_mask.astype(np.float64)))
        rows.append((s.sample_id, s.annotation))
    (out / "recist.csv").write_text(recist.write_annotation_csv(rows))
    (out / "manifest.csv").write_text(manifest)


def load_dataset(path: Path):
    ann_file = path / "recist.csv"
    if not ann_file.exists():
        raise DataError(f"missing {ann_file}")
    samples = []
    for sid, ann in recist.read_annotation_csv(ann_file.read_text()):
        img_file = path / "images" / f"{sid}.pgm"
        if not img_file.exists():
            raise DataError(f"missing {img_file}")
        img = decode_pgm(img_file.read_bytes())
        e = recist.fit_ellipse(ann)
        dims = (img.shape[1], img.shape[0])
        emask = recist.rasterize_ellipse(e, dims)
        pseudo = np.where(emask, FG, BG).astype(np.int8)
        region = recist.constrained_region(e, dims)
        gt = None
        gt_file = path / "gt" / f"{sid}.pgm"
        if gt_file.exists():
            gt = decode_pgm(gt_file.read_bytes()) >= 0.5
        samples.append(Sample(image=img, annotation=ann, ellipse=e,
                              pseudo=pseudo, region=region, gt_mask=gt,
                              sample_id=sid))
    if not samples:
        raise DataError(f"no samples found in {path}")
    return samples


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = SynthConfig(size=args.size, irregularity=args.irregularity,
                      noise_sigma=args.noise, distractors=args.distractors,
                      seed=args.seed)
    samples, manifest = gen_dataset(cfg, args.n)
    write_dataset(samples, manifest, Path(args.out))
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = weaktrain.TrainConfig()
    if args.config:
        text = Path(args.config).read_text()
        try:
            cfg = weaktrain.train_config_from_json(text)
        except ValueError as exc:
            raise UsageError(f"config {args.config}: {exc}") from exc
    if args.rls_region:
        cfg = replace(cfg, rls_region=args.rls_region.replace("-", "_"))
    dataset = load_dataset(Path(args.data))
    params, histories = weaktrain.train_rounds(dataset, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.bin", params, cfg.arch)
    for i, hist in enumerate(histories, start=1):
        (out / f"history_round{i}.csv").write_text(hist.to_csv())
    print(f"trained {len(histories)} round(s); model at {out / 'model.bin'}")
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(Path(args.data))
    preds = {}
    if args.pred:
        for s in dataset:
            f = Path(args.pred) / f"{s.sample_id}.pgm"
            if not f.exists():
                raise DataError(f"missing prediction {f}")
            preds[s.sample_id] = decode_pgm(f.read_bytes()) >= 0.5
    elif args.model:
        params, arch = load_model(args.model)

        def infer(s):
            return s.sample_id, weaktrain.predict(s, params, arch) >= 0.5

        workers = _worker_count()
        if workers > 1:
            with ThreadPoolExecutor(workers) as pool:
                preds = dict(pool.map(infer, dataset))
        else:
            preds = dict(infer(s) for s in dataset)
    else:
        raise DataError("eval needs --model or --pred")
    rows = []
    for s in dataset:
        if s.gt_mask is None:
            raise DataError(f"sample {s.sample_id} has no ground truth")
        rows.append((s.sample_id, metrics.prf_dice(preds[s.sample_id],
                                                   s.gt_mask)))
    summary = metrics.summarize([m for _, m in rows])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics.metrics_csv(rows))
    (out / "histogram.csv").write_text(metrics.histogram_csv(summary))
    (out / "summary.json").write_text(metrics.summary_json(summary))
    print(f"n={summary.n} dice={summary.dice_mean:.4f}+-{summary.dice_std:.4f}")
    return 0


def _read_ellipse(path) -> recist.Ellipse:
    """Parse an --ellipse spec: a JSON object with a numeric pair "center",
    numbers "a" and "b" and an optional number "theta"."""
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(spec, dict):
        raise DataError(f"{path}: ellipse spec must be a JSON object")
    unknown = sorted(spec.keys() - {"center", "a", "b", "theta"})
    if unknown:
        raise DataError(f"{path}: unknown key {unknown[0]!r}")

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    center = spec.get("center")
    if not (isinstance(center, list) and len(center) == 2
            and all(map(number, center))):
        raise DataError(f"{path}: 'center' must be a pair of numbers")
    spec.setdefault("theta", 0.0)
    for key in ("a", "b", "theta"):
        if not number(spec.get(key)):
            raise DataError(f"{path}: {key!r} must be a number")
    try:
        return recist.Ellipse(center=tuple(center), a=spec["a"], b=spec["b"],
                              theta=spec["theta"])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_segment_cv(args) -> int:
    # CvConfig's messages start with the field name, which is also the flag's
    try:
        cfg = CvConfig(mu=args.mu, nu=args.nu, iters=args.iters)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None
    img = decode_pgm(Path(args.image).read_bytes())
    if args.init:
        init = decode_pgm(Path(args.init).read_bytes()) >= 0.5
        if init.shape != img.shape:
            raise DataError(
                f"--init {args.init} is {init.shape[1]}x{init.shape[0]} but "
                f"--image {args.image} is {img.shape[1]}x{img.shape[0]}")
    elif args.ellipse:
        init = recist.rasterize_ellipse(_read_ellipse(args.ellipse),
                                        (img.shape[1], img.shape[0]))
    else:
        raise DataError("segment-cv needs --init or --ellipse")
    mask, trace, warning = cv_evolve(img, init, cfg)
    Path(args.out).write_bytes(encode_pgm(mask.astype(np.float64)))
    if args.trace:
        lines = ["iter,energy"] + [f"{i},{e:.10g}" for i, e in enumerate(trace)]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    if warning:
        print("warning: evolution stopped early (degenerate region means)")
    print(f"wrote {args.out} ({int(mask.sum())} foreground pixels, "
          f"{len(trace)} iterations)")
    return 0


def cmd_fit_ellipse(args) -> int:
    rows = recist.read_annotation_csv(Path(args.recist).read_text())
    lookup = dict(rows)
    if args.image_id not in lookup:
        raise DataError(f"image_id {args.image_id!r} not in {args.recist}")
    e = recist.fit_ellipse(lookup[args.image_id])
    mask = recist.rasterize_ellipse(e, (args.width, args.height))
    Path(args.out).write_bytes(encode_pgm(mask.astype(np.float64)))
    print(f"center=({e.center[0]:.2f},{e.center[1]:.2f}) a={e.a:.2f} "
          f"b={e.b:.2f} theta={e.theta:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    shape = (8, 8)
    img = rng.uniform(0, 1, shape)
    g = rng.integers(0, 3, shape).astype(np.int8)
    if (g != 2).sum() == 0:
        g[0, 0] = 1
    region = rng.uniform(0, 1, shape) < 0.7
    region[0, 0] = region[0, 1] = True
    p0 = rng.uniform(0.05, 0.95, shape)
    cfg = LossConfig()

    def bce_fn(p):
        r = bce_loss(p, g)
        return r.value, r.grad

    def iou_fn(p):
        r = iou_loss(p, g)
        return r.value, r.grad

    frozen = losses.region_means(p0, img, region)

    def rls_frozen(p):
        n = int(region.sum())
        d1 = (img - frozen.c1) ** 2
        d2 = (img - frozen.c2) ** 2
        val = float((cfg.lambda1 * p * d1
                     + cfg.lambda2 * (1 - p) * d2)[region].sum()) / n
        grad = np.zeros_like(p)
        grad[region] = (cfg.lambda1 * d1[region]
                        - cfg.lambda2 * d2[region]) / n
        return val, grad

    errs = {
        "bce": finite_diff_check(bce_fn, p0),
        "iou": finite_diff_check(iou_fn, p0),
        "rls(frozen means)": finite_diff_check(rls_frozen, p0),
        "model+losses": model_gradcheck(args.seed),
    }
    bad = False
    for name, err in errs.items():
        limit = 1e-3 if name == "model+losses" else 1e-4
        ok = err < limit
        bad |= not ok
        print(f"{name}: max rel err {err:.3e} "
              f"({'OK' if ok else f'FAIL, limit {limit:g}'})")
    return 2 if bad else 0


def model_gradcheck(seed: int, size: int = 8, channels: int = 4) -> float:
    """Finite-difference check of the whole model composed with the training
    losses, over all flattened parameters."""
    rng = np.random.default_rng(seed)
    arch = ArchConfig(channels=channels)
    params = init_params(seed, arch)
    # move heads well off zero so downstream gradients dominate fd noise
    for name in params:
        if name.startswith("head") or name.endswith("_b"):
            params[name] = rng.uniform(-0.5, 0.5, params[name].shape)
    img = rng.uniform(0, 1, (size, size))
    region = np.ones((size, size), dtype=bool)
    masks = []
    for s in (4, 2, 1):
        masks.append(rng.integers(0, 2, (size // s, size // s)).astype(np.int8))
    cfg = LossConfig()

    names = sorted(params)
    sizes = [params[n].size for n in names]

    def unpack(vec):
        out = {}
        pos = 0
        for n, sz in zip(names, sizes):
            out[n] = vec[pos:pos + sz].reshape(params[n].shape)
            pos += sz
        return out

    def fn(vec):
        ps = unpack(vec)
        p1, p2, p3, cache = forward_with_params(img, ps, arch)
        seg_val, seg_grads = losses.seg_loss((p1, p2, p3), masks)
        r = rls_loss(p3, img, region, cfg)
        seg_grads[2] = seg_grads[2] + cfg.rls_weight * r.grad
        grads = backward(cache, seg_grads)
        gvec = np.concatenate([grads[n].reshape(-1) for n in names])
        return seg_val + cfg.rls_weight * r.value, gvec

    vec0 = np.concatenate([params[n].reshape(-1) for n in names])
    return finite_diff_check(fn, vec0)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakseg",
        description="Weakly-supervised lesion segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic lesion dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--irregularity", type=float, default=0.15)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--distractors", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the weakly-supervised training")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rls-region",
                   choices=["constrained", "whole-image", "off"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--data", required=True)
    p.add_argument("--model")
    p.add_argument("--pred")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("segment-cv", help="Chan-Vese segmentation of one image")
    p.add_argument("--image", required=True)
    p.add_argument("--init")
    p.add_argument("--ellipse")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--iters", type=int, default=500)
    p.set_defaults(func=cmd_segment_cv)

    p = sub.add_parser("fit-ellipse", help="rasterize a fitted RECIST ellipse")
    p.add_argument("--recist", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_ellipse)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

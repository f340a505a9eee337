"""Command-line surface tying the toolkit together.

Subcommands: synth, train, eval, segment-cv, fit-ellipse, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import metrics, recist, weaktrain
from .imgcore import _SHOWN, _cut, decode_pgm, encode_pgm
from .levelset import CvConfig, cv_energy, cv_evolve
from .losses import bce_loss, finite_diff_check, iou_loss, rls_loss
from .model import ArchConfig, init_params, load_model, new_workspace, \
    param_views, save_model
from .synthgen import Sample, SynthConfig, gen_dataset


class DataError(Exception):
    pass


class UsageError(Exception):
    """A bad invocation: arguments or config file (exit 1)."""


# ---------------------------------------------------------------------------
# dataset directory I/O

def _read(path, parse):
    """parse(Path(path)); a missing, unreadable or malformed file is a
    DataError naming it, with its stem (a sample id) cut to 20 characters
    as read_annotation_csv cuts ids."""
    path = Path(path)
    shown = path.parent / (path.stem[:_SHOWN] + _cut(path.stem) + path.suffix)
    try:
        return parse(path)
    except FileNotFoundError:
        raise DataError(f"missing {shown}") from None
    except OSError as exc:
        raise DataError(f"{shown}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(f"{shown}: {exc}") from None


def _read_pgm(path) -> np.ndarray:
    return _read(path, lambda p: decode_pgm(p.read_bytes()))


def _read_annotations(path):
    return _read(path, lambda p: recist.read_annotation_csv(p.read_text()))


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


class Record(NamedTuple):
    """One dataset entry as read from disk. Training builds its ``Sample``
    (pseudo mask and constrained region) from it; eval reads only the image
    and the ground truth."""
    sample_id: str
    annotation: recist.RecistAnnotation
    image: np.ndarray
    gt_mask: np.ndarray | None


def load_dataset(path: Path) -> list[Record]:
    records = []
    for sid, ann in _read_annotations(path / "recist.csv"):
        img = _read_pgm(path / "images" / f"{sid}.pgm")
        gt = None
        gt_file = path / "gt" / f"{sid}.pgm"
        if gt_file.exists():
            gt = _read_pgm(gt_file) >= 0.5
            if gt.shape != img.shape:
                raise DataError(f"{gt_file}: gt mask is {gt.shape[1]}x"
                                f"{gt.shape[0]} but the image is "
                                f"{img.shape[1]}x{img.shape[0]}")
        records.append(Record(sid, ann, img, gt))
    if not records:
        raise DataError(f"no samples found in {path}")
    return records


def _make_out(path) -> Path:
    """Make the --out run directory; commands call this after every input
    check and before the work, so a bad --out loses nothing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"--out {out}: cannot make the run directory "
                        f"({exc.strerror})") from None
    return out


def _check_model_sides(records, path: Path) -> None:
    """The segmenter halves each side twice, so train and eval --model need
    sides that are multiples of 4; fail before any work, naming the file."""
    for r in records:
        h, w = r.image.shape
        if h % 4 or w % 4:
            img_file = path / "images" / f"{r.sample_id}.pgm"
            raise DataError(f"{img_file}: the model needs sides that are "
                            f"multiples of 4, got {w}x{h}")


# ---------------------------------------------------------------------------
# subcommands

# the SynthConfig field or gen_dataset argument that each synth flag sets
_SYNTH_FLAGS = {"n": "n", "seed": "seed", "size": "size",
                "irregularity": "irregularity", "noise_sigma": "noise",
                "distractors": "distractors"}


def cmd_synth(args) -> int:
    try:
        cfg = SynthConfig(size=args.size, irregularity=args.irregularity,
                          noise_sigma=args.noise, distractors=args.distractors,
                          seed=args.seed)
        samples, manifest = gen_dataset(cfg, args.n)
    except ValueError as exc:  # the flags are synth's only input
        # SynthConfig's and gen_dataset's messages start with the field name
        field, _, rest = str(exc).partition(" ")
        flag = _SYNTH_FLAGS.get(field)
        raise UsageError(f"--{flag} {rest}" if flag else str(exc)) from None
    write_dataset(samples, manifest, _make_out(args.out))
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = weaktrain.TrainConfig()
    if args.config:
        try:
            text = Path(args.config).read_text()
            cfg = weaktrain.train_config_from_json(text)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"config {args.config}: {exc}") from exc
    records = load_dataset(Path(args.data))
    _check_model_sides(records, Path(args.data))
    out = _make_out(args.out)
    dataset = [Sample.from_annotation(r.image, r.annotation, r.gt_mask,
                                      r.sample_id) for r in records]
    histories, failed, tmp = [], None, out / "model.bin.tmp"
    try:
        # each round's model and history as the round ends; the model is
        # renamed into place, so model.bin is always a whole file, and the
        # histories past this round, left by a longer run, go at once
        for params, history, _ in weaktrain.train_rounds(dataset, cfg):
            k = len(histories) + 1
            save_model(tmp, params, cfg.arch)
            (out / f"history_round{k}.csv").write_text(history.to_csv())
            os.replace(tmp, out / "model.bin")
            histories.append(history)
            for old in out.glob("history_round*.csv"):
                n = old.stem.removeprefix("history_round")
                if n.isdecimal() and int(n) > k:
                    old.unlink()
    except FloatingPointError as exc:
        failed = exc
    finally:
        tmp.unlink(missing_ok=True)
    skips = sum(h.rls_skips for h in histories)
    if skips:
        print(f"warning: dropped the RLS term of {skips} training step(s) "
              "with a degenerate region", file=sys.stderr)
    skips = sum(h.augment_skips for h in histories)
    if skips:
        print(f"warning: skipped {skips} training step(s) whose 10 "
              "augmentation draws all failed", file=sys.stderr)
    if failed is not None:
        done = len(histories)
        raise DataError(f"round {done + 1} of {cfg.rounds} failed: {failed}; "
                        + (f"{out} holds round {done}, the last that finished"
                           if done else "no round finished"))
    print(f"trained {len(histories)} round(s); model at {out / 'model.bin'}")
    return 0


def cmd_eval(args) -> int:
    data = Path(args.data)
    dataset = load_dataset(data)
    for r in dataset:
        if r.gt_mask is None:
            raise DataError(f"missing {data}/gt/{r.sample_id}.pgm: eval needs "
                            "the ground truth of every sample")
    preds = {}
    if args.pred is not None:
        for r in dataset:
            pred_file = Path(args.pred) / f"{r.sample_id}.pgm"
            pred = _read_pgm(pred_file) >= 0.5
            if pred.shape != r.image.shape:
                (h, w), (ih, iw) = pred.shape, r.image.shape
                raise DataError(f"{pred_file} is {w}x{h} but its image "
                                f"{data}/images/{r.sample_id}.pgm is {iw}x{ih}")
            preds[r.sample_id] = pred
    else:
        _check_model_sides(dataset, data)
        params, arch = load_model(args.model)
    out = _make_out(args.out)
    if args.model is not None:
        ws = new_workspace()  # the forwards run in sequence and share it
        preds = {r.sample_id: weaktrain.predict(r.image, params, arch, ws)
                 >= 0.5 for r in dataset}
    rows = [(r.sample_id, metrics.prf_dice(preds[r.sample_id], r.gt_mask))
            for r in dataset]
    summary = metrics.summarize([m for _, m in rows])
    (out / "metrics.csv").write_text(metrics.metrics_csv(rows))
    (out / "histogram.csv").write_text(metrics.histogram_csv(summary))
    (out / "summary.json").write_text(metrics.summary_json(summary))
    print(f"n={summary.n} dice={summary.dice_mean:.4f}+-{summary.dice_std:.4f}")
    return 0


def _read_ellipse(path) -> recist.Ellipse:
    """Parse an --ellipse spec: a JSON object with a pair of finite numbers
    "center", finite numbers "a" and "b" and an optional finite "theta"."""
    try:
        spec = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(spec, dict):
        raise DataError(f"{path}: ellipse spec must be a JSON object")
    unknown = sorted(spec.keys() - {"center", "a", "b", "theta"})
    if unknown:
        raise DataError(f"{path}: unknown key {unknown[0]!r}")

    def number(x):
        # finite as a float: json reads Infinity and NaN as floats, and an
        # int past the float range would overflow later
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and abs(x) <= sys.float_info.max)

    center = spec.get("center")
    if not (isinstance(center, list) and len(center) == 2
            and all(map(number, center))):
        raise DataError(f"{path}: 'center' must be a pair of finite numbers")
    spec.setdefault("theta", 0.0)
    for key in ("a", "b", "theta"):
        if not number(spec.get(key)):
            raise DataError(f"{path}: {key!r} must be a finite number")
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
    img = _read_pgm(args.image)
    h, w = img.shape
    if args.init is not None:
        source = f"--init {args.init}"
        init = _read_pgm(args.init) >= 0.5
        if init.shape != img.shape:
            raise DataError(f"{source} is {init.shape[1]}x{init.shape[0]} but "
                            f"--image {args.image} is {w}x{h}")
    else:
        source = f"--ellipse {args.ellipse}"
        init = recist.rasterize_ellipse(_read_ellipse(args.ellipse), (w, h))
    if not init.any() or init.all():
        raise DataError(f"{source}: the initial mask is "
                        f"{'the whole' if init.any() else 'empty on the'} "
                        f"{w}x{h} grid; it needs pixels on both sides")
    mask, trace, warning = cv_evolve(img, init, cfg)
    Path(args.out).write_bytes(encode_pgm(mask.astype(np.float64)))
    if args.trace:
        lines = ["iter,energy"] + [f"{i},{e:.10g}" for i, e in enumerate(trace)]
        Path(args.trace).write_text("\n".join(lines) + "\n")
    if warning:
        print("warning: evolution stopped early (degenerate region means)",
              file=sys.stderr)
    print(f"wrote {args.out} ({int(mask.sum())} foreground pixels, "
          f"{len(trace) - 1} iterations)")
    return 0


def cmd_fit_ellipse(args) -> int:
    lookup = dict(_read_annotations(args.recist))
    if args.image_id not in lookup:
        raise DataError(f"image_id {args.image_id!r} not in {args.recist}")
    e = recist.fit_ellipse(lookup[args.image_id])
    try:
        mask = recist.rasterize_ellipse(e, (args.width, args.height))
    except ValueError as exc:
        raise UsageError(f"--width/--height: {exc}") from None
    Path(args.out).write_bytes(encode_pgm(mask.astype(np.float64)))
    print(f"center=({e.center[0]:.2f},{e.center[1]:.2f}) a={e.a:.2f} "
          f"b={e.b:.2f} theta={e.theta:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    shape = (8, 8)
    img = rng.uniform(0, 1, shape)
    g = rng.integers(0, 3, shape).astype(np.int8)
    if (g != 2).sum() == 0:
        g[0, 0] = 1
    region = rng.uniform(0, 1, shape) < 0.7
    region[0, 0] = region[0, 1] = True
    p0 = rng.uniform(0.05, 0.95, shape)
    phi0 = rng.uniform(-2.0, 2.0, shape)
    cv_cfg = CvConfig(mu=0.2, nu=0.1, lambda1=1.0, lambda2=2.0, eps=0.5)

    def cv(phi):
        grad = np.empty_like(phi)
        return cv_energy(phi, img, cv_cfg, grad=grad), grad

    errs = {
        "bce": finite_diff_check(lambda p: bce_loss(p, g), p0),
        "iou": finite_diff_check(lambda p: iou_loss(p, g), p0),
        "rls": finite_diff_check(lambda p: rls_loss(p, img, region), p0),
        "cv": finite_diff_check(cv, phi0),
        "model+losses": model_gradcheck(args.seed),
    }
    # the finite differences err by about 1e-8 of the gradient's scale at
    # most on these inputs (losses.finite_diff_check), well inside the limit
    limit = 1e-6
    for name, err in errs.items():
        print(f"{name}: max rel err {err:.3e} "
              f"({'OK' if err < limit else f'FAIL, limit {limit:g}'})")
    return 0 if max(errs.values()) < limit else 2


def model_gradcheck(seed: int) -> float:
    """Finite-difference check of the training step's objective,
    weaktrain.sample_losses with the RLS term, over the parameter vector on
    an 8x8 sample built from a fixed annotation."""
    rng = np.random.default_rng(seed)
    cfg = weaktrain.TrainConfig(arch=ArchConfig(channels=4))
    params = init_params(seed, cfg.arch)
    # move heads well off zero so downstream gradients dominate fd noise,
    # and lift every bias under a relu (the convs' and the scale-attention
    # gates' hidden layer): with symmetric biases all of dec0's or a gate's
    # units could start dead, zeroing every gradient upstream of them
    for name, view in param_views(params, cfg.arch).items():
        if name.startswith("head"):
            view[...] = rng.uniform(-0.5, 0.5, view.shape)
        elif name.endswith(("_b", "_b1")):
            view[...] = rng.uniform(0.1, 0.5, view.shape)
    ann = recist.RecistAnnotation((1.0, 4.0), (7.0, 4.0), (4.0, 2.0),
                                  (4.0, 6.0))
    sample = Sample.from_annotation(rng.uniform(0, 1, (8, 8)), ann)
    workspace = new_workspace()
    return finite_diff_check(lambda vec: weaktrain.sample_losses(
        sample, vec, cfg, True, workspace)[:2], params)


# ---------------------------------------------------------------------------

def _synth_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=SynthConfig.size)
    p.add_argument("--irregularity", type=float,
                   default=SynthConfig.irregularity)
    p.add_argument("--noise", type=float, default=SynthConfig.noise_sigma)
    p.add_argument("--distractors", type=int, default=SynthConfig.distractors)
    p.set_defaults(func=cmd_synth)


def _train_args(p):
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)


def _eval_args(p):
    p.add_argument("--data", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model")
    source.add_argument("--pred")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)


def _segment_cv_args(p):
    p.add_argument("--image", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--init")
    source.add_argument("--ellipse")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--mu", type=float, default=CvConfig.mu)
    p.add_argument("--nu", type=float, default=CvConfig.nu)
    p.add_argument("--iters", type=int, default=CvConfig.iters)
    p.set_defaults(func=cmd_segment_cv)


def _fit_ellipse_args(p):
    p.add_argument("--recist", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_ellipse)


def _gradcheck_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)


# (name, help, the function that adds its arguments) of each subcommand
_COMMANDS = (
    ("synth", "generate a synthetic lesion dataset", _synth_args),
    ("train", "run the weakly-supervised training", _train_args),
    ("eval", "evaluate predictions against ground truth", _eval_args),
    ("segment-cv", "Chan-Vese segmentation of one image", _segment_cv_args),
    ("fit-ellipse", "rasterize a fitted RECIST ellipse", _fit_ellipse_args),
    ("gradcheck", "finite-difference gradient suite", _gradcheck_args),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakseg",
        description="Weakly-supervised lesion segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, add_args in _COMMANDS:
        add_args(sub.add_parser(name, help=help_))
    return parser


def _parse(argv):
    """build_parser().parse_args(argv), building only the invoked
    subcommand's parser when argv names one: building all of them costs
    more than most of a fast command's work. Arguments that parser leaves
    over go to the full parser, so its error (prog weakseg) is the one
    shown."""
    argv = sys.argv[1:] if argv is None else list(argv)
    add_args = {name: add for name, _, add in _COMMANDS}.get(
        argv[0] if argv else None)
    if add_args is None:
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"weakseg {argv[0]}")
    add_args(parser)
    args, rest = parser.parse_known_args(argv[1:])
    return build_parser().parse_args(argv) if rest else args


def cli_main(argv=None) -> int:
    try:
        args = _parse(argv)
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

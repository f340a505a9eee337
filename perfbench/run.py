#!/usr/bin/env python3
"""weakseg benchmark: two workloads through weakseg.cli.cli_main, one
process per workload (each CLI call in a forked copy of it).

    python3 perfbench/run.py --workload train_fixed --seed 1 --seconds 50
    python3 perfbench/run.py --workload all --seed 1 --trace 0

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 runs one untraced unit, then the set-up and one unit again with
timing wrappers around the weakseg modules, checks that both produce the same
bytes, and reports the per-layer metrics. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS thread for the whole workload process, fixed before numpy loads:
# with OpenBLAS's default (one thread per CPU) four identical trainings
# spread over 85-111 samples/s, with one thread over 96-100 samples/s. It also
# keeps `eval` at WEAKSEG_THREADS=2 from oversubscribing the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from layers import LAYER_MODULES, Probes  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

# fixed trained-model input of `infer`; regenerate with make_model.py
INFER_MODEL = HERE / "infer_model.bin"
INFER_MODEL_SHA256 = \
    "821bf5b0fc913f4290bfdc494f320ec62482c6d66fb5d483521d0ea6199b3dbb"

# the acceptance tests' benchmark data (tests/test_acceptance.py BENCH_SYNTH);
# `weakseg synth` has no flags for these, so train_fixed generates its data
# with synthgen.gen_dataset and cli.write_dataset
BENCH_SYNTH = dict(size=64, irregularity=0.15, background=0.45,
                   contrast_range=(0.25, 0.4), dark_prob=0.5)
TEST_SEED_OFFSET = 500_000  # test sets come from a stream disjoint from train
# the test set is split into shards, each evaluated by its own CLI call, so
# a run's eval median spans several inputs and heap states rather than one
TEST_SHARDS = 8
SETUPS = 3  # setup_s is the median of at least this many set-ups
EVAL_CHECKS = 3  # test samples whose eval Dice is recomputed independently
MIN_DICE = 0.5  # below this the run counts as broken, not slow


@dataclass(frozen=True)
class Workload:
    name: str
    shard_n: int  # test samples per shard
    test_size: int = 64
    bench_synth: bool = False
    train_n: int = 0
    config: dict | None = None  # `weakseg train --config`; None: fixed model

    @property
    def steps(self) -> int:
        """Training steps one `weakseg train` attempts (sample visits)."""
        if self.config is None:
            return 0
        return self.train_n * self.config["epochs"] * self.config["rounds"]


# why each workload exists: BENCHMARK.json and README.md. The training seed
# is fixed at 1: it decides whether this short schedule converges at all.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_fixed",
        shard_n=25, bench_synth=True, train_n=100,
        config={"epochs": 8, "stage2_start": 2, "decay_epochs": [6, 7],
                "lr": 0.001, "augment": False, "rounds": 1, "seed": 1,
                "arch": {"channels": 8}}),
    Workload(
        name="infer",
        shard_n=15, test_size=128),
)}


class BenchError(Exception):
    """An output check failed; the run reports correct=false."""


@dataclass
class Ledger:
    """Attempted and failed operations. Iteration-cap stops are wasted work,
    reported as a ratio by the traced run, not failures."""
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def summary(self) -> dict:
        att = sum(self.attempted.values())
        fail = sum(self.failed.values())
        return {"failed_ratio": fail / att if att else 0.0,
                "failed": fail, "attempted": att,
                "attempted_by_kind": dict(self.attempted),
                "failed_by_kind": dict(self.failed)}


@dataclass
class Ctx:
    ws: SimpleNamespace
    wl: Workload
    ledger: Ledger
    tracer: Tracer | None = None
    probes: Probes | None = None
    peak_rss_mb: float = 0.0  # highest of the forked CLI calls
    calls: list = field(default_factory=list)  # wall/user/sys/faults per call

    def state(self):
        """What a forked child changed, for the parent to take over."""
        return (self.ledger, self.peak_rss_mb, self.calls,
                self.probes.state() if self.probes else None)

    def set_state(self, state):
        ledger, self.peak_rss_mb, calls, probes = state
        self.ledger.attempted, self.ledger.failed = \
            ledger.attempted, ledger.failed
        self.calls[:] = calls
        if self.probes:
            self.probes.set_state(probes)


# ---------------------------------------------------------------------------
# helpers

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path, name: str = "*") -> str:
    """sha256 over the relative paths and bytes of the files under root
    matching name."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob(name) if p.is_file()):
        h.update(str(f.relative_to(root)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def dice(pred, gt) -> float:
    """Dice of two boolean masks, 1 when both are empty; independent of
    weakseg.metrics so it can check it."""
    inter = int((pred & gt).sum())
    total = int(pred.sum()) + int(gt.sum())
    return 1.0 if total == 0 else 2.0 * inter / total


def import_weakseg() -> SimpleNamespace:
    """Import weakseg from this checkout's src/, never from elsewhere."""
    if not (SRC / "weakseg" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'weakseg'} not found; run this from "
                         "the root of a weakseg checkout")
    sys.path.insert(0, str(SRC))
    import importlib
    pkg = importlib.import_module("weakseg")
    if Path(pkg.__file__).resolve().parent != (SRC / "weakseg").resolve():
        raise SystemExit(f"error: imported weakseg from {pkg.__file__}, "
                         f"not from {SRC}")
    mods = {m: importlib.import_module(f"weakseg.{m}") for m in LAYER_MODULES}
    return SimpleNamespace(package=pkg, **mods)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running the CLI

def in_fork(ctx: Ctx, fn, *args):
    """Run fn(*args) in a forked copy of this process and return its result,
    merging back the child's spans, counters and failure accounting.

    Set-ups and CLI calls all run this way, so each starts from the same
    heap, as a fresh `weakseg` process would, without interpreter start-up.
    Run one after another in one process, calls inherit glibc heap state
    from the work before them: the same `eval` alternated between about
    1.3k and 300k minor faults per call and the same training between 0 and
    1.4M, moving their times by up to 2x. The parent has no other threads
    when it forks (BLAS runs single-threaded)."""
    gc.collect()
    sys.stdout.flush()
    sys.stderr.flush()
    first = len(ctx.tracer.spans) if ctx.tracer else 0
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                outcome = ("ok", fn(*args))
            except BenchError as exc:
                outcome = ("bench", str(exc))
            except Exception:  # reported to the parent, which fails the run
                outcome = ("error", traceback.format_exc())
            spans = ctx.tracer.spans[first:] if ctx.tracer else []
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump((outcome, spans, ctx.state()), fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        (kind, value), spans, state = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise BenchError(f"forked call ended with status {status} and no "
                         "result") from exc
    ctx.set_state(state)
    if ctx.tracer:
        ctx.tracer.spans.extend(spans)
    if kind != "ok":
        raise BenchError(value if kind == "bench"
                         else f"forked call raised:\n{value}")
    return value


def _cli_child(ctx: Ctx, argv, threads: int) -> dict:
    """Body of the forked child: one timed cli_main call."""
    os.environ["WEAKSEG_THREADS"] = str(threads)
    out, err = io.StringIO(), io.StringIO()
    span = ctx.tracer.span(f"cli.{argv[0]}") if ctx.tracer \
        else contextlib.nullcontext()
    code, nonfinite = None, None
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = ctx.ws.cli.cli_main(argv)
    except FloatingPointError as exc:  # training's non-finite loss/gradient
        nonfinite = str(exc)
    seconds = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)  # reset to 0 by fork
    return {"code": code, "nonfinite": nonfinite, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "wall_s": seconds,
            "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "minflt": ru.ru_minflt, "maxrss_mb": ru.ru_maxrss / 1024.0}


def run_cli(ctx: Ctx, argv, threads: int = 1):
    """One `weakseg` invocation through cli_main, in a forked child. Returns
    (seconds, stdout); raises BenchError on a non-zero exit or a non-finite
    loss or gradient."""
    argv = [str(a) for a in argv]
    ctx.ledger.attempted["cli_invocations"] += 1
    res = in_fork(ctx, _cli_child, ctx, argv, threads)
    ctx.peak_rss_mb = max(ctx.peak_rss_mb, res["maxrss_mb"])
    ctx.calls.append({"cmd": argv[0], "workers": threads,
                      **{k: res[k] for k in
                         ("wall_s", "user_s", "sys_s", "minflt")}})
    if res["nonfinite"] is not None:
        ctx.ledger.failed["non_finite_losses"] += 1
        raise BenchError(f"weakseg {argv[0]}: {res['nonfinite']}")
    if res["code"] != 0:
        ctx.ledger.failed["nonzero_exits"] += 1
        raise BenchError(f"weakseg {' '.join(argv)} exited {res['code']}: "
                         f"{res['stderr'].strip()}")
    return res["wall_s"], res["stdout"]


def make_dataset(ctx: Ctx, n: int, seed: int, size: int, out: Path):
    wl, ws = ctx.wl, ctx.ws
    if wl.bench_synth:
        samples, manifest = ws.synthgen.gen_dataset(
            ws.synthgen.SynthConfig(seed=seed, **BENCH_SYNTH), n)
        ws.cli.write_dataset(samples, manifest, out)
    else:
        run_cli(ctx, ["synth", "--n", n, "--seed", seed, "--size", size,
                      "--out", out])


def setup(ctx: Ctx, seed: int, dest: Path) -> None:
    """Generate the workload's inputs from the seed: training set and
    config, TEST_SHARDS test sets, and for the first image of each shard the
    fitted-ellipse initialisation segment-cv starts from."""
    wl, ws = ctx.wl, ctx.ws
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if wl.config is not None:
        make_dataset(ctx, wl.train_n, seed, 64, dest / "train")
        (dest / "config.json").write_text(json.dumps(wl.config))
    (dest / "cv").mkdir()
    for k in range(TEST_SHARDS):
        shard = dest / f"test{k}"
        make_dataset(ctx, wl.shard_n, seed + TEST_SEED_OFFSET + k,
                     wl.test_size, shard)
        sid, ann = ws.recist.read_annotation_csv(
            (shard / "recist.csv").read_text())[0]
        e = ws.recist.fit_ellipse(ann)
        (dest / "cv" / f"{shard.name}_{sid}.json").write_text(json.dumps(
            {"center": list(e.center), "a": e.a, "b": e.b, "theta": e.theta}))
    if wl.config is None and sha256(INFER_MODEL) != INFER_MODEL_SHA256:
        raise BenchError(f"{INFER_MODEL} does not match its recorded sha256; "
                         "regenerate it with perfbench/make_model.py")


def read_csv_rows(path: Path):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def check_training(ctx: Ctx, run_dir: Path) -> None:
    model = run_dir / "model.bin"
    if not model.is_file() or model.stat().st_size == 0:
        raise BenchError(f"missing artifact {model}")
    for r in range(1, ctx.wl.config["rounds"] + 1):
        hist = run_dir / f"history_round{r}.csv"
        if not hist.is_file():
            raise BenchError(f"missing artifact {hist}")
        rows = read_csv_rows(hist)
        if len(rows) != ctx.wl.config["epochs"]:
            raise BenchError(f"{hist}: {len(rows)} epochs, expected "
                             f"{ctx.wl.config['epochs']}")
        for row in rows:
            for key in ("mean_seg_loss", "mean_rls_loss"):
                if not math.isfinite(float(row[key])):
                    ctx.ledger.failed["non_finite_losses"] += 1
                    raise BenchError(f"{hist}: non-finite {key} in epoch "
                                     f"{row['epoch']}")


EVAL_FILES = ("metrics.csv", "histogram.csv", "summary.json")


def check_eval(ctx: Ctx, out: Path) -> dict:
    for name in EVAL_FILES:
        if not (out / name).is_file():
            raise BenchError(f"missing artifact {out / name}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["n"] != ctx.wl.shard_n:
        raise BenchError(f"{out}: evaluated {summary['n']} samples, "
                         f"expected {ctx.wl.shard_n}")
    d = summary["dice"]["mean"]
    if not (math.isfinite(d) and 0.0 <= d <= 1.0):
        raise BenchError(f"{out}: dice {d} outside [0, 1]")
    return summary


def run_unit(ctx: Ctx, data: Path, dest: Path) -> dict:
    """One pass of the workload: train (train workloads), then for each
    test shard eval at 1 and at 2 workers and segment-cv on its first image.
    Solves and eval calls alternate so that both sample the whole unit."""
    wl, ws = ctx.wl, ctx.ws
    dest.mkdir(parents=True)
    u = {}
    if wl.config is not None:
        run_dir = dest / "train"
        u["train_s"], _ = run_cli(ctx, ["train", "--data", data / "train",
                                        "--config", data / "config.json",
                                        "--out", run_dir])
        ctx.ledger.attempted["training_steps"] += wl.steps
        check_training(ctx, run_dir)
        model = run_dir / "model.bin"
    else:
        model = INFER_MODEL
    u["model"] = model
    u["eval1_s"], u["eval2_s"], u["cv_s"] = [], [], []
    dices, cv_dices = [], []
    (dest / "cv").mkdir()
    for k in range(TEST_SHARDS):
        for w in (1, 2):
            out = dest / f"eval{w}" / f"test{k}"
            dt, _ = run_cli(ctx, ["eval", "--data", data / f"test{k}",
                                  "--model", model, "--out", out], threads=w)
            u[f"eval{w}_s"].append(dt)
            summary = check_eval(ctx, out)
        for name in EVAL_FILES:
            if (dest / "eval1" / f"test{k}" / name).read_bytes() != \
                    (dest / "eval2" / f"test{k}" / name).read_bytes():
                raise BenchError(f"test{k} eval {name} differs between 1 "
                                 "and 2 workers")
        dices.append(summary["dice"]["mean"])

        f, = (data / "cv").glob(f"test{k}_*.json")
        shard, sid = f.stem.split("_")
        mask_file = dest / "cv" / f"{f.stem}.pgm"
        ctx.ledger.attempted["cv_solves"] += 1
        dt, out = run_cli(ctx, ["segment-cv", "--image",
                                data / shard / "images" / f"{sid}.pgm",
                                "--ellipse", f, "--out", mask_file])
        u["cv_s"].append(dt)
        if "warning:" in out:
            ctx.ledger.failed["degenerate_solves"] += 1
            raise BenchError(f"segment-cv {shard}/{sid}: {out.strip()}")
        if not mask_file.is_file():
            raise BenchError(f"missing artifact {mask_file}")
        mask = ws.imgcore.decode_pgm(mask_file.read_bytes()) >= 0.5
        gt = ws.imgcore.decode_pgm(
            (data / shard / "gt" / f"{sid}.pgm").read_bytes()) >= 0.5
        cv_dices.append(dice(mask, gt))
    u["test_dice"] = sum(dices) / len(dices)  # equal shard sizes
    u["cv_dice"] = sum(cv_dices) / len(cv_dices)
    u["eval_dir"] = dest / "eval1"
    u["digests"] = {
        "model.bin": sha256(model),
        "eval/*/summary.json": tree_digest(u["eval_dir"], "summary.json"),
        "eval/*/metrics.csv": tree_digest(u["eval_dir"], "metrics.csv"),
        "cv masks": tree_digest(dest / "cv"),
    }
    return u


def check_eval_independently(ctx: Ctx, data: Path, unit: dict) -> None:
    """Recompute the Dice of a few eval rows from the model file, the image
    and the ground truth, without weakseg's eval or metrics code."""
    ws = ctx.ws
    params, arch = ws.model.load_model(unit["model"])
    rows = read_csv_rows(unit["eval_dir"] / "test0" / "metrics.csv")
    for row in rows[:EVAL_CHECKS]:
        sid = row["id"]
        img = ws.imgcore.decode_pgm(
            (data / "test0" / "images" / f"{sid}.pgm").read_bytes())
        gt = ws.imgcore.decode_pgm(
            (data / "test0" / "gt" / f"{sid}.pgm").read_bytes()) >= 0.5
        _, _, p3, _ = ws.model.forward(img, params, arch)
        want = dice(p3 >= 0.5, gt)
        if abs(want - float(row["dice"])) > 1e-9:
            raise BenchError(f"eval dice of test0/{sid} is {row['dice']}, "
                             f"recomputed {want:.10g}")


def check_quality(unit: dict) -> None:
    for key in ("test_dice", "cv_dice"):
        if unit[key] < MIN_DICE:
            raise BenchError(f"{key} {unit[key]:.4f} < {MIN_DICE}: the "
                             "program no longer segments")


def headline(wl: Workload, u: dict) -> float:
    """samples/s of one unit's main phase: training for the train
    workloads, 1-worker eval for infer."""
    if wl.config is not None:
        return wl.steps / u["train_s"]
    return wl.shard_n / statistics.median(u["eval1_s"])


def digests_equal(a: dict, b: dict, what: str) -> None:
    for key, value in a["digests"].items():
        if b["digests"][key] != value:
            raise BenchError(f"{key} differs between {what}")


# ---------------------------------------------------------------------------
# the two modes

def measure(ctx: Ctx, seed: int, seconds: float, work: Path):
    """Untraced run: a set-up, then units until `seconds` are used, with
    another set-up after each unit (at least SETUPS in all). The machine's
    speed swings within seconds, so set-ups run back to back would all
    sample one phase of it. Returns end-to-end metrics (name -> (value,
    unit)) and details."""
    wl = ctx.wl
    setup_times, inputs = [], set()

    def one_setup():
        dest = work / f"setup{len(setup_times)}"
        t0 = time.perf_counter()
        in_fork(ctx, setup, ctx, seed, dest)
        setup_times.append(time.perf_counter() - t0)
        inputs.add(tree_digest(dest))
        return dest

    data = one_setup()
    units = []
    t_start = time.perf_counter()
    while True:
        units.append(run_unit(ctx, data, work / f"unit{len(units)}"))
        shutil.rmtree(one_setup())
        elapsed = time.perf_counter() - t_start
        # stop when one more unit would overrun by more than half a unit
        if elapsed + 0.5 * elapsed / len(units) > seconds:
            break
    while len(setup_times) < SETUPS:
        shutil.rmtree(one_setup())
    if len(inputs) != 1:
        raise BenchError("set-up is not a function of the seed")
    for u in units[1:]:
        digests_equal(units[0], u, "repeated units")
    check_quality(units[0])
    check_eval_independently(ctx, data, units[-1])

    def pooled_median(key):
        return statistics.median(t for u in units for t in u[key])

    eval_rate = wl.shard_n / pooled_median("eval1_s")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (eval_rate if wl.config is None else
                          statistics.median(headline(wl, u) for u in units),
                          "samples/s"),
        "eval_samples_per_s": (eval_rate, "samples/s"),
        "eval_samples_per_s_2w": (wl.shard_n / pooled_median("eval2_s"),
                                  "samples/s"),
        "cv_images_per_s": (1.0 / pooled_median("cv_s"), "images/s"),
        "test_dice": (units[0]["test_dice"], "Dice"),
        "cv_dice": (units[0]["cv_dice"], "Dice"),
        "peak_rss_mb": (max(ctx.peak_rss_mb, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0), "MB"),
    }
    details = {"units": len(units), "setup_s_all": setup_times,
               "digests": units[0]["digests"],
               "per_unit": [{k: v for k, v in u.items()
                             if k.endswith("_s")} for u in units]}
    return metrics, details


def traced(ctx: Ctx, seed: int, work: Path):
    """Untraced unit, then set-up and unit again under the tracer; the two
    must produce identical bytes. Returns per-layer metrics and details."""
    wl = ctx.wl
    in_fork(ctx, setup, ctx, seed, work / "setup")
    plain = run_unit(ctx, work / "setup", work / "unit_plain")

    tracer = Tracer()
    probes = Probes(tracer, ctx.ws)
    ctx.tracer, ctx.probes = tracer, probes
    try:
        wrapped = probes.install()
        with tracer.span("bench.setup"):
            in_fork(ctx, setup, ctx, seed, work / "setup_traced")
        unit = run_unit(ctx, work / "setup_traced", work / "unit_traced")
    finally:
        tracer.restore()
        ctx.tracer, ctx.probes = None, None
    left = [f"{m.__name__}.{a}" for m in vars(ctx.ws).values()
            for a, v in vars(m).items()
            if getattr(v, "__wrapped_by_tracer__", False)]
    if left:
        raise BenchError(f"wrappers left installed: {left}")
    if tree_digest(work / "setup") != tree_digest(work / "setup_traced"):
        raise BenchError("traced set-up produced different inputs")
    digests_equal(plain, unit, "the untraced and traced runs")
    check_quality(unit)

    metrics, details = probes.report()
    base, with_trace = headline(wl, plain), headline(wl, unit)
    details.update({
        "wrapped_bindings": wrapped, "spans": len(tracer.spans),
        "digests": unit["digests"],
        "tracing_overhead": {"samples_per_s_untraced": base,
                             "samples_per_s_traced": with_trace,
                             "overhead_pct":
                                 100.0 * (base - with_trace) / base}})
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{wl.name}-seed{seed}.json"
    spans_file.write_text(json.dumps(
        {"columns": ["name", "tag", "start_s", "end_s", "parent", "self_s"],
         "spans": tracer.dump()}))
    details["spans_file"] = str(spans_file.relative_to(ROOT))
    return metrics, details


# ---------------------------------------------------------------------------

def declared(trace: int):
    """(metric name -> unit, workload name -> why) from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def run_workload(args) -> int:
    ws = import_weakseg()
    wl = WORKLOADS[args.workload]
    want, whys = declared(args.trace)
    ctx = Ctx(ws=ws, wl=wl, ledger=Ledger())
    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    details = {"workload": wl.name, "why": whys[wl.name],
               "environment": environment(args.seed)}
    measured = {}
    try:
        if args.trace:
            measured, more = traced(ctx, args.seed, work)
        else:
            measured, more = measure(ctx, args.seed, args.seconds, work)
        details.update(more)
        wrong = sorted(n for n, unit in want.items()
                       if measured.get(n, (None, None))[1] != unit)
        if wrong:
            raise BenchError(f"metrics not measured with the unit "
                             f"BENCHMARK.json declares: {wrong}")
        result["metrics"] = {n: {"value": measured[n][0], "unit": want[n]}
                             for n in want}
        result["correct"] = True
    except BenchError as exc:
        details["error"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # report any crash as a failed run
        traceback.print_exc()
        details["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    led = ctx.ledger.summary()
    details["failures"] = led
    details["cli_calls"] = ctx.calls
    result["attempted"] = max(1, led["attempted"])
    result["failed"] = led["failed"]
    if result["failed"]:
        result["correct"] = False

    print(f"== {wl.name} (seed {args.seed}, trace {args.trace}) ==")
    rows = measured.items() if result["correct"] else ()
    for name, (value, unit) in sorted(rows):
        print(f"  {name:38s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':38s} {led['failed_ratio']:>16.6g} "
          f"({led['failed']} failed / {led['attempted']} attempted)")
    print("details " + json.dumps(details, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

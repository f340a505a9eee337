#!/usr/bin/env python3
"""Regenerate perfbench/infer_model.bin, the fixed model `infer` evaluates.

    python3 perfbench/make_model.py

Trains a channels-8 segmenter through `weakseg train` on 100 synthetic 64x64
images (synth seed 4242): 10 epochs, RLS from epoch 2, no augmentation, one
round, with the benchmark's BLAS setting. Training is a deterministic function
of these inputs, so the file is reproducible on the same numpy/BLAS; the
printed sha256 is what run.py records as INFER_MODEL_SHA256.
"""

from __future__ import annotations

import json
import shutil

import run

SYNTH_SEED = 4242
TRAIN_N = 100
CONFIG = {"epochs": 10, "stage2_start": 2, "decay_epochs": [8, 9],
          "lr": 0.001, "augment": False, "rounds": 1, "seed": 1,
          "arch": {"channels": 8}}


def main() -> None:
    ws = run.import_weakseg()
    ctx = run.Ctx(ws=ws, wl=run.WORKLOADS["infer"], ledger=run.Ledger())
    work = run.WORK / "make_model"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.run_cli(ctx, ["synth", "--n", TRAIN_N, "--seed", SYNTH_SEED,
                          "--out", work / "train"])
        (work / "config.json").write_text(json.dumps(CONFIG))
        run.run_cli(ctx, ["train", "--data", work / "train",
                          "--config", work / "config.json",
                          "--out", work / "run"])
        shutil.copyfile(work / "run" / "model.bin", run.INFER_MODEL)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {run.INFER_MODEL} sha256 {run.sha256(run.INFER_MODEL)}")


if __name__ == "__main__":
    main()

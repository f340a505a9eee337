import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import weakseg
from weakseg import cli, recist, synthgen, weaktrain
from weakseg.cli import DataError, build_parser, cli_main, load_dataset, \
    write_dataset
from weakseg.imgcore import decode_pgm, encode_pgm
from weakseg.losses import DegenerateRegionError
from weakseg.model import ArchConfig, conv2d_backward, init_params, \
    load_model, param_views, save_model
from weakseg.recist import rasterize_ellipse
from weakseg.synthgen import Sample, SynthConfig, gen_dataset


def run(*argv):
    return cli_main(list(argv))


def run_process(*argv, **env):
    """Run the CLI in a fresh interpreter with ``env`` added to the
    environment; returns the CompletedProcess with text stdout/stderr."""
    src = str(Path(weakseg.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "weakseg.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300)


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    samples, manifest = gen_dataset(
        SynthConfig(size=32, radius_range=(6, 8), seed=21), 3)
    write_dataset(samples, manifest, out)
    return out


# an image file that decode_pgm rejects, and the start of its message
BAD_PGM = {
    "non-numeric sample": (b"P2 1 1 255 x", "non-numeric sample b'x'"),
    "non-numeric header": (b"P2 1 x 255 0", "non-numeric header token b'x'"),
    "underscored width": (b"P2 1_0 1 255 " + b"0 " * 10,
                          "non-numeric header token b'1_0'"),
    "5000-digit width": (b"P2 " + b"1" * 5000 + b" 1 255 0",
                         "non-numeric header token b'111"),
    "zero width": (b"P2 0 2 255 0 0", "bad dimensions 0x2"),
    "header ends early": (b"P2 1 1", "unexpected end of header at byte 6"),
    "P2 sample over maxval": (b"P2 1 1 100 101", "sample 101 out of range"),
    "5000-digit sample": (b"P2 1 1 255 " + b"1" * 5000, "sample 111"),
    "P5 sample over maxval": (b"P5 1 1 100\n\xff",
                              "sample exceeds maxval 100"),
}


class TestDatasetIo:
    def test_roundtrip(self, dataset_dir):
        samples = [Sample.from_annotation(r.image, r.annotation, r.gt_mask,
                                          r.sample_id)
                   for r in load_dataset(dataset_dir)]
        assert [s.sample_id for s in samples] == ["000", "001", "002"]
        for s in samples:
            assert s.image.shape == (32, 32)
            assert s.gt_mask is not None
            assert (s.pseudo == 1).any()

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")

    def test_gt_shape_mismatch_names_gt_file(self, dataset_dir):
        gt_file = dataset_dir / "gt" / "001.pgm"
        gt_file.write_bytes(encode_pgm(np.zeros((16, 20))))
        with pytest.raises(DataError) as info:
            load_dataset(dataset_dir)
        assert str(gt_file) in str(info.value)
        assert "20x16" in str(info.value)

    @pytest.mark.parametrize("case", [
        "truncated image", *BAD_PGM, "non-numeric field", "zero-length axis",
        "inf", "nan", "no csv header", "short csv row",
        "5000-character field", "repeated 5000-character id",
        "5000-character id"])
    def test_malformed_input_names_the_file(self, dataset_dir, tmp_path,
                                            capsys, case):
        csv_file = dataset_dir / "recist.csv"
        bad = dataset_dir / "images" / "001.pgm"
        rows = csv_file.read_text().splitlines()
        if case == "truncated image":
            bad.write_bytes(bad.read_bytes()[:15])
            named = f"{bad}: truncated raster"
        elif case in BAD_PGM:
            raw, named = BAD_PGM[case]
            bad.write_bytes(raw)
            named = f"{bad}: {named}"
        elif case == "no csv header":
            csv_file.write_text("\n".join(rows[1:]) + "\n")
            named = f"{csv_file}: annotation CSV must start with an image_id"
        else:
            fields = rows[2].split(",")
            named = f"{csv_file}: line 3: "
            if case == "non-numeric field":
                fields[3] = "abc"
                named += "x2 is not a number: 'abc'"
            elif case == "5000-character field":
                fields[3] = "a" * 5000
                named += f"x2 is not a number: '{'a' * 20}'... (5000 " \
                         "characters)"
            elif case == "repeated 5000-character id":
                fields[0] = "i" * 5000
                rows.insert(3, ",".join(fields))
                named = f"{csv_file}: line 4: image id '{'i' * 20}'... " \
                        "(5000 characters) repeats line 3"
            elif case == "5000-character id":  # its path is too long to open
                fields[0] = "i" * 5000
                named = f"{dataset_dir / 'images' / ('i' * 20)}... (5000 " \
                        "characters).pgm: File name too long"
            elif case == "zero-length axis":  # the long end is its start
                fields[3:5] = fields[1:3]
            elif case == "short csv row":
                fields = fields[:4]
                named += "annotation row needs 9 fields, got 4"
            else:
                fields[1] = case
                named += f"x1 must be finite, got {case}"
            rows[2] = ",".join(fields)
            csv_file.write_text("\n".join(rows) + "\n")
        assert run("eval", "--data", str(dataset_dir), "--pred",
                   str(tmp_path), "--out", str(tmp_path / "e")) == 2
        err = capsys.readouterr().err
        assert named in err
        # an offending token is cut to its first 20 bytes in the message
        assert len(err) < len(named) + 80


    @pytest.mark.parametrize("command", ["train", "eval", "fit-ellipse"])
    def test_repeated_image_id_is_data_error(self, dataset_dir, tmp_path,
                                             capsys, command):
        csv_file = dataset_dir / "recist.csv"
        rows = csv_file.read_text().splitlines()
        csv_file.write_text("\n".join(rows + [rows[1]]) + "\n")
        out = tmp_path / "out"
        argv = {"train": ["--data", str(dataset_dir)],
                "eval": ["--data", str(dataset_dir), "--pred",
                         str(dataset_dir / "gt")],
                "fit-ellipse": ["--recist", str(csv_file), "--image-id",
                                "001", "--width", "32", "--height", "32"]}
        assert run(command, *argv[command], "--out", str(out)) == 2
        assert f"{csv_file}: line 5: image id '000' repeats line 2" \
            in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_flag_defaults_are_synth_config_defaults(self):
        args = build_parser().parse_args(["synth", "--n", "1", "--out", "d"])
        want = SynthConfig()
        assert (args.size, args.irregularity, args.noise, args.distractors,
                args.seed) == (want.size, want.irregularity, want.noise_sigma,
                               want.distractors, want.seed)

    def test_writes_layout(self, tmp_path):
        out = tmp_path / "d"
        assert run("synth", "--n", "2", "--seed", "3", "--size", "48",
                   "--out", str(out)) == 0
        assert (out / "images" / "000.pgm").exists()
        assert (out / "gt" / "001.pgm").exists()
        assert (out / "recist.csv").exists()
        assert (out / "manifest.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--n", "2", "--seed", "3", "--size", "48",
                       "--out", str(out)) == 0
        for rel in ("images/000.pgm", "gt/000.pgm", "recist.csv",
                    "manifest.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_out_is_a_file_is_named(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.write_text("not a directory")
        assert run("synth", "--n", "1", "--out", str(out)) == 2
        assert f"--out {out}: cannot make the run directory" \
            in capsys.readouterr().err
        assert out.read_text() == "not a directory"


class TestTrainEval:
    def test_train_then_eval(self, dataset_dir, tmp_path):
        cfg = {"epochs": 2, "stage2_start": 1, "decay_epochs": [], "rounds": 1,
               "augment": False, "arch": {"channels": 2}}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        model_dir = tmp_path / "model"
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(model_dir)) == 0
        assert (model_dir / "model.bin").exists()
        assert (model_dir / "history_round1.csv").exists()

        eval_dir = tmp_path / "eval"
        assert run("eval", "--data", str(dataset_dir), "--model",
                   str(model_dir / "model.bin"), "--out", str(eval_dir)) == 0
        metrics = (eval_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "id,tp,fp,fn,precision,recall,dice"
        assert len(metrics) == 4
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert summary["n"] == 3

    def test_train_same_bytes_at_1_and_2_blas_threads(self, tmp_path):
        # an augmented 2-round train whose second round retrains, in a fresh
        # process per thread count
        data = tmp_path / "data"
        samples, manifest = gen_dataset(SynthConfig(size=64, seed=23), 6)
        write_dataset(samples, manifest, data)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 20, "stage2_start": 10, "decay_epochs": [18],
             "lr": 0.01, "rounds": 2, "seed": 3, "arch": {"channels": 8}}))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            proc = run_process("train", "--data", data, "--config", cfg_file,
                               "--out", out, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            runs.append({f.name: f.read_bytes() for f in sorted(
                [out / "model.bin", *out.glob("history_round*.csv")])})
        assert sorted(runs[0]) == ["history_round1.csv", "history_round2.csv",
                                   "model.bin"]
        assert runs[0]["history_round1.csv"] != runs[0]["history_round2.csv"]
        assert runs[0] == runs[1]

    def test_eval_model_predicts_on_the_calling_thread(self, dataset_dir,
                                                       tmp_path, monkeypatch):
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(6, arch), arch)
        real, threads = weaktrain.predict, []

        def recording(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(weaktrain, "predict", recording)
        assert run("eval", "--data", str(dataset_dir), "--model",
                   str(tmp_path / "m.bin"), "--out", str(tmp_path / "e")) == 0
        assert threads == [threading.get_ident()] * 3

    def test_degenerate_rls_region_drops_the_term(self, dataset_dir,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # a degenerate RLS region on one sample must not abort training
        bad = decode_pgm((dataset_dir / "images" / "001.pgm").read_bytes())
        real = weaktrain.rls_loss

        def degenerate_for_001(p, img, *args, **kwargs):
            if np.array_equal(img, bad):
                raise DegenerateRegionError("forced")
            return real(p, img, *args, **kwargs)

        monkeypatch.setattr(weaktrain, "rls_loss", degenerate_for_001)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 2, "stage2_start": 1, "decay_epochs": [], "rounds": 1,
             "augment": False, "arch": {"channels": 2}}))
        out = tmp_path / "model"
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(out)) == 0
        assert "RLS term of 1 training step" in capsys.readouterr().err
        params, _ = load_model(out / "model.bin")
        assert np.all(np.isfinite(params))

    def test_augment_skips_warn(self, dataset_dir, tmp_path, monkeypatch,
                                capsys):
        real = weaktrain.augment

        def skip_000(sample, rng, long_side):
            if sample.sample_id == "000":
                return sample, True
            return real(sample, rng, long_side)

        monkeypatch.setattr(weaktrain, "augment", skip_000)
        # no mask changes, yet each of the 3 rounds trains 2 epochs and
        # skips sample 000 in both: 6 skips
        monkeypatch.setattr(weaktrain, "update_pseudo_mask",
                            lambda p, emask: (None, True))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"epochs": 2, "stage2_start": 1, "decay_epochs": [], "rounds": 3,
             "long_side": [24, 32], "arch": {"channels": 2}}))
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(tmp_path / "model")) == 0
        assert "skipped 6 training step(s)" in capsys.readouterr().err

    def test_out_is_a_file_fails_before_training(self, dataset_dir,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        def no_training(*args):
            raise AssertionError("trained despite a bad --out")

        monkeypatch.setattr(weaktrain, "train_rounds", no_training)
        out = tmp_path / "model"
        out.write_text("not a directory")
        assert run("train", "--data", str(dataset_dir), "--out",
                   str(out)) == 2
        assert f"--out {out}: " in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_eval_out_is_a_file_fails_before_inference(self, dataset_dir,
                                                        tmp_path, monkeypatch,
                                                        capsys):
        def no_inference(*args):
            raise AssertionError("inferred despite a bad --out")

        monkeypatch.setattr(weaktrain, "predict", no_inference)
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(0, arch), arch)
        out = tmp_path / "e"
        out.write_text("not a directory")
        assert run("eval", "--data", str(dataset_dir), "--model",
                   str(tmp_path / "m.bin"), "--out", str(out)) == 2
        assert f"--out {out}: cannot make the run directory" \
            in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_rerun_removes_stale_histories(self, dataset_dir, tmp_path):
        # a 1-round rerun into a 2-round run's directory leaves no round 2
        cfg_file = tmp_path / "cfg.json"
        out = tmp_path / "model"
        for rounds in (2, 1):
            cfg_file.write_text(json.dumps(
                {"epochs": 2, "stage2_start": 1, "decay_epochs": [],
                 "rounds": rounds, "augment": False,
                 "arch": {"channels": 2}}))
            assert run("train", "--data", str(dataset_dir), "--config",
                       str(cfg_file), "--out", str(out)) == 0
            if rounds == 2:
                assert (out / "history_round2.csv").exists()
                (out / "history_roundx.csv").write_text("kept")
        assert sorted(f.name for f in out.iterdir()) == [
            "history_round1.csv", "history_roundx.csv", "model.bin"]

    @pytest.mark.parametrize("failed", [1, 2])
    def test_failed_round_keeps_the_finished_rounds(self, dataset_dir,
                                                     tmp_path, monkeypatch,
                                                     capsys, failed):
        # round `failed` of 3 fails in a run directory an earlier 3-round run
        # used. Round 2 failing: the run holds round 1 as a 1-round run writes
        # it, the earlier run's later history is gone, and round 1's skip
        # warning comes before the error. Round 1 failing: nothing changes.
        cfg_file = tmp_path / "cfg.json"
        cfg = {"epochs": 2, "stage2_start": 1, "decay_epochs": [],
               "rounds": 1, "augment": False, "arch": {"channels": 2}}
        cfg_file.write_text(json.dumps(cfg))
        one = tmp_path / "one"
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(one)) == 0
        cfg_file.write_text(json.dumps({**cfg, "rounds": 3}))
        real, calls = weaktrain.train_schedule, []

        def fails(*args):
            calls.append(args)
            if len(calls) == failed:
                raise FloatingPointError("non-finite loss on sample '001'")
            params, history = real(*args)
            history.rls_skips = 1
            return params, history

        monkeypatch.setattr(weaktrain, "train_schedule", fails)
        out = tmp_path / "run"
        out.mkdir()
        earlier = {"history_round1.csv": b"earlier 1", "model.bin": b"earlier",
                   "history_round3.csv": b"earlier 3"}
        for name, data in earlier.items():
            (out / name).write_bytes(data)
        capsys.readouterr()
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(out)) == 2
        if failed == 2:
            done = (f"warning: dropped the RLS term of 1 training step(s) "
                    f"with a degenerate region\n"
                    f"error: round 2 of 3 failed: non-finite loss on sample "
                    f"'001'; {out} holds round 1, the last that finished\n")
            want = {name: (one / name).read_bytes()
                    for name in ["history_round1.csv", "model.bin"]}
        else:
            done = ("error: round 1 of 3 failed: non-finite loss on sample "
                    "'001'; no round finished\n")
            want = earlier
        assert capsys.readouterr().err == done
        assert {f.name: f.read_bytes() for f in out.iterdir()} == want

    def test_overflowing_adam_step_fails_the_round(self, dataset_dir,
                                                   tmp_path, capsys):
        # at lr 1e308 Adam's first update overflows: no model.bin is written
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "lr": 1e308, "epochs": 1, "stage2_start": 1, "decay_epochs": [],
            "augment": False, "rounds": 1, "arch": {"channels": 2}}))
        out = tmp_path / "run"
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(out)) == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("error: round 1 of 1 failed: the Adam step "
                              "leaves parameter index ")
        assert err.endswith(" non-finite; no round finished\n")

    def test_failed_model_write_leaves_no_temporary(self, dataset_dir,
                                                    tmp_path, monkeypatch):
        def full_disk(path, *args):
            Path(path).write_bytes(b"part")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_model", full_disk)
        out = tmp_path / "run"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "epochs": 1, "stage2_start": 1, "decay_epochs": [], "rounds": 1,
            "augment": False, "arch": {"channels": 2}}))
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(out)) == 2
        assert list(out.iterdir()) == []

    def test_eval_pred_dir(self, dataset_dir, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        for s in load_dataset(dataset_dir):
            pred_mask = s.gt_mask.astype(np.float64)
            (pred / f"{s.sample_id}.pgm").write_bytes(encode_pgm(pred_mask))
        out = tmp_path / "eval"
        assert run("eval", "--data", str(dataset_dir), "--pred", str(pred),
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dice"]["mean"] == 1.0

    def test_eval_without_source_fails(self, dataset_dir, tmp_path):
        assert run("eval", "--data", str(dataset_dir),
                   "--out", str(tmp_path / "e")) == 1

    @pytest.mark.parametrize("source", ["--model", "--pred"])
    def test_eval_without_gt_fails_before_inference(self, dataset_dir,
                                                    tmp_path, monkeypatch,
                                                    capsys, source):
        gt_file = dataset_dir / "gt" / "001.pgm"
        gt_file.unlink()
        calls = []
        real = weaktrain.predict
        monkeypatch.setattr(weaktrain, "predict",
                            lambda *a: calls.append(1) or real(*a))
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(0, arch), arch)
        # an empty prediction directory: reading it first would name 000.pgm
        arg = tmp_path / ("m.bin" if source == "--model" else "pred")
        out = tmp_path / "e"
        assert run("eval", "--data", str(dataset_dir), source, str(arg),
                   "--out", str(out)) == 2
        assert f"missing {gt_file}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_eval_pred_size_mismatch_names_the_file(self, dataset_dir,
                                                    tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        for r in load_dataset(dataset_dir):
            (pred / f"{r.sample_id}.pgm").write_bytes(
                encode_pgm(r.gt_mask.astype(np.float64)))
        bad = pred / "001.pgm"
        bad.write_bytes(encode_pgm(np.zeros((16, 20))))
        out = tmp_path / "e"
        assert run("eval", "--data", str(dataset_dir), "--pred", str(pred),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{bad} is 20x16" in err
        assert f"{dataset_dir / 'images' / '001.pgm'} is 32x32" in err
        assert not out.exists()

    def test_eval_builds_no_training_masks(self, dataset_dir, tmp_path,
                                           monkeypatch):
        # eval scores predictions against gt: it never fits an ellipse or
        # builds a pseudo mask or constrained region. The perfbench probes
        # wrap cli.load_dataset and weaktrain.predict by module attribute,
        # so eval must reach both through them.
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(0, arch), arch)
        pred = tmp_path / "pred"
        pred.mkdir()
        for r in load_dataset(dataset_dir):
            (pred / f"{r.sample_id}.pgm").write_bytes(
                encode_pgm(r.gt_mask.astype(np.float64)))
        counts = dict.fromkeys(
            ["from_annotation", "fit_ellipse", "rasterize_ellipse",
             "constrained_region", "load_dataset", "predict"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fit_ellipse", "rasterize_ellipse",
                     "constrained_region"):
            real = getattr(recist, name)
            for module in (recist, synthgen, weaktrain, cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted(name, real))
        monkeypatch.setattr(Sample, "from_annotation", classmethod(
            counted("from_annotation", Sample.from_annotation.__func__)))
        monkeypatch.setattr(cli, "load_dataset",
                            counted("load_dataset", cli.load_dataset))
        monkeypatch.setattr(weaktrain, "predict",
                            counted("predict", weaktrain.predict))
        assert cli_main(["eval", "--data", str(dataset_dir), "--model",
                         str(tmp_path / "m.bin"), "--out",
                         str(tmp_path / "em")]) == 0
        assert cli_main(["eval", "--data", str(dataset_dir), "--pred",
                         str(pred), "--out", str(tmp_path / "ep")]) == 0
        assert counts == {"from_annotation": 0, "fit_ellipse": 0,
                          "rasterize_ellipse": 0, "constrained_region": 0,
                          "load_dataset": 2, "predict": 3}


def _edit_header(**changes):
    def edit(header, payload):
        header.update(changes)
        return header, payload
    return edit


def _edit_arch(**changes):
    def edit(header, payload):
        header["arch"].update(changes)
        return header, payload
    return edit


class TestModelFile:
    @pytest.mark.parametrize("edit, named", [
        (lambda h, p: ({"version": 1}, p), "'arch' must hold exactly"),
        (_edit_header(version=2), "header key 'version'"),
        (_edit_header(extra=0), "header key 'extra'"),
        (_edit_arch(depth=3), "'arch' must hold exactly"),
        (_edit_arch(channels="2"), "'arch' must hold exactly"),
        (_edit_arch(sa_enabled=1), "'arch' must hold exactly"),
        (_edit_arch(sa_enabled=False), "sa_enabled must be true"),
        (_edit_arch(pad_mode="mirror"), "unknown pad_mode"),
        (_edit_arch(pad_mode="wrap"), "unknown pad_mode 'wrap'"),
        (_edit_arch(channels=3), "header key 'manifest'"),
        (lambda h, p: (h, p[:-8]), "the payload holds"),
        (lambda h, p: (h, p + bytes(8)), "the payload holds"),
        (lambda h, p: (b"{", p), "not a JSON object"),
        pytest.param(lambda h, p: (b"[" * 100000, p), "not a JSON object",
                     id="deep-nesting"),
        pytest.param(lambda h, p: (h, p[:40] + np.float64("nan").tobytes()
                                   + p[48:]),
                     "the payload holds a non-finite value", id="nan-payload"),
    ])
    def test_bad_model_file_is_data_error(self, dataset_dir, tmp_path,
                                          capsys, edit, named):
        # eval --model exits 2 naming the file, before any inference
        model = tmp_path / "m.bin"
        arch = ArchConfig(channels=2)
        save_model(model, init_params(0, arch), arch)
        line, payload = model.read_bytes().split(b"\n", 1)
        header, payload = edit(json.loads(line), payload)
        if not isinstance(header, bytes):
            header = json.dumps(header).encode()
        model.write_bytes(header + b"\n" + payload)
        out = tmp_path / "e"
        assert run("eval", "--data", str(dataset_dir), "--model", str(model),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(model) in err and named in err
        assert not out.exists()


@pytest.fixture()
def odd_dataset_dir(tmp_path):
    """Sides of 30, which the segmenter cannot halve twice."""
    out = tmp_path / "odd"
    samples, manifest = gen_dataset(
        SynthConfig(size=30, radius_range=(6, 8), seed=21), 2)
    write_dataset(samples, manifest, out)
    return out


class TestModelSides:
    def test_train_fails_before_training(self, odd_dataset_dir, tmp_path,
                                         capsys):
        out = tmp_path / "m"
        assert run("train", "--data", str(odd_dataset_dir), "--out",
                   str(out)) == 2
        err = capsys.readouterr().err
        assert str(odd_dataset_dir / "images" / "000.pgm") in err
        assert "30x30" in err
        assert not out.exists()

    def test_eval_model_fails_before_inference(self, odd_dataset_dir,
                                               tmp_path, capsys):
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(0, arch), arch)
        out = tmp_path / "e"
        assert run("eval", "--data", str(odd_dataset_dir), "--model",
                   str(tmp_path / "m.bin"), "--out", str(out)) == 2
        assert str(odd_dataset_dir / "images" / "000.pgm") \
            in capsys.readouterr().err
        assert not out.exists()

    def test_eval_pred_takes_any_size(self, odd_dataset_dir, tmp_path):
        pred = tmp_path / "pred"
        pred.mkdir()
        for s in load_dataset(odd_dataset_dir):
            (pred / f"{s.sample_id}.pgm").write_bytes(
                encode_pgm(s.gt_mask.astype(np.float64)))
        assert run("eval", "--data", str(odd_dataset_dir), "--pred",
                   str(pred), "--out", str(tmp_path / "e")) == 0


class TestSegmentCv:
    def test_ellipse_init(self, tmp_path):
        samples, _ = gen_dataset(
            SynthConfig(size=64, radius_range=(12, 12), irregularity=0.0,
                        contrast_range=(0.5, 0.5), seed=9), 1)
        s = samples[0]
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(s.image))
        spec = tmp_path / "ellipse.json"
        spec.write_text(json.dumps({"center": list(s.meta["center"]),
                                    "a": 6.0, "b": 6.0}))
        out = tmp_path / "mask.pgm"
        trace = tmp_path / "trace.csv"
        assert run("segment-cv", "--image", str(img_file), "--ellipse",
                   str(spec), "--out", str(out), "--trace", str(trace)) == 0
        mask = decode_pgm(out.read_bytes()) >= 0.5
        inter = (mask & s.gt_mask).sum()
        dice = 2 * inter / (mask.sum() + s.gt_mask.sum())
        assert dice >= 0.95
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,energy"
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b - a <= 1e-6 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("iters", ["3", "500"])
    def test_reports_accepted_iterations(self, tmp_path, capsys, iters):
        # the trace holds the initial energy plus one row per iteration; at
        # --iters 3 the cap binds, at 500 the settle rule stops the solve
        samples, _ = gen_dataset(SynthConfig(size=64, seed=4), 1)
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(samples[0].image))
        init_file = tmp_path / "init.pgm"
        init_file.write_bytes(encode_pgm(rasterize_ellipse(
            samples[0].ellipse, (64, 64)).astype(np.float64)))
        trace = tmp_path / "trace.csv"
        assert run("segment-cv", "--image", str(img_file), "--init",
                   str(init_file), "--out", str(tmp_path / "m.pgm"),
                   "--trace", str(trace), "--iters", iters) == 0
        rows = len(trace.read_text().splitlines()) - 1
        if iters == "3":
            assert rows == 4
        else:
            assert rows - 1 < 500
        assert capsys.readouterr().out.endswith(
            f" {rows - 1} iterations)\n")

    def test_image_claiming_more_samples_than_its_bytes_hold(self, tmp_path,
                                                              capsys):
        img_file = tmp_path / "big.pgm"
        img_file.write_bytes(b"P2\n1000000000 1000000000\n255\n1 2 3\n")
        spec = tmp_path / "ellipse.json"
        spec.write_text('{"center": [4, 4], "a": 3, "b": 2}')
        assert run("segment-cv", "--image", str(img_file), "--ellipse",
                   str(spec), "--out", str(tmp_path / "m.pgm")) == 2
        assert f"{img_file}: truncated raster" in capsys.readouterr().err

    def test_needs_init_or_ellipse(self, tmp_path):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        assert run("segment-cv", "--image", str(img_file),
                   "--out", str(tmp_path / "m.pgm")) == 1

    @pytest.mark.parametrize("text, named", [
        ('{"a": 3, "b": 2}', "'center'"),
        ('[4, 4, 3, 2]', "JSON object"),
        ('{"center": [4, 4], "a": "x", "b": 2}', "'a'"),
        ('{"center": [4, 4], "a": 3}', "'b'"),
        ('{"center": [4, 4], "a": 3, "b": 2, "theta": null}', "'theta'"),
        ('{"center": [4], "a": 3, "b": 2}', "'center'"),
        ('{"center": [4, 4], "a": 3, "b": 2, "tehta": 1}', "'tehta'"),
        ('{"center": [4, 4], "a": 2, "b": 3}', "a >= b"),
        ('{"center": [4, 4', "not valid JSON"),
        ('{"center": [4, 4], "a": Infinity, "b": 2}', "'a'"),
        ('{"center": [Infinity, 4], "a": 3, "b": 2}', "'center'"),
        ('{"center": [NaN, 4], "a": 3, "b": 2}', "'center'"),
        pytest.param('{"center": [4, 4], "a": 1%s, "b": 2}' % ("0" * 400),
                     "'a'", id="a-past-the-float-range"),
        (b'\xff\xfe{}', "not valid JSON ('utf-8' codec can't decode"),
        pytest.param("[" * 100000, "not valid JSON (maximum recursion depth",
                     id="deep-nesting"),
    ])
    def test_bad_ellipse_is_data_error(self, tmp_path, capsys, text, named):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        spec = tmp_path / "ellipse.json"
        spec.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert run("segment-cv", "--image", str(img_file), "--ellipse",
                   str(spec), "--out", str(tmp_path / "m.pgm")) == 2
        err = capsys.readouterr().err
        assert str(spec) in err and named in err
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--iters", "0"), ("--mu", "-0.5"), ("--nu", "-1"), ("--mu", "nan")])
    def test_bad_solver_flag_is_usage_error(self, tmp_path, capsys, flag,
                                            value):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        assert run("segment-cv", "--image", str(img_file), "--init",
                   str(img_file), "--out", str(tmp_path / "m.pgm"),
                   flag, value) == 1
        assert flag in capsys.readouterr().err

    def test_degenerate_solve_warns_on_stderr(self, tmp_path, capsys,
                                              monkeypatch):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        init_file = tmp_path / "init.pgm"
        init_file.write_bytes(encode_pgm(np.eye(8)))
        monkeypatch.setattr(cli, "cv_evolve", lambda img, init, cfg:
                            (init, np.zeros(3), True))
        assert run("segment-cv", "--image", str(img_file), "--init",
                   str(init_file), "--out", str(tmp_path / "m.pgm")) == 0
        out, err = capsys.readouterr()
        assert "warning: evolution stopped early" in err
        assert "warning" not in out and "2 iterations" in out

    @pytest.mark.parametrize("flag", ["--init", "--ellipse"])
    def test_degenerate_init_names_its_source(self, tmp_path, capsys,
                                              monkeypatch, flag):
        # an all-foreground mask, and an ellipse centred off the grid whose
        # pixel box is empty
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        if flag == "--init":
            source, state = img_file, "the whole 8x8 grid"
        else:
            source, state = tmp_path / "ellipse.json", "empty on the 8x8 grid"
            source.write_text('{"center": [-30, 4], "a": 3, "b": 2}')
        monkeypatch.setattr(cli, "cv_evolve", None)  # never reached
        assert run("segment-cv", "--image", str(img_file), flag, str(source),
                   "--out", str(tmp_path / "m.pgm")) == 2
        assert f"error: {flag} {source}: the initial mask is {state}" \
            in capsys.readouterr().err
        assert not (tmp_path / "m.pgm").exists()

    def test_extreme_axis_ratio_prints_only_the_error(self, tmp_path):
        # q = v / b overflows to inf, which leaves every pixel out; no numpy
        # warning may reach stderr ahead of the message
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        spec = tmp_path / "ellipse.json"
        spec.write_text('{"center": [4, 4], "a": 1e300, "b": 1e-300}')
        proc = run_process("segment-cv", "--image", img_file, "--ellipse",
                           spec, "--out", tmp_path / "m.pgm")
        assert proc.returncode == 2
        assert proc.stderr == (f"error: --ellipse {spec}: the initial mask is "
                               "empty on the 8x8 grid; it needs pixels on "
                               "both sides\n")

    def test_init_shape_mismatch_names_both_files(self, tmp_path, capsys):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        init_file = tmp_path / "init.pgm"
        init_file.write_bytes(encode_pgm(np.ones((8, 12))))
        assert run("segment-cv", "--image", str(img_file), "--init",
                   str(init_file), "--out", str(tmp_path / "m.pgm")) == 2
        err = capsys.readouterr().err
        assert str(img_file) in err and str(init_file) in err


class TestFitEllipse:
    def test_roundtrip(self, dataset_dir, tmp_path):
        out = tmp_path / "e.pgm"
        assert run("fit-ellipse", "--recist", str(dataset_dir / "recist.csv"),
                   "--image-id", "000", "--width", "32", "--height", "32",
                   "--out", str(out)) == 0
        mask = decode_pgm(out.read_bytes()) >= 0.5
        r = load_dataset(dataset_dir)[0]
        sample = Sample.from_annotation(r.image, r.annotation, r.gt_mask,
                                        r.sample_id)
        assert np.array_equal(mask, sample.pseudo == 1)

    def test_unknown_id(self, dataset_dir, tmp_path):
        assert run("fit-ellipse", "--recist", str(dataset_dir / "recist.csv"),
                   "--image-id", "zzz", "--width", "32", "--height", "32",
                   "--out", str(tmp_path / "e.pgm")) == 2


class TestGradcheckAndUsage:
    def test_gradcheck_passes(self, capsys):
        # at seed 2 a coordinate's gradient near 1e-8 is within the finite
        # differences' round-off, which an error per coordinate failed
        for seed in ("0", "2"):
            assert run("gradcheck", "--seed", seed) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert [l.partition(":")[0] for l in lines] == [
                "bce", "iou", "rls", "cv", "model+losses"]
            assert all(l.endswith("(OK)") for l in lines)

    def test_gradcheck_runs_the_training_step(self, monkeypatch, capsys):
        real = weaktrain.sample_losses

        def off_by_one_percent(*args):
            total, grads, *rest = real(*args)
            return total, 1.01 * grads, *rest

        monkeypatch.setattr(weaktrain, "sample_losses", off_by_one_percent)
        assert run("gradcheck", "--seed", "0") == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.partition(":")[0] for l in lines] == [
            "bce", "iou", "rls", "cv", "model+losses"]
        assert all(l.endswith("(OK)") for l in lines[:4])
        assert "(FAIL, limit 1e-06)" in lines[4]

    def test_gradcheck_reaches_every_parameter_block(self, monkeypatch):
        # symmetric biases once left every unit of dec0 dead at seeds 1 and
        # 24, and the gradients of 19 blocks all zero; the analytic gradient
        # that model_gradcheck checks, without the finite differences
        grads = []
        monkeypatch.setattr(cli, "finite_diff_check",
                            lambda fn, x: grads.append(fn(x)[1]) or 0.0)
        for seed in range(30):
            cli.model_gradcheck(seed)
            views = param_views(grads[-1], ArchConfig(channels=4))
            for name, grad in views.items():
                assert grad.any(), (seed, name)

    def test_gradcheck_catches_a_planted_enc0_bug(self, monkeypatch):
        # a 1% error in enc0's weight gradient; enc0 is the one conv whose
        # input gradient backward skips
        def planted(dout, cache, input_grad=True):
            dx, dw, db = conv2d_backward(dout, cache, input_grad)
            return dx, dw if input_grad else 1.01 * dw, db

        for seed in (1, 24):
            assert cli.model_gradcheck(seed) < 1e-6
        monkeypatch.setattr("weakseg.model.conv2d_backward", planted)
        for seed in (1, 24):
            assert cli.model_gradcheck(seed) >= 1e-6

    def test_negative_seed_is_usage_error(self, capsys):
        assert run("gradcheck", "--seed", "-1") == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    def test_usage_errors(self, dataset_dir, tmp_path):
        assert run() == 1
        assert run("synth") == 1
        assert run("no-such-command") == 1
        # flag values out of range
        assert run("synth", "--n", "0", "--out", str(tmp_path / "s")) == 1
        assert run("synth", "--n", "2", "--size", "8",
                   "--out", str(tmp_path / "s")) == 1
        assert run("fit-ellipse", "--recist", str(dataset_dir / "recist.csv"),
                   "--image-id", "000", "--width", "0", "--height", "32",
                   "--out", str(tmp_path / "e.pgm")) == 1
        # rls_region is set in the config file only
        assert run("train", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "m"), "--rls-region", "off") == 1
        # exactly one source: the second, a missing file, is never opened
        assert run("eval", "--data", str(dataset_dir), "--pred",
                   str(dataset_dir / "gt"), "--model", str(tmp_path / "no.bin"),
                   "--out", str(tmp_path / "e")) == 1
        img_file = dataset_dir / "images" / "000.pgm"
        assert run("segment-cv", "--image", str(img_file), "--init",
                   str(img_file), "--ellipse", str(tmp_path / "no.json"),
                   "--out", str(tmp_path / "m.pgm")) == 1
        assert not (tmp_path / "e").exists()
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--n", "0"], "--n must be >= 1, got 0"),
        (["--size", "8"], "--size 8 is too small for a lesion"),
        (["--noise", "-1"], "--noise must be non-negative and finite"),
        (["--noise", "nan"], "--noise must be non-negative and finite"),
        (["--distractors", "-1"], "--distractors must be >= 0"),
        (["--irregularity", "1"], "--irregularity must lie in [0, 1)"),
        (["--seed", "-1"], "--seed must be >= 0"),
        # the flags alone decide: no seed draws a lesion that fits in 40 px
        *[(["--size", "40", "--seed", seed], "--size 40 is too small")
          for seed in "0123"],
    ])
    def test_bad_synth_flag_is_named(self, tmp_path, capsys, flags, named):
        assert run("synth", "--n", "2", *flags,
                   "--out", str(tmp_path / "s")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("segment-cv", "--image", str(tmp_path / "absent.pgm"),
                   "--init", str(tmp_path / "absent.pgm"),
                   "--out", str(tmp_path / "m.pgm")) == 2

    @pytest.mark.parametrize("text, named", [
        ('{"arch": {"chanels": 4}}', "'arch.chanels'"),
        ('{"epochs_typo": 3}', "'epochs_typo'"),
        ('{"epochs": "8"}', "'epochs'"),
        ("[1, 2]", "must be a JSON object"),
        ('{"arch": 4}', "'arch' must be a JSON object"),
        ('{"loss": {"rls_weight": 5}}', "'loss'"),
        ('{"batch": 4}', "'batch'"),
        ('{"loss": {"clamp_eps": 1e-07}}', "'loss'"),
        ('{"loss": {}}', "'loss'"),
        ('{"arch": {"sa_enabled": false}}', "'arch.sa_enabled'"),
        ('{"lr": NaN}', "lr must be positive and finite, got nan"),
        ('{"arch": {"pad_mode": "zero"}}', "'arch.pad_mode'"),
        ('{"rls_region": "off"}', "stage2_start = epochs"),
        (b'\xff\xfe{}', "cfg.json: 'utf-8' codec can't decode"),
        pytest.param("[" * 100000, "cfg.json: maximum recursion depth",
                     id="deep-nesting"),
    ])
    def test_bad_config_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                       text, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(text if isinstance(text, bytes)
                             else text.encode())
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(tmp_path / "m")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

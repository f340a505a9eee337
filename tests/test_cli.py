import json

import numpy as np
import pytest

from weakseg.cli import cli_main, load_dataset, write_dataset
from weakseg.imgcore import decode_pgm, encode_pgm
from weakseg.model import ArchConfig, init_params, save_model
from weakseg.synthgen import SynthConfig, gen_dataset


def run(*argv):
    return cli_main(list(argv))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    samples, manifest = gen_dataset(
        SynthConfig(size=32, radius_range=(6, 8), seed=21), 3)
    write_dataset(samples, manifest, out)
    return out


class TestDatasetIo:
    def test_roundtrip(self, dataset_dir):
        samples = load_dataset(dataset_dir)
        assert [s.sample_id for s in samples] == ["000", "001", "002"]
        for s in samples:
            assert s.image.shape == (32, 32)
            assert s.gt_mask is not None
            assert (s.pseudo == 1).any()

    def test_missing_dir(self, tmp_path):
        from weakseg.cli import DataError
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nope")


class TestSynth:
    def test_writes_layout(self, tmp_path):
        out = tmp_path / "d"
        assert run("synth", "--n", "2", "--seed", "3", "--size", "32",
                   "--out", str(out)) == 0
        assert (out / "images" / "000.pgm").exists()
        assert (out / "gt" / "001.pgm").exists()
        assert (out / "recist.csv").exists()
        assert (out / "manifest.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--n", "2", "--seed", "3", "--size", "32",
                       "--out", str(out)) == 0
        for rel in ("images/000.pgm", "gt/000.pgm", "recist.csv",
                    "manifest.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


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
                   "--out", str(tmp_path / "e")) == 2


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

    def test_needs_init_or_ellipse(self, tmp_path):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        assert run("segment-cv", "--image", str(img_file),
                   "--out", str(tmp_path / "m.pgm")) == 2

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
    ])
    def test_bad_ellipse_is_data_error(self, tmp_path, capsys, text, named):
        img_file = tmp_path / "img.pgm"
        img_file.write_bytes(encode_pgm(np.full((8, 8), 0.5)))
        spec = tmp_path / "ellipse.json"
        spec.write_text(text)
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
        samples = load_dataset(dataset_dir)
        assert np.array_equal(mask, samples[0].pseudo == 1)

    def test_unknown_id(self, dataset_dir, tmp_path):
        assert run("fit-ellipse", "--recist", str(dataset_dir / "recist.csv"),
                   "--image-id", "zzz", "--width", "32", "--height", "32",
                   "--out", str(tmp_path / "e.pgm")) == 2


class TestGradcheckAndUsage:
    def test_gradcheck_passes(self, capsys):
        assert run("gradcheck", "--seed", "0") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all("OK" in l for l in lines)

    def test_usage_errors(self):
        assert run() == 1
        assert run("synth") == 1
        assert run("no-such-command") == 1

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
    ])
    def test_bad_config_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                       text, named):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert run("train", "--data", str(dataset_dir), "--config",
                   str(cfg_file), "--out", str(tmp_path / "m")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_thread_count_is_usage_error(self, dataset_dir, tmp_path,
                                             monkeypatch, capsys, value):
        arch = ArchConfig(channels=2)
        save_model(tmp_path / "m.bin", init_params(0, arch), arch)
        monkeypatch.setenv("WEAKSEG_THREADS", value)
        assert run("eval", "--data", str(dataset_dir), "--model",
                   str(tmp_path / "m.bin"), "--out", str(tmp_path / "e")) == 1
        assert "WEAKSEG_THREADS" in capsys.readouterr().err

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakseg import weaktrain
from weakseg.imgcore import BG, FG, IGNORE
from weakseg.losses import DegenerateRegionError, rls_loss, seg_loss
from weakseg.model import ArchConfig, adam_init, adam_step, backward, \
    forward, init_params
from weakseg.recist import RecistAnnotation, rasterize_ellipse
from weakseg.synthgen import Sample, SynthConfig, gen_dataset
from weakseg.weaktrain import (TrainConfig, augment, make_pseudo_masks,
                               predict, train_config_from_json, train_rounds,
                               train_schedule, update_pseudo_mask)


def tiny_dataset(n=4, size=32, seed=11):
    samples, _ = gen_dataset(SynthConfig(size=size, radius_range=(6, 8),
                                         seed=seed), n)
    return samples


def tiny_config(**kw):
    base = dict(epochs=2, stage2_start=1, decay_epochs=(), rounds=1, seed=0,
                augment=False, arch=ArchConfig(channels=2))
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=4, stage2_start=5)
        with pytest.raises(ValueError):
            TrainConfig(rounds=0)
        with pytest.raises(ValueError):
            TrainConfig(long_side=(64, 32))
        with pytest.raises(ValueError):
            TrainConfig(rls_region="sometimes")
        with pytest.raises(ValueError, match="stage2_start = epochs"):
            TrainConfig(rls_region="off")
        # decay epochs past the schedule's end are allowed: the default
        # (40, 60) meets short schedules
        assert TrainConfig(epochs=4, stage2_start=2,
                           decay_epochs=(3, 60)).decay_epochs == (3, 60)

    def test_from_json(self):
        cfg = train_config_from_json(
            '{"epochs": 6, "stage2_start": 3, "decay_epochs": [4, 5],'
            ' "rls_region": "whole_image", "arch": {"channels": 4},'
            ' "long_side": [4, 48], "rls_weight": 0}')
        assert cfg.epochs == 6
        assert cfg.decay_epochs == (4, 5)
        assert cfg.rls_region == "whole_image"
        assert cfg.arch.channels == 4
        assert cfg.long_side == (4, 48)
        assert cfg.rls_weight == 0

    def test_from_json_defaults(self):
        assert train_config_from_json("{}") == TrainConfig()

    @pytest.mark.parametrize("text, shown", [
        ('{"lr": NaN}', "lr must be positive and finite, got nan"),
        ('{"lr": Infinity}', "lr must be positive and finite, got inf"),
        ('{"lr": -1.0}', "lr must be positive and finite, got -1.0"),
        ('{"lr": 0}', "lr must be positive and finite, got 0"),
        ('{"rls_weight": NaN}', "rls_weight must be non-negative and finite, "
                                "got nan"),
        ('{"rls_weight": -5.0}', "rls_weight must be non-negative and "
                                 "finite, got -5.0"),
        ('{"seed": -1}', "seed must be >= 0, got -1"),
        ('{"long_side": [0, 0]}', "long_side must start at 4 or more, got "
                                  "[0, 0]"),
        ('{"long_side": [3, 8]}', "long_side must start at 4 or more, got "
                                  "[3, 8]"),
        ('{"decay_epochs": [-1]}', "decay_epochs must be strictly increasing "
                                   "epochs >= 1, got [-1]"),
        ('{"decay_epochs": [0]}', "decay_epochs must be strictly increasing "
                                  "epochs >= 1, got [0]"),
        ('{"decay_epochs": [2, 2]}', "decay_epochs must be strictly "
                                     "increasing epochs >= 1, got [2, 2]"),
        ('{"decay_epochs": [3, 1]}', "decay_epochs must be strictly "
                                     "increasing epochs >= 1, got [3, 1]"),
        ('{"epochs": 4, "stage2_start": 5}', "need 0 < stage2_start <= "
                                             "epochs, got stage2_start 5 and "
                                             "epochs 4"),
        ('{"stage2_start": 0}', "need 0 < stage2_start <= epochs, got "
                                "stage2_start 0 and epochs 80"),
        ('{"rounds": 0}', "rounds must be >= 1, got 0"),
        ('{"arch": {"channels": 0}}', "channels must be >= 1, got 0"),
    ])
    def test_from_json_rejects_bad_values(self, text, shown):
        # json reads NaN and Infinity as floats
        with pytest.raises(ValueError) as err:
            train_config_from_json(text)
        assert str(err.value) == shown


class TestPseudoMasks:
    def test_three_scales(self):
        pseudo = np.zeros((32, 32), dtype=np.int8)
        pseudo[8:24, 8:24] = FG
        g1, g2, g3 = make_pseudo_masks(pseudo)
        assert g1.shape == (8, 8) and g2.shape == (16, 16)
        assert np.array_equal(g3, pseudo)
        # nearest downsampling preserves the label set and the block layout
        assert np.array_equal(g1[2:6, 2:6], np.full((4, 4), FG))
        assert g1.sum() == 16 * FG

    def test_nearest_rule_on_non_square_mask(self):
        # level k holds the pixel at floor((i + 0.5) * s) for scale s
        rng = np.random.default_rng(9)
        pseudo = rng.choice(np.array([BG, FG, IGNORE], dtype=np.int8),
                            size=(16, 24))
        for g, s in zip(make_pseudo_masks(pseudo), (4, 2, 1)):
            rows = np.floor((np.arange(16 // s) + 0.5) * s).astype(int)
            cols = np.floor((np.arange(24 // s) + 0.5) * s).astype(int)
            assert np.array_equal(g, pseudo[np.ix_(rows, cols)])

    def test_update_rule(self):
        p = np.array([[0.9, 0.9, 0.1],
                      [0.9, 0.2, 0.1],
                      [0.1, 0.1, 0.1]])
        e = np.array([[True, False, False],
                      [True, True, False],
                      [False, False, False]])
        out, retain = update_pseudo_mask(p, e)
        assert not retain
        # FG = P & e, IGNORE = (P | e) \ FG, BG elsewhere
        want = np.array([[FG, IGNORE, BG],
                         [FG, IGNORE, BG],
                         [BG, BG, BG]], dtype=np.int8)
        assert np.array_equal(out, want)

    def test_update_retains_on_empty_intersection(self):
        p = np.array([[0.9, 0.1], [0.1, 0.1]])
        e = np.array([[False, False], [False, True]])
        out, retain = update_pseudo_mask(p, e)
        assert retain
        assert (out == FG).sum() == 0

    def test_update_partition_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0, 1, (6, 6))
            e = rng.uniform(0, 1, (6, 6)) < 0.4
            out, _ = update_pseudo_mask(p, e)
            assert np.isin(out, (BG, FG, IGNORE)).all()
            assert not ((out == FG) & ~e).any()  # FG subset of ellipse

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_update_partitions_pixels(self, h, w, data):
        p = data.draw(hnp.arrays(np.float64, (h, w),
                                 elements=st.floats(0.0, 1.0)))
        e = data.draw(hnp.arrays(bool, (h, w)))
        out, retain = update_pseudo_mask(p, e)
        fg, bg, ign = out == FG, out == BG, out == IGNORE
        assert np.all(fg.astype(int) + bg + ign == 1)
        pred = p >= 0.5
        assert np.array_equal(fg, pred & e)
        assert np.array_equal(ign, pred ^ e)
        assert retain == (not fg.any())


class TestAugment:
    def test_deterministic(self):
        s = tiny_dataset(1)[0]
        a, _ = augment(s, np.random.default_rng(5), long_side=(24, 40))
        b, _ = augment(s, np.random.default_rng(5), long_side=(24, 40))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.pseudo, b.pseudo)

    def test_output_contract(self):
        s = tiny_dataset(1)[0]
        rng = np.random.default_rng(6)
        for _ in range(10):
            out, skipped = augment(s, rng, long_side=(24, 48))
            if skipped:
                continue
            side = out.image.shape[0]
            assert out.image.shape == (side, side)
            assert side % 4 == 0 and 24 <= side <= 48
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0
            assert out.pseudo.shape == out.image.shape
            assert out.gt_mask is None  # not warped: training never reads it
            assert (out.pseudo == FG).any()
            assert out.region.any()
            # ellipse center stays on the augmented grid
            cx, cy = out.ellipse.center
            assert 0 <= cx < side and 0 <= cy < side

    def test_region_area_ratio_preserved(self):
        # the constrained region has 4x the ellipse area (semi-axes doubled)
        # and both are recomputed from the mapped annotation, so the ratio
        # survives augmentation up to rasterization jitter
        s = tiny_dataset(1)[0]
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(10):
            out, skipped = augment(s, rng, long_side=(32, 48))
            if skipped:
                continue
            ratio = out.region.sum() / (out.pseudo == FG).sum()
            assert 3.5 <= ratio <= 4.5
            checked += 1
        assert checked >= 5

    def test_refined_mask_survives(self):
        # a round-2 tri-mask: the prediction is the ellipse rolled 3 px, so
        # the ellipse holds FG and IGNORE, and IGNORE also lies outside it
        s = tiny_dataset(1)[0]
        emask = s.pseudo == FG
        pseudo, _ = update_pseudo_mask(np.roll(emask, 3, axis=1), emask)
        refined = replace(s, pseudo=pseudo)
        rng = np.random.default_rng(3)
        ignored = inside = draws = 0
        for _ in range(8):
            out, skipped = augment(refined, rng, long_side=(32, 48))
            if skipped:
                continue
            e = rasterize_ellipse(out.ellipse, out.pseudo.shape[::-1])
            assert not (out.pseudo[~e] == FG).any()
            assert (out.pseudo[e] == IGNORE).any()
            ignored += (out.pseudo[e] == IGNORE).sum()
            inside += e.sum()
            draws += 1
        assert draws >= 5
        assert abs(ignored / inside - (pseudo[emask] == IGNORE).mean()) <= 0.05
        # without IGNORE the augmented mask is the re-rasterized ellipse
        for _ in range(5):
            out, skipped = augment(s, rng, long_side=(32, 48))
            e = rasterize_ellipse(out.ellipse, out.pseudo.shape[::-1])
            assert skipped or np.array_equal(out.pseudo, np.where(e, FG, BG))


    def test_ellipse_missing_every_pixel_is_skipped(self):
        # a 0.2 x 0.1 px ellipse at (8, 8) shrinks to 1/4 on a 4 x 4 grid,
        # where no draw puts a pixel centre inside it: every draw is redrawn
        # and the sample comes back as it was
        ann = RecistAnnotation((7.9, 8.0), (8.1, 8.0), (8.0, 7.95),
                               (8.0, 8.05))
        s = Sample.from_annotation(np.full((16, 16), 0.5), ann,
                                   sample_id="dot")
        out, skipped = augment(s, np.random.default_rng(0), (4, 4))
        assert skipped and out is s
        _, history = train_schedule([s], tiny_config(
            epochs=3, augment=True, long_side=(4, 4)))
        assert history.augment_skips == 3
        assert all(r.mean_seg_loss == r.mean_rls_loss == 0.0
                   for r in history.records)

    def test_ellipse_centred_on_grid(self):
        # the translation puts the annotation centroid, which is the fitted
        # centre, at side/2 +- 0.1 side; augment relies on this and has no
        # on-grid check of its own
        ds = tiny_dataset(n=3) + tiny_dataset(n=2, size=64, seed=5)
        emask = ds[0].pseudo == FG
        pseudo, _ = update_pseudo_mask(np.roll(emask, 3, axis=0), emask)
        ds.append(replace(ds[0], pseudo=pseudo))
        rng = np.random.default_rng(12)
        draws = 0
        for s in ds:
            for long_side in ((4, 12), (24, 48), (32, 64)):
                for _ in range(15):
                    out, skipped = augment(s, rng, long_side)
                    if skipped:
                        continue
                    side = out.image.shape[0]
                    for c in out.ellipse.center:
                        assert 0.4 * side <= c <= 0.6 * side
                    draws += 1
        assert draws >= 250


class TestTraining:
    def test_schedule_stages(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=3, stage2_start=2)
        params, history = train_schedule(ds, cfg)
        stages = [r.stage for r in history.records]
        assert stages == ["seg_only", "seg_only", "seg_plus_rls"]
        assert [r.epoch for r in history.records] == [0, 1, 2]

    def test_rls_off_never_enters_stage2(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2, stage2_start=2)
        _, history = train_schedule(ds, cfg)
        assert all(r.stage == "seg_only" for r in history.records)
        assert all(r.mean_rls_loss == 0.0 for r in history.records)

    def test_lr_decay(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=3, stage2_start=1, decay_epochs=(1, 2),
                          lr=0.001)
        _, history = train_schedule(ds, cfg)
        lrs = [r.lr for r in history.records]
        assert np.allclose(lrs, [0.001, 0.0001, 0.00001])

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config(augment=True, long_side=(24, 40))
        p1, _ = train_schedule(ds, cfg)
        p2, _ = train_schedule(ds, cfg)
        assert np.array_equal(p1, p2)

    def test_training_reduces_loss(self):
        ds = tiny_dataset(n=6)
        cfg = tiny_config(epochs=6, stage2_start=6, lr=0.005)
        _, history = train_schedule(ds, cfg)
        losses = [r.mean_seg_loss for r in history.records]
        assert losses[-1] < losses[0]

    def test_smoke_training_on_easy_sample(self):
        # one high-contrast lesion, 200 steps seg-only: the loss must at
        # least halve from the first epoch
        ds = gen_dataset(SynthConfig(size=32, radius_range=(6, 8),
                                     contrast_range=(0.5, 0.5),
                                     noise_sigma=0.01, seed=3), 1)[0]
        cfg = tiny_config(epochs=200, stage2_start=200, lr=0.005)
        _, history = train_schedule(ds, cfg)
        losses = [r.mean_seg_loss for r in history.records]
        assert losses[-1] <= 0.5 * losses[0]

    def test_round_update_changes_a_mask(self):
        # an imperfect (briefly trained) model must actually move at least
        # one pseudo mask between rounds, which from-scratch retraining then
        # turns into a different round-2 history
        ds = gen_dataset(SynthConfig(size=32, radius_range=(6, 8),
                                     contrast_range=(0.5, 0.5),
                                     noise_sigma=0.01, seed=11), 4)[0]
        cfg = tiny_config(rounds=2, epochs=60, stage2_start=60, lr=0.005)
        params, _ = train_schedule(ds, cfg)
        changed = 0
        for s in ds:
            p = predict(s.image, params, cfg.arch)
            emask = s.pseudo == FG
            new_pseudo, retain = update_pseudo_mask(p, emask)
            if not retain and not np.array_equal(new_pseudo, s.pseudo):
                changed += 1
        assert changed >= 1
        (_, h1, _), (_, h2, _) = train_rounds(ds, cfg)
        r1 = [r.mean_seg_loss for r in h1.records]
        r2 = [r.mean_seg_loss for r in h2.records]
        assert r1 != r2

    def test_stage2_continuity(self):
        # at the stage switch the total loss equals stage-1 loss plus the
        # weighted rls term computed at the same parameters
        ds = tiny_dataset(n=2)
        cfg = tiny_config(epochs=2, stage2_start=1, rls_weight=0.0)
        pa, _ = train_schedule(ds, cfg)
        cfg2 = tiny_config(epochs=2, stage2_start=2)
        pb, _ = train_schedule(ds, cfg2)
        # zero-weight stage 2 must follow the identical trajectory as
        # seg-only training (gradient contribution is exactly additive)
        assert np.allclose(pa, pb, atol=1e-12)

    def test_workspace_matches_fresh_buffers(self):
        # train_schedule reuses one conv workspace across steps; a loop over
        # the model API with fresh buffers must give byte-equal parameters.
        # Augmentation varies the input sides, so the buffers grow and shrink.
        # Epoch 0 is seg-only, epoch 1 adds the RLS term.
        ds = tiny_dataset(n=3)
        cfg = tiny_config(augment=True, long_side=(24, 40), lr=0.01,
                          arch=ArchConfig(channels=3))
        params, _ = train_schedule(ds, cfg)

        ref = init_params(0, cfg.arch)
        state = adam_init(ref)
        rng = np.random.default_rng((cfg.seed, 17))
        for epoch in range(2):
            for idx in rng.permutation(len(ds)):
                s, skipped = augment(ds[idx], rng, cfg.long_side)
                if skipped:
                    continue
                p1, p2, p3, cache = forward(s.image, ref,
                                                        cfg.arch)
                _, dps = seg_loss((p1, p2, p3), make_pseudo_masks(s.pseudo))
                if epoch >= cfg.stage2_start:
                    r = rls_loss(p3, s.image, s.region)
                    dps[2] = dps[2] + cfg.rls_weight * r.grad
                ref, state = adam_step(ref, backward(cache, dps), state,
                                       cfg.lr)
        assert np.array_equal(params, ref)

    def test_epoch_means_count_steps_taken(self, monkeypatch):
        # a skipped augmentation takes no step, so it must not dilute the
        # logged means; epoch 0 is seg-only, epoch 1 adds the RLS term
        ds = tiny_dataset(n=3)
        real_augment, real_losses = weaktrain.augment, weaktrain.sample_losses
        seen = []

        def skip_first(sample, rng, long_side):
            if sample.sample_id == ds[0].sample_id:
                return sample, True
            return real_augment(sample, rng, long_side)

        def recording(*args):
            out = real_losses(*args)
            seen.append(out[2:])
            return out

        monkeypatch.setattr(weaktrain, "augment", skip_first)
        monkeypatch.setattr(weaktrain, "sample_losses", recording)
        cfg = tiny_config(augment=True, long_side=(24, 40))
        _, history = train_schedule(ds, cfg)
        assert len(seen) == 2 * (len(ds) - 1)
        for rec, steps in zip(history.records, (seen[:2], seen[2:])):
            assert rec.mean_seg_loss == sum(v for v, _ in steps) / 2
            assert rec.mean_rls_loss == sum(v for _, v in steps) / 2
        assert history.records[0].mean_rls_loss == 0.0
        assert history.records[1].mean_rls_loss > 0.0
        assert history.augment_skips == 2  # one per epoch
        assert history.rls_skips == 0

    def test_degenerate_rls_region_is_counted(self, monkeypatch):
        # the step keeps its segmentation loss and logs an RLS value of 0
        ds = tiny_dataset(n=3)
        real_rls, real_losses = weaktrain.rls_loss, weaktrain.sample_losses
        seen = []

        def degenerate_for_first(p, img, *args, **kwargs):
            if img is ds[0].image:
                raise DegenerateRegionError("forced")
            return real_rls(p, img, *args, **kwargs)

        def recording(*args):
            out = real_losses(*args)
            seen.append(out[2:])
            return out

        monkeypatch.setattr(weaktrain, "rls_loss", degenerate_for_first)
        monkeypatch.setattr(weaktrain, "sample_losses", recording)
        cfg = tiny_config()  # epoch 0 seg-only, epoch 1 with the RLS term
        params, history = train_schedule(ds, cfg)
        assert history.rls_skips == 1
        stage2 = seen[len(ds):]
        assert [v for _, v in stage2].count(None) == 1
        rec = history.records[1]
        assert rec.mean_seg_loss == sum(v for v, _ in stage2) / 3
        assert rec.mean_rls_loss == sum(v or 0.0 for _, v in stage2) / 3
        assert np.all(np.isfinite(params))

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train_schedule([], tiny_config())

    def test_rounds_histories(self):
        ds = tiny_dataset()
        cfg = tiny_config(rounds=2)
        histories = [history for _, history, _ in train_rounds(ds, cfg)]
        assert len(histories) == 2
        assert len(histories[0].records) == cfg.epochs

    def test_rounds_without_mask_change_retrain_the_same_bytes(self,
                                                               monkeypatch):
        # 2 epochs at channels 2 never reach 0.5 inside an ellipse, so every
        # sample is retained: every round trains, and rounds 2 and 3
        # retrain to round 1's bytes
        ds = tiny_dataset(n=6)
        cfg = tiny_config(rounds=3)
        want_params, want_history = train_schedule(ds, cfg)
        real_schedule, calls = weaktrain.train_schedule, []

        def counting(*args):
            calls.append(args)
            return real_schedule(*args)

        monkeypatch.setattr(weaktrain, "train_schedule", counting)
        rounds = list(train_rounds(ds, cfg))
        assert len(calls) == 3
        assert len(rounds) == 3
        for p, _, _ in rounds:
            assert p.tobytes() == want_params.tobytes()
        assert [h.to_csv() for _, h, _ in rounds] \
            == [want_history.to_csv()] * 3

    def test_rounds_yield_new_lists(self, monkeypatch):
        # the update retains each round's first sample and gives the others
        # a mask of its own; a round's list stays as it was yielded while
        # the later rounds augment and train on the masks it left
        ds = tiny_dataset(n=3)
        cfg = tiny_config(rounds=3, augment=True, long_side=(24, 32))
        given = []

        def update(p, emask):
            given.append(np.where(emask, FG, IGNORE).astype(np.int8))
            return given[-1], len(given) % len(ds) == 1

        monkeypatch.setattr(weaktrain, "update_pseudo_mask", update)
        rounds = train_rounds(ds, cfg)
        _, _, first = next(rounds)
        assert given == []  # round 2's update waits until it is asked for
        assert all(a is b for a, b in zip(first, ds, strict=True))
        kept = [(s, s.image.tobytes(), s.pseudo.tobytes(),
                 s.region.tobytes()) for s in first]
        later = [samples for _, _, samples in rounds]
        assert len(later) == 2 and len(given) == 2 * len(ds)
        for (s, image, pseudo, region), now in zip(kept, first, strict=True):
            assert now is s
            assert (s.image.tobytes(), s.pseudo.tobytes(),
                    s.region.tobytes()) == (image, pseudo, region)
        for prev, now, masks in zip([first] + later, later,
                                    (given[:3], given[3:])):
            assert now is not prev
            assert now[0] is prev[0]
            for old, new, mask in zip(prev[1:], now[1:], masks[1:],
                                      strict=True):
                assert new is not old and new.image is old.image
                assert np.array_equal(new.pseudo, mask)

    def test_history_csv(self):
        ds = tiny_dataset(n=2)
        cfg = tiny_config()
        _, history = train_schedule(ds, cfg)
        lines = history.to_csv().splitlines()
        assert lines[0] == "epoch,stage,lr,mean_seg_loss,mean_rls_loss"
        assert len(lines) == cfg.epochs + 1

    def test_predict_shape(self):
        ds = tiny_dataset(n=1)
        cfg = tiny_config()
        params = init_params(0, cfg.arch)
        p = predict(ds[0].image, params, cfg.arch)
        assert p.shape == ds[0].image.shape
        assert np.all((p > 0) & (p < 1))

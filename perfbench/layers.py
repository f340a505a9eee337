"""Probes for the weakseg package modules (the benchmark's layers) and the
per-layer metrics computed from their spans.

Layers are the package modules: model, losses, weaktrain, imgcore, recist,
levelset, synthgen, metrics and cli. Each probe wraps one public function;
see README.md for which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import resource
from collections import defaultdict

from tracer import timing_summary

# forward() calls conv2d in this order and backward() calls conv2d_backward
# in the reverse order, so the call index within the parent span names the
# layer
CONV_FWD = ("enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2")
CONV_BWD = tuple(reversed(CONV_FWD))

LAYER_MODULES = ("model", "losses", "weaktrain", "imgcore", "recist",
                 "levelset", "synthgen", "metrics", "cli")

# per-layer timings: metric name -> (span name, span tag, unit)
TIMINGS = {
    "model.forward_ms": ("model.forward", None, "ms"),
    "model.backward_ms": ("model.backward", None, "ms"),
    "model.adam_step_ms": ("model.adam_step", None, "ms"),
    **{f"model.conv.{c}.fwd_ms": ("model.conv2d", c, "ms") for c in CONV_FWD},
    **{f"model.conv.{c}.bwd_ms": ("model.conv2d_backward", c, "ms")
       for c in CONV_FWD},
    "model.scale_attention.fwd_ms": ("model.scale_attention_fuse", None, "ms"),
    "model.scale_attention.bwd_ms":
        ("model.scale_attention_backward", None, "ms"),
    "losses.seg_loss_ms": ("losses.seg_loss", None, "ms"),
    "losses.rls_loss_ms": ("losses.rls_loss", None, "ms"),
    "weaktrain.make_pseudo_masks_ms":
        ("weaktrain.make_pseudo_masks", None, "ms"),
    "weaktrain.predict_ms": ("weaktrain.predict", None, "ms"),
    "imgcore.decode_pgm_ms": ("imgcore.decode_pgm", None, "ms"),
    "imgcore.encode_pgm_ms": ("imgcore.encode_pgm", None, "ms"),
    "recist.fit_ellipse_ms": ("recist.fit_ellipse", None, "ms"),
    "recist.rasterize_ellipse_ms": ("recist.rasterize_ellipse", None, "ms"),
    "recist.constrained_region_ms": ("recist.constrained_region", None, "ms"),
    "levelset.cv_evolve_ms": ("levelset.cv_evolve", None, "ms"),
    "synthgen.gen_lesion_ms": ("synthgen.gen_lesion", None, "ms"),
    "cli.load_dataset_s": ("cli.load_dataset", None, "s"),
    "metrics.prf_dice_ms": ("metrics.prf_dice", None, "ms"),
}

CONV_SPANS = ("model.conv2d", "model.conv2d_backward")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class Probes:
    """Installs timing wrappers for the weakseg layers on a Tracer, keeps
    the counters they feed, and turns the spans into per-layer metrics."""

    def __init__(self, tracer, package):
        self.tracer = tracer
        self.pkg = package
        self.counts = defaultdict(int)
        self.cv_iters = []  # accepted iterations per solve
        self._conv_next = {}  # parent span -> next conv call index

    def state(self):
        """Counters a forked child hands back to the parent."""
        return dict(self.counts), list(self.cv_iters), dict(self._conv_next)

    def set_state(self, state):
        counts, self.cv_iters, self._conv_next = state
        self.counts = defaultdict(int, counts)

    # -- hooks (run on the calling thread, outside the timed interval) -----

    def _faults_before(self, span, args, kwargs):
        span.data = _minflt()

    def _faults_after(self, span, args, kwargs, result):
        span.data = _minflt() - span.data

    def _conv_tagger(self, order):
        def before(span, args, kwargs):
            with self.tracer.lock:
                i = self._conv_next.get(span.parent, 0)
                self._conv_next[span.parent] = i + 1
            span.tag = order[i] if i < len(order) else f"conv{i}"
        return before

    @staticmethod
    def _conv_fwd_flops(span, args, kwargs, result):
        out, cache = result
        w = cache[2]
        span.data = 2 * w.size * out.shape[1] * out.shape[2]

    @staticmethod
    def _conv_bwd_flops(span, args, kwargs, result):
        dout, cache = args[0], args[1]
        w = cache[2]
        # two GEMMs: the weight gradient and the column gradient
        span.data = 4 * w.size * dout.shape[1] * dout.shape[2]

    def _cv_after(self, span, args, kwargs, result):
        mask, trace, warning = result
        cfg = args[2] if len(args) > 2 \
            else kwargs.get("cfg", self.pkg.levelset.CvConfig())
        iters = len(trace) - 1
        with self.tracer.lock:
            self.cv_iters.append(iters)
            self.counts["cv_solves"] += 1
            self.counts["cv_cap_stops"] += int(iters >= cfg.iters)
            self.counts["cv_degenerate"] += int(bool(warning))

    def _energy_after(self, span, args, kwargs, result):
        with self.tracer.lock:
            self.counts["cv_energy_calls"] += 1

    def _forward_after(self, span, args, kwargs, result):
        span.data = (_minflt() - span.data, tuple(result[2].shape))

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        p = self.pkg
        modules = [p.package] + [getattr(p, m) for m in LAYER_MODULES]
        t = self.tracer

        def inst(name, fn, before=None, after=None):
            t.install(modules, name, fn, before, after)

        inst("model.forward", p.model.forward, self._faults_before,
             self._forward_after)
        inst("model.backward", p.model.backward, self._faults_before,
             self._faults_after)
        inst("model.adam_step", p.model.adam_step, self._faults_before,
             self._faults_after)
        inst("model.conv2d", p.model.conv2d, self._conv_tagger(CONV_FWD),
             self._conv_fwd_flops)
        inst("model.conv2d_backward", p.model.conv2d_backward,
             self._conv_tagger(CONV_BWD), self._conv_bwd_flops)
        inst("model.scale_attention_fuse", p.model.scale_attention_fuse)
        inst("model.scale_attention_backward",
             p.model.scale_attention_backward)
        inst("losses.seg_loss", p.losses.seg_loss)
        inst("losses.rls_loss", p.losses.rls_loss)
        inst("weaktrain.make_pseudo_masks", p.weaktrain.make_pseudo_masks)
        inst("weaktrain.predict", p.weaktrain.predict)
        inst("imgcore.decode_pgm", p.imgcore.decode_pgm)
        inst("imgcore.encode_pgm", p.imgcore.encode_pgm)
        inst("recist.fit_ellipse", p.recist.fit_ellipse)
        inst("recist.rasterize_ellipse", p.recist.rasterize_ellipse)
        inst("recist.constrained_region", p.recist.constrained_region)
        inst("levelset.cv_evolve", p.levelset.cv_evolve, after=self._cv_after)
        inst("levelset.cv_energy", p.levelset.cv_energy,
             after=self._energy_after)
        inst("synthgen.gen_lesion", p.synthgen.gen_lesion)
        inst("cli.load_dataset", p.cli.load_dataset)
        inst("metrics.prf_dice", p.metrics.prf_dice)
        return t.installed()

    # -- metrics ------------------------------------------------------------

    def _steps(self):
        """Group spans into model steps: a forward call plus the backward and
        Adam calls that follow it, with the faults, conv flops and conv busy
        time inside them. Training steps are returned when there are any
        (train workloads), forward-only steps otherwise (infer)."""
        spans = self.tracer.spans
        steps, step_of, cur = [], {}, None
        for i, s in enumerate(spans):
            if s.name == "model.forward":
                faults, shape = s.data
                cur = {"faults": faults, "flops": 0, "conv_s": 0.0,
                       "shape": shape, "train": False}
                steps.append(cur)
                step_of[i] = cur
            elif s.name in ("model.backward", "model.adam_step") \
                    and cur is not None:
                cur["faults"] += s.data
                cur["train"] = True
                step_of[i] = cur
            elif s.name in CONV_SPANS and s.parent in step_of:
                st = step_of[s.parent]
                st["flops"] += s.data
                st["conv_s"] += s.duration
        train = [st for st in steps if st["train"]]
        return train or steps

    def report(self):
        """(metrics, details): metrics maps name -> (value, unit) for every
        layer metric this run measured; a layer the workload never calls is
        absent. details holds the tail percentiles, numerators and
        denominators, and per-layer busy (self) time."""
        spans = self.tracer.spans
        by_name = defaultdict(list)
        by_tag = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s.duration)
            by_tag[(s.name, s.tag)].append(s.duration)

        metrics, details = {}, {"timings": {}, "ratios": {}}
        for metric, (span_name, tag, unit) in TIMINGS.items():
            values = by_name[span_name] if tag is None \
                else by_tag[(span_name, tag)]
            if not values:
                continue
            summ = timing_summary(values, 1e3 if unit == "ms" else 1.0)
            details["timings"][metric] = summ
            metrics[metric] = (summ["p50"], unit)
            if "tail" in summ:
                metrics[metric + ".tail"] = (summ["tail"], unit)
            metrics[metric + ".calls"] = (summ["calls"], "count")

        steps = self._steps()
        if steps:
            faults = sorted(st["faults"] for st in steps)
            flops = sorted(st["flops"] for st in steps)
            conv_s = sum(st["conv_s"] for st in steps)
            metrics["model.minflt_per_step"] = (faults[len(faults) // 2],
                                                "count")
            metrics["model.conv_gflop_per_step"] = (
                flops[len(flops) // 2] / 1e9, "GFLOP")
            if conv_s > 0:
                metrics["model.conv_gflops"] = (
                    sum(flops) / conv_s / 1e9, "GFLOP/s")
            metrics["model.distinct_shapes"] = (
                len({st["shape"] for st in steps}), "count")
            details["model_steps"] = {
                "steps": len(steps), "kind": "train" if steps[0]["train"]
                else "forward-only"}

        c = self.counts
        if c["cv_solves"]:
            metrics["levelset.iter_cap_ratio"] = (
                c["cv_cap_stops"] / c["cv_solves"], "ratio")
            details["ratios"]["levelset.iter_cap_ratio"] = {
                "cv_cap_stops": c["cv_cap_stops"],
                "cv_solves": c["cv_solves"]}

        if self.cv_iters:
            total = sum(self.cv_iters)
            metrics["levelset.iters_per_solve"] = (
                total / len(self.cv_iters), "count")
            if total:
                metrics["levelset.energy_evals_per_iter"] = (
                    c["cv_energy_calls"] / total, "count")
            details["ratios"]["levelset.energy_evals_per_iter"] = {
                "cv_energy_calls": c["cv_energy_calls"],
                "accepted_iterations": total}
            details["ratios"]["levelset.degenerate_solves"] = {
                "cv_degenerate": c["cv_degenerate"],
                "cv_solves": c["cv_solves"]}

        selfs = self.tracer.self_times()
        busy = defaultdict(float)
        for s, st in zip(spans, selfs):
            busy[s.name.split(".", 1)[0]] += st
        details["busy_self_s"] = dict(sorted(busy.items()))
        return metrics, details

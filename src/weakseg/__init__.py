"""Weakly-supervised lesion segmentation toolkit: RECIST pseudo masks, a
regional level set loss, a classic Chan-Vese solver, a toy deep-supervision
segmenter with manual backprop, and the multi-round weak training loop."""

from .imgcore import BG, FG, IGNORE, decode_pgm, encode_pgm
from .recist import Ellipse, RecistAnnotation, fit_ellipse, rasterize_ellipse, \
    constrained_region
from .losses import bce_loss, iou_loss, rls_loss, seg_loss, finite_diff_check
from .levelset import CvConfig, cv_energy, cv_evolve, smooth_heaviside
from .metrics import Metrics, Summary, prf_dice, summarize

__version__ = "0.1.0"

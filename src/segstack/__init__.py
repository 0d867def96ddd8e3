"""segstack: encoder-decoder semantic segmentation for EO rasters on a
from-scratch numpy autodiff core.

Subsystems:

* ``tensor`` / ``nnops``: 4-D tensors, reverse-mode autodiff, and the
  operator set (conv2d, pool/unpool with argmax masks, batch norm,
  softmax, pixel-wise cross entropy).
* ``segnet``: the symmetric encoder-decoder builder, He initialization,
  parameter groups with per-group learning-rate multipliers.
* ``multikernel``: the parallel multi-size convolution head and its
  branch-extension protocol.
* ``fusion``: dual-stream averaging and residual-correction fusion.
* ``datapipe``: NDVI/composite construction, sliding-window tiling,
  overlap-averaged stitching, synthetic dataset generation.
* ``metrics``: boundary-eroded ground truth, confusion matrices, F1.
* ``training`` / ``inference``: SGD with grouped learning rates, run
  manifests, tiled prediction.
* ``cli``: the ``segstack`` command-line surface.
"""

from .datapipe import (CLASS_NAMES, TileGeometry, build_composite,
                       colorize_labels, ndvi, plan_tiles, synth_dataset,
                       write_pgm, write_ppm)
from .errors import SegstackError
from .fusion import init_corrector, make_corrector
from .inference import labels_from_probs, predict_probs, predict_probs_fused
from .metrics import (ConfusionMatrix, erode_boundaries, f1_scores,
                      format_report)
from .multikernel import extend_with_scale
from .nnops import (IGNORE_LABEL, BNState, ConvParams, batchnorm, conv2d,
                    cross_entropy_loss, maxpool2, unpool2)
from .segnet import (ParamGroup, build_segnet, forward, init_he,
                     load_checkpoint, load_encoder_checkpoint,
                     named_parameters)
from .tenio import read_ten, write_ten
from .tensor import Tensor, backward, no_grad, relu
from .training import (SGD, TrainConfig, fusion_pixel_accuracy,
                       load_corrector, load_fusion_run, load_run,
                       measure_fusion_stats, pixel_accuracy, train_fusion,
                       train_segnet)

__all__ = [
    "CLASS_NAMES", "TileGeometry", "build_composite", "colorize_labels",
    "ndvi", "plan_tiles", "synth_dataset", "write_pgm", "write_ppm",
    "SegstackError", "init_corrector", "make_corrector", "labels_from_probs",
    "predict_probs", "predict_probs_fused", "ConfusionMatrix",
    "erode_boundaries", "f1_scores", "format_report", "extend_with_scale",
    "IGNORE_LABEL", "BNState", "ConvParams", "batchnorm", "conv2d",
    "cross_entropy_loss", "maxpool2", "unpool2", "ParamGroup", "build_segnet",
    "forward", "init_he", "load_checkpoint", "load_encoder_checkpoint",
    "named_parameters", "read_ten", "write_ten", "Tensor", "backward",
    "no_grad", "relu", "SGD", "TrainConfig", "fusion_pixel_accuracy",
    "load_corrector", "load_fusion_run", "load_run", "measure_fusion_stats",
    "pixel_accuracy", "train_fusion", "train_segnet",
]

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

from .datapipe import (CLASS_NAMES, Raster, TileGeometry, Window,
                       build_composite, colorize_labels, ndvi, plan_tiles,
                       read_pgm, read_ppm, stitch_average, synth_dataset,
                       write_pgm, write_ppm)
from .errors import (CheckpointError, ConfigError, DivergenceError,
                     FormatError, SegstackError, ShapeError, SpecError,
                     StaleTapeError, TilingError, TrainingError)
from .fusion import (CorrectorSpec, FusionStats, StreamOutput,
                     forward_corrector, fuse_average, fuse_residual,
                     fusion_stats, init_corrector, make_corrector)
from .inference import labels_from_probs, predict_probs, predict_probs_fused
from .metrics import (ConfusionMatrix, Scores, erode_boundaries, f1_scores,
                      format_report)
from .multikernel import (MultiKernelHead, branch_outputs, extend_with_scale,
                          forward_multikernel, make_head, multikernel_loss)
from .nnops import (IGNORE_LABEL, BNState, ConvParams, PoolMask, batchnorm,
                    conv2d, cross_entropy_loss, maxpool2, softmax_channels,
                    unpool2)
from .segnet import (NetworkSpec, ParamGroup, build_segnet, forward,
                     forward_parts, init_he, load_checkpoint,
                     load_encoder_checkpoint, named_parameters, param_groups,
                     save_checkpoint)
from .tenio import load_bundle, read_ten, save_bundle, write_ten
from .tensor import (Tensor, add, add_n, backward, concat_channels, mean_n,
                     no_grad, relu, scale)
from .training import (SGD, TrainConfig, fusion_pixel_accuracy,
                       load_corrector, load_fusion_run, load_run,
                       measure_fusion_stats, pixel_accuracy, save_corrector,
                       train_fusion, train_segnet)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "no_grad", "backward",
    "add", "add_n", "scale", "mean_n", "relu", "concat_channels",
    "conv2d", "maxpool2", "unpool2", "batchnorm", "softmax_channels",
    "cross_entropy_loss",
    "ConvParams", "PoolMask", "BNState", "IGNORE_LABEL",
    "NetworkSpec", "ParamGroup", "build_segnet", "init_he", "forward",
    "forward_parts", "named_parameters", "param_groups", "save_checkpoint",
    "load_checkpoint", "load_encoder_checkpoint",
    "MultiKernelHead", "make_head", "branch_outputs", "forward_multikernel",
    "multikernel_loss", "extend_with_scale",
    "StreamOutput", "CorrectorSpec", "FusionStats", "make_corrector",
    "init_corrector", "forward_corrector", "fuse_average", "fuse_residual",
    "fusion_stats",
    "Raster", "Window", "TileGeometry", "CLASS_NAMES", "ndvi",
    "build_composite", "plan_tiles", "stitch_average", "synth_dataset",
    "colorize_labels", "read_ppm", "write_ppm", "read_pgm", "write_pgm",
    "ConfusionMatrix", "Scores", "erode_boundaries", "f1_scores",
    "format_report",
    "write_ten", "read_ten", "save_bundle", "load_bundle",
    "TrainConfig", "SGD", "train_segnet", "train_fusion", "save_corrector",
    "load_corrector", "load_run", "load_fusion_run", "pixel_accuracy",
    "fusion_pixel_accuracy", "measure_fusion_stats",
    "predict_probs", "predict_probs_fused", "labels_from_probs",
    "SegstackError", "ShapeError", "SpecError", "ConfigError", "FormatError",
    "CheckpointError", "TilingError", "StaleTapeError", "TrainingError",
    "DivergenceError",
    "__version__",
]

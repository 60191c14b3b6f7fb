"""Attentional aggregation of feature sets, with two-stage decoupled training.

The package is organized as a small numpy-backed library:

* ``tensor`` -- float64 tensors, tape-based reverse-mode gradients, and a
  finite-difference gradient oracle.
* ``aggregators`` -- one ``aggregate`` entry point for attention pooling
  (feature-wise, pointwise-spatial, element-wise), max/mean/sum pooling
  and a GRU baseline.
* ``model`` -- encoder/aggregator/decoder pipeline with base vs attention
  parameter groups and a binary checkpoint format.
* ``training`` -- the two-stage schedule (base on single views, attention
  on multi-view sets), a joint baseline, finetuning, and optimizers.
* ``data`` -- procedural multi-view depth dataset over voxel shapes.
* ``metrics`` -- voxel IoU with binarization-threshold search and
  per-view-count evaluation sweeps.
* ``bench`` / ``selftest`` / ``cli`` -- timing harness, invariant suite,
  and the ``setfusion`` command-line front end.
"""

from .aggregators import (AGGREGATOR_KINDS, AggregatorParams, AttentionMap, FeatureSet,
                          SetBatch, aggregate, aggregator_init)
from .data import (DatasetMeta, MultiViewSample, ShapeSpec, generate_dataset,
                   load_dataset, make_shape, render_view)
from .metrics import EvalConfig, EvalReport, eval_sweep, iou, threshold_search
from .model import (ModelConfig, ParamBundle, VoxelGrid, load_checkpoint, model_init, predict,
                    save_checkpoint)
from .tensor import Tape, Tensor, backward, finite_diff_grad
from .training import (TrainConfig, TrainReport, faset_stage1, faset_stage2, finetune,
                       joint_train, optimizer_step, sample_minibatch, single_view_train)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATOR_KINDS", "AggregatorParams", "AttentionMap", "FeatureSet",
    "SetBatch", "aggregate", "aggregator_init",
    "DatasetMeta", "MultiViewSample", "ShapeSpec", "generate_dataset",
    "load_dataset", "make_shape", "render_view",
    "EvalConfig", "EvalReport", "eval_sweep", "iou", "threshold_search",
    "ModelConfig", "ParamBundle", "VoxelGrid", "load_checkpoint", "model_init", "predict",
    "save_checkpoint",
    "Tape", "Tensor", "backward", "finite_diff_grad",
    "TrainConfig", "TrainReport", "faset_stage1", "faset_stage2", "finetune",
    "joint_train", "optimizer_step", "sample_minibatch", "single_view_train",
    "__version__",
]

"""Roto-translation group convolutions with learned filter-rotation bases.

The library splits into:

* :mod:`rotoconv.tensor` - numpy tensors with reverse-mode differentiation
* :mod:`rotoconv.groups` - rotation group algebra and grid rotation operators
* :mod:`rotoconv.basis` - learned filter bases and their file format
* :mod:`rotoconv.pretrain` - offline basis learning from an image corpus
* :mod:`rotoconv.network` - group-convolution layers and classifier models
* :mod:`rotoconv.datasets` - MNIST/CIFAR-10 parsing and synthetic corpora
* :mod:`rotoconv.optim` - AMSGrad and the epoch loop training and pretraining share
* :mod:`rotoconv.training` - task training and evaluation harness
* :mod:`rotoconv.audit` - rotation sweeps and activation-robustness audits
* :mod:`rotoconv.verify` - the property checks behind ``rotoconv verify``
* :mod:`rotoconv.fileio` - atomic (temp file + rename) writes
* :mod:`rotoconv.cli` - the ``rotoconv`` command
"""

__version__ = "0.1.0"

from .basis import (Basis, load_basis, make_baseline_basis, orthogonality_defect,
                    populate_partial, save_basis, synthesize)
from .groups import (GroupElement, RotationOperators, act_on_group_feature_map,
                     compose, inverse, roll_orientations, rotate_exact90,
                     unitarity_defect)
from .network import (Model, build_model, count_parameters, gconv_input,
                      gconv_intermediate, load_checkpoint, save_checkpoint)
from .pretrain import (PretrainConfig, equivariance_loss, pretrain,
                       reconstruction_loss, total_loss)
from .tensor import Tensor
from .training import TrainConfig, evaluate, train

__all__ = [
    "Basis", "GroupElement", "Model", "PretrainConfig", "RotationOperators",
    "Tensor", "TrainConfig", "act_on_group_feature_map", "build_model",
    "compose", "count_parameters", "equivariance_loss", "evaluate",
    "gconv_input", "gconv_intermediate", "inverse",
    "load_basis", "load_checkpoint", "make_baseline_basis",
    "orthogonality_defect", "populate_partial", "pretrain",
    "reconstruction_loss", "roll_orientations", "rotate_exact90",
    "save_basis", "save_checkpoint", "synthesize", "total_loss",
    "train", "unitarity_defect",
]

"""Foveated multi-view alignment of images with paired neural recordings.

The pipeline: degrade each image into biologically motivated views
(foveated blur, pixel noise, low resolution, mosaic), encode the views
with a frozen image encoder, fuse them under evidence-derived belief
weights plus attention, and align the fused latent with a learned affine
map of the neural vector through a symmetric contrastive loss. A
feedback regulator adapts each training sample's blur kernel from the
smoothed alignment signal. Evaluation is zero-shot n-way retrieval over
held-out classes.
"""

from .alignment import (
    AdamW,
    Trainer,
    cosine_similarity_matrix,
    encode_pairs,
    init_parameters,
    loss_and_gradients,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, ablation_ladder, config_from_dict, config_hash, load_config
from .datagen import generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, FormatError, NumericError, ProtocolError
from .evaluation import EvalReport, nway_evaluate
from .fusion import belief_weights, fusion_backward, fusion_forward
from .pixmap import read_pixmap, write_pixmap
from .providers import (
    BankProvider,
    EmbeddingBank,
    SyntheticEncoder,
    SyntheticProvider,
    load_embedding_bank,
    save_embedding_bank,
)
from .regulator import BlurSchedule, confidence_bounds
from .transforms import (
    add_noise,
    foveate,
    foveation_mask,
    gaussian_blur,
    resample,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BankProvider",
    "BlurSchedule",
    "ConfigError",
    "EmbeddingBank",
    "EvalReport",
    "FormatError",
    "NumericError",
    "ProtocolError",
    "RunConfig",
    "SyntheticEncoder",
    "SyntheticProvider",
    "Trainer",
    "ablation_ladder",
    "add_noise",
    "belief_weights",
    "config_from_dict",
    "config_hash",
    "confidence_bounds",
    "cosine_similarity_matrix",
    "encode_pairs",
    "foveate",
    "foveation_mask",
    "fusion_backward",
    "fusion_forward",
    "gaussian_blur",
    "generate_dataset",
    "init_parameters",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "load_embedding_bank",
    "loss_and_gradients",
    "nway_evaluate",
    "read_pixmap",
    "resample",
    "save_checkpoint",
    "save_dataset",
    "save_embedding_bank",
    "write_pixmap",
    "__version__",
]

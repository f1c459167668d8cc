"""Online test-time adaptation for a toy promptable segmenter."""

__version__ = "0.1.0"

from .adapt import AdaptConfig, AdaptEngine, adapt_stream, ema_update, run_calibration
from .model import ModelConfig, SegModel, SegOutputs, load_checkpoint, save_checkpoint
from .sbct import SbctParams, init_identity, transform_color, transform_gray
from .synthdata import BoxPrompt, StreamSample, gen_source, gen_target, oracle_box
from .tensor import AdamState, Tensor, adam_step, no_grad

__all__ = [
    "AdaptConfig",
    "AdaptEngine",
    "AdamState",
    "BoxPrompt",
    "ModelConfig",
    "SbctParams",
    "SegModel",
    "SegOutputs",
    "StreamSample",
    "Tensor",
    "adam_step",
    "adapt_stream",
    "ema_update",
    "gen_source",
    "gen_target",
    "init_identity",
    "load_checkpoint",
    "no_grad",
    "oracle_box",
    "run_calibration",
    "save_checkpoint",
    "transform_color",
    "transform_gray",
]

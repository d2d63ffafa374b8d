"""Small shared helpers: seeding, timing, logging, checkpointing, malloc thresholds."""

from repro.utils.seed import seed_everything, spawn_rng
from repro.utils.timer import Timer
from repro.utils.logging import get_logger
from repro.utils.checkpoint import (
    CheckpointBundle,
    load_bundle,
    load_checkpoint,
    rehydrate_model,
    rehydrate_scaler,
    save_bundle,
    save_checkpoint,
)

__all__ = [
    "seed_everything",
    "spawn_rng",
    "Timer",
    "get_logger",
    "save_checkpoint",
    "load_checkpoint",
    "save_bundle",
    "load_bundle",
    "rehydrate_model",
    "rehydrate_scaler",
    "CheckpointBundle",
]

"""Uncertainty-aware Perceiver: a desk-scale, deterministic
implementation of the attention-bottleneck classifier together with
five uncertainty-aware training strategies and a calibration-metric
suite."""

from . import tensor
from .data import (
    Dataset,
    load_cifar,
    make_batches,
    synth_dataset,
)
from .harness import (
    MetricsReport,
    RunConfig,
    emit_report,
    load_checkpoint,
    parse_config,
    run_evaluate,
    run_train,
    save_checkpoint,
    sweep_ensemble,
)
from .metrics import (
    EvalBatch,
    accuracy,
    brier,
    ece,
    nelder_mead,
    nll,
    reliability_bins,
    temperature_scale,
)
from .model import (
    PerceiverConfig,
    build_byte_array,
    cross_attention,
    fourier_encode,
    init_params,
    latent_block,
    param_count,
    perceiver_forward,
    forward_logits,
)
from .optim import AdamWSettings, AdamWState, adamw_step
from .params import ParamStore, swa_update
from .schedules import LRSchedule, capture_steps, lr_at
from .strategies import (
    Predictor,
    TrainRunLog,
    TrainSettings,
    deep_ensemble_train,
    ensemble_average,
    fast_train,
    mc_dropout_mask,
    mc_predict,
    snapshot_train,
    swa_train,
    train_member,
    train_model,
)
from .tensor import Tensor

__version__ = "0.1.0"

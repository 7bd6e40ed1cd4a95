"""deeprain: a self-contained ConvLSTM rainfall-amount regression engine.

Everything runs on its own float64 tensor primitives and reverse-mode
autodiff tape; no external ML framework is involved. See the README for the
data formats, the CLI, and the synthetic benchmark.
"""

from .autodiff import GradCheckReport, GraphError, Tape, grad_check
from .data import (
    DataFormatError,
    DatasetSplit,
    RadarRecord,
    SynthConfig,
    minibatches,
    parse_text_file,
    parse_text_record,
    read_binary,
    split,
    synth_generate,
    write_binary,
)
from .model import (
    CellState,
    Model,
    ModelSpec,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .optim import AdamState, adam_step, sgd_step
from .tensor import ShapeError
from .train import (
    DivergenceError,
    EpochStats,
    TrainConfig,
    TrainResult,
    emit_curve,
    evaluate,
    rmse,
)

__version__ = "0.1.0"

"""Self-explaining LSTM next-activity prediction for business-process event logs."""

# set before the submodules load: the grid's cell store keys on it
__version__ = "0.1.0"

from .encoding import Dataset, EncodingSpec, encode_dataset, fit_normalizers
from .eventlog import (
    Cases,
    ColumnMap,
    EventLog,
    Prefixes,
    SplitSpec,
    generate_prefixes,
    parse_csv,
    split_chronological,
)
from .evaluation import (
    EvalReport,
    Explanation,
    accuracy,
    explain_posthoc,
    explain_selfexplain,
    render_explanation,
    summarize,
    verify_explanations,
    verify_sufficiency,
)
from .model import Inference, NapModelParams, infer, init_model, make_predictor
from .neural import subset_mask
from .posthoc import AnchorConfig, AnchorResult, estimate_precision, greedy_anchor_search
from .selfexplain import FeatureSampler, dual_propagate, senn_losses
from .training import (
    Checkpoint,
    GridResult,
    TrainConfig,
    fit,
    grid_search,
    load_checkpoint,
    save_checkpoint,
)

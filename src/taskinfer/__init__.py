"""Task inference for malware from sandbox behavior attributes.

Activation-based instance and rule classifiers, from-scratch baselines, a
synthetic corpus generator with controllable mutation, a sandbox report
ingester, and an evaluation harness, behind the `taskinfer` CLI.
"""

from .actr import IbModel, rb_train
from .baselines import (
    LogRegModel,
    RfModel,
    TrainingError,
    dt_train,
    logreg_objective,
    logreg_train,
    nb_train,
    rf_train,
)
from .core import (
    ActrParams,
    Corpus,
    CorpusError,
    CorpusFormatError,
    LinearModel,
    Prediction,
    Sample,
    build_corpus,
    load_corpus,
    save_corpus,
)
from .evaluation import (
    PairedTest,
    SampleScore,
    TrialReport,
    combine,
    leave_one_family_out,
    loocv,
    paired_ttest,
    score_sample,
    split_trials,
)
from .ingest import ExtractionConfig, ReportError, normalize_path, parse_report
from .methods import METHODS, predict, train_method
from .synthgen import (
    DEFAULT_ENCRYPT_FRACTION,
    GenReport,
    GenSpec,
    GenerationError,
    SINGLE_TASK_SPEC,
    encrypt_variant,
    generate,
    generate_single_task,
    measure_overlap,
)

__version__ = "0.1.0"

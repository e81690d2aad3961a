"""Semi-supervised mixed membership modeling of multi-source count data."""

from .model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    DocLengthSpec,
    Hyperparameters,
    LabelMatrix,
    ModelState,
    collapsed_log_joint,
    generate,
    labels_from_activations,
    phenotype_summary,
)
from .gibbs import TrainOptions, TrainTrace, train, train_unstructured
from .evaluation import (
    HeldoutResult,
    MetricsReport,
    auprc,
    auroc,
    evaluate_suite,
    heldout_infer,
    micro_macro,
    reports_to_csv,
    reports_to_table,
)

__version__ = "0.1.0"

__all__ = [
    "LABEL_ABSENT", "LABEL_PRESENT", "LABEL_UNKNOWN",
    "Corpus", "DocLengthSpec", "Hyperparameters", "LabelMatrix", "ModelState",
    "collapsed_log_joint", "generate", "labels_from_activations",
    "phenotype_summary",
    "TrainOptions", "TrainTrace", "train", "train_unstructured",
    "HeldoutResult", "MetricsReport",
    "auprc", "auroc", "evaluate_suite", "heldout_infer", "micro_macro",
    "reports_to_csv", "reports_to_table",
]

"""Hierarchical multi-label text classification with label-splicing
attention over a BiLSTM encoder and a global/local prediction head."""

from . import errors
from .corpus import (
    Corpus,
    Document,
    SynthSpec,
    generate_synthetic,
    load_corpus,
    save_corpus,
    split,
    tokenize,
)
from .embedding import (
    EmbeddingTable,
    load_embeddings,
    random_table,
    save_embeddings,
)
from .hmcn import Prediction
from .metrics import (
    MetricsReport,
    hierarchy_violation_rate,
    macro_f1,
    macro_precision_recall,
    precision_at_k,
)
from .model import Model
from .numerics import GradReport, grad_check
from .taxonomy import Taxonomy, load_taxonomy
from .training import (
    Checkpoint,
    History,
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    load_config,
    predict,
    save_checkpoint,
    train,
)

__all__ = [
    "errors",
    "Corpus", "Document", "SynthSpec", "generate_synthetic", "load_corpus",
    "save_corpus", "split", "tokenize",
    "EmbeddingTable", "load_embeddings", "random_table", "save_embeddings",
    "Prediction",
    "MetricsReport", "hierarchy_violation_rate", "macro_f1",
    "macro_precision_recall", "precision_at_k",
    "Model",
    "GradReport", "grad_check",
    "Taxonomy", "load_taxonomy",
    "Checkpoint", "History", "TrainConfig", "evaluate_model",
    "load_checkpoint", "load_config", "predict", "save_checkpoint", "train",
]

__version__ = "0.1.0"

"""Toolkit for ranking lexical semantic change between two time-period corpora."""

from .align import AlignedPair, align, length_normalize, mean_center, procrustes
from .benchmark import SyntheticBenchmark, generate_shift_benchmark, write_benchmark
from .context import (
    ClfMetrics,
    EncoderConfig,
    TimeClassifier,
    UseSet,
    extract_uses,
    load_uses,
    save_uses,
    train_time_classifier,
)
from .corpus import (
    Corpus,
    TimeClfDataset,
    Vocabulary,
    apply_threshold,
    build_clf_dataset,
    build_vocabulary,
    frequency_threshold,
    load_corpus,
    load_targets,
)
from .ensemble import (
    Ranking,
    Theta,
    binarize,
    combine,
    grid_search_theta,
    ranks_from_scores,
    theta_from_accuracy,
)
from .evaluate import binary_accuracy, load_gold, spearman
from .scoring import ChangeScores, contextual_score, mpe_distance, static_score
from .sgns import EmbeddingSpace, SgnsConfig, load_space, save_space, train_sgns

__version__ = "0.3.2"

# Pipeline orchestration lives in lscd.pipeline (Pipeline, PipelineConfig,
# load_config); it is not re-exported here to keep library imports light.

"""gfdenoise: per-class graph low-pass filtering for labeled feature vectors."""

from .centroids import (
    CentroidStats,
    GaussianClassSpec,
    analytic_centroid_factors,
    centroid,
    monte_carlo_centroid_stats,
    sample_gaussian_class,
)
from .classify import NcmModel, ncm_fit, ncm_predict, nn1_predict
from .data import LabeledFeatures, make_gaussian_pool, stratified_split
from .denoise import DenoiseConfig, denoise_class, denoise_dataset
from .episodes import (
    ClassifierConfig,
    Episode,
    EpisodeSpec,
    EvalReport,
    confidence_interval,
    paired_accuracies,
    run_fewshot_eval,
    sample_episode,
    sweep_shots,
)
from .fileio import (
    emit_report,
    load_features_binary,
    load_features_text,
    load_report,
    save_features_binary,
    save_features_text,
)
from .graphs import clamp_negative_edges, complete_graph, cosine_similarity, knn_sparsify
from .spectral import (
    SpectralBasis,
    apply_filter,
    eigendecompose,
    gft,
    igft,
    lowest_eigenpairs,
    normalized_laplacian,
    step_response,
)

__version__ = "0.1.0"

"""Phylogenomic inference toolkit.

One semiring-parametric dynamic-programming core drives likelihoods
(probability semiring), best-path decoding (max-plus), and parametric
alignment polygons (lattice polygons).  On top of it: codon
independence diagnostics, HMM training and decoding, pair-HMM
alignment, Jukes-Cantor likelihoods on trees, distance-based tree
reconstruction, and the genome-conservation probability pipeline.

The ``phylokit`` loggers are silent unless the application configures
logging: ``phylokit.semirings`` reports each log chain fold's block
length at DEBUG.
"""

import logging

from .codonmodel import (
    CodonCounts,
    IndependenceParams,
    codon_counts_from_sequence,
    independence_mle,
    independence_test,
    segre_residual,
)
from .evolution import (
    JcEdge,
    RateMatrix,
    SaturationError,
    all_same_probability,
    branch_length_of,
    claw_fourier_invariant,
    edge_params_from_length,
    jc_distance,
    log_pattern_probability,
    pattern_probability,
    simulate_leaf_sequences,
    substitution_matrix,
)
from .hmm import (
    Explanation,
    HmmParams,
    baum_welch_train,
    forward_probability,
    viterbi_explanation,
)
from .pairhmm import (
    PairHmmParams,
    ParametricPolygon,
    ScoringScheme,
    delannoy_count,
    enumerate_alignments,
    log_pair_probability,
    pair_probability,
    parametric_polygon,
    score_alignment_basic,
    viterbi_alignment,
)
from .pipeline import (
    CONSERVED_ELEMENT_42,
    AlignedFasta,
    PipelineConfig,
    PipelineReport,
    find_motif,
    pairwise_site_differences,
    run_pipeline,
)
from .semirings import (
    ChainSpec,
    LatticePolygon,
    TreeSpec,
    evaluate_chain,
    evaluate_tree,
    polygon_product,
    polygon_sum,
)
from .trees import PhyloTree
from .treespace import (
    DissimilarityMap,
    MDissimilarityMap,
    Split,
    check_four_point,
    check_m_tree,
    check_metric,
    generalized_neighbor_join,
    generalized_nj_cherry,
    gr36_residuals,
    m_dissimilarity,
    neighbor_join,
    schroder_count,
    splits_compatible,
    splits_of_tree,
    tree_metric,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

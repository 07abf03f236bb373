"""Bayesian phylogenetic tree sampling with geodesic tree-space summaries."""

from .treespace import (
    InvalidTreeError,
    NewickError,
    TaxonTable,
    Tree,
    compatible,
    parse_newick,
    serialize_newick,
    validate,
)
from .geodesic import GeodesicPath, SupportPair, distance, interpolate
from .frechet import EstimatorConfig, mean, median, variance
from .phylo_model import (
    Alignment,
    DirichletPrior,
    GammaPrior,
    log_likelihood,
    log_posterior,
    log_prior,
)
from .mcmc import ChainState, ProposalConfig, RunConfig, run
from .summary import SplitStats, consensus_majority, split_frequencies

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "ChainState",
    "DirichletPrior",
    "EstimatorConfig",
    "GammaPrior",
    "GeodesicPath",
    "InvalidTreeError",
    "NewickError",
    "ProposalConfig",
    "RunConfig",
    "SplitStats",
    "SupportPair",
    "TaxonTable",
    "Tree",
    "compatible",
    "consensus_majority",
    "distance",
    "interpolate",
    "log_likelihood",
    "log_posterior",
    "log_prior",
    "mean",
    "median",
    "parse_newick",
    "run",
    "serialize_newick",
    "split_frequencies",
    "validate",
    "variance",
]

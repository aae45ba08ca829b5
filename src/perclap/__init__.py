"""Graph Laplacian spectra and integrated density of states on
bond-percolation graphs of the hypercubic lattice."""

from .config import ExperimentConfig, config_from_dict, parse_config
from .exceptions import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    NumericError,
    PerclapError,
    PrecisionError,
    UnsupportedSizeError,
)
from .isoperimetry import (
    cheeger_constant,
    cubic_bound_check,
    fk_ratio,
    linear_bound_check,
)
from .laplacian import ALL_BCS, BoundaryCondition, SymmetricOperator, assemble
from .lattice import (
    Cluster,
    LatticeBox,
    PercolationGraph,
    clusters,
    make_cubic_cluster,
    make_linear_cluster,
    sample_graph,
)
from .runner import run
from .spectral import (
    EmpiricalIDS,
    count_leq,
    default_grid,
    eigenvalues,
    empirical_ids,
)
from .tails import analytic_tail_fit, cluster_size_decay, fit_tail

__version__ = "0.1.0"

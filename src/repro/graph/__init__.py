"""Graph substrate: adjacency construction, normalisation and diffusion operators.

The SAGDFN model never needs a *predefined* adjacency matrix, but several of
its baselines do (DCRNN, STGCN, the "w/o SNS & SSMA" ablation), and the slim
``N × M`` diffusion of Eq. 9 still needs degree normalisation.  This package
collects every graph-algebra helper the models share.
"""

from repro.graph.adjacency import (
    add_self_loops,
    cheb_polynomials,
    degree_vector,
    gaussian_kernel_adjacency,
    knn_adjacency,
    knn_neighbours,
    random_walk_matrix,
    row_normalize,
    scaled_laplacian,
    symmetric_normalize,
    threshold_sparsify,
)
from repro.graph.diffusion import (
    dense_diffusion,
    slim_degree_vector,
    slim_diffusion_step,
    slim_graph_conv,
)

__all__ = [
    "row_normalize",
    "symmetric_normalize",
    "degree_vector",
    "add_self_loops",
    "random_walk_matrix",
    "scaled_laplacian",
    "cheb_polynomials",
    "gaussian_kernel_adjacency",
    "knn_adjacency",
    "knn_neighbours",
    "threshold_sparsify",
    "dense_diffusion",
    "slim_degree_vector",
    "slim_diffusion_step",
    "slim_graph_conv",
]

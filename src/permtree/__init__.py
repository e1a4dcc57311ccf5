"""permtree: trees among permutation graphs.

Exact construction, counting, enumeration and uniform sampling of
permutations whose inversion graph is a tree; block-structure shortcuts
for adjacency, degrees and the caterpillar spine; cover numbers via three
independent routes; closed-form statistics; and a seeded Monte Carlo
harness that checks the distributional claims against simulation.
"""

from .codec import (
    TreeCode,
    count_trees,
    decode,
    encode,
    enumerate_codes,
    enumerate_trees,
    insert_first_kind,
    insert_second_kind,
    sample_code,
    sample_tree,
)
from .errors import (
    CapExceededError,
    EmptyHistogramError,
    InvalidConfigError,
    NotATreeError,
    TooFewSamplesError,
    TooSmallError,
)
from .perm import (
    PermGraph,
    Permutation,
    build_graph,
    components,
    inversion_count,
    inversions,
    is_indecomposable,
    is_tree_permutation,
    pattern_flags,
)
from .structure import (
    Bipartition,
    BlockDecomposition,
    CentralPath,
    bipartition,
    blocks,
    central_path,
    degree_sequence,
    neighbors_via_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "BlockDecomposition",
    "CapExceededError",
    "CentralPath",
    "EmptyHistogramError",
    "InvalidConfigError",
    "NotATreeError",
    "PermGraph",
    "Permutation",
    "TooFewSamplesError",
    "TooSmallError",
    "TreeCode",
    "bipartition",
    "blocks",
    "build_graph",
    "central_path",
    "components",
    "count_trees",
    "decode",
    "degree_sequence",
    "encode",
    "enumerate_codes",
    "enumerate_trees",
    "insert_first_kind",
    "insert_second_kind",
    "inversion_count",
    "inversions",
    "is_indecomposable",
    "is_tree_permutation",
    "neighbors_via_blocks",
    "pattern_flags",
    "sample_code",
    "sample_tree",
]

"""permtree: trees among permutation graphs.

Exact construction, counting, enumeration and uniform sampling of
permutations whose inversion graph is a tree; block-structure shortcuts
for the adjacency and the caterpillar spine; cover numbers via three
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
    sample_code,
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
    Permutation,
    build_graph,
    components,
    inversion_count,
    is_forest,
    is_indecomposable,
    is_tree_permutation,
    pattern_flags,
)
from .structure import (
    blocks,
    central_path,
    neighbors_via_blocks,
)

__version__ = "0.1.0"
SCHEMA = "permtree/1"  # the tag of every JSON document the CLI writes

__all__ = [
    "CapExceededError",
    "EmptyHistogramError",
    "InvalidConfigError",
    "NotATreeError",
    "Permutation",
    "TooFewSamplesError",
    "TooSmallError",
    "TreeCode",
    "blocks",
    "build_graph",
    "central_path",
    "components",
    "count_trees",
    "decode",
    "encode",
    "enumerate_codes",
    "enumerate_trees",
    "inversion_count",
    "is_forest",
    "is_indecomposable",
    "is_tree_permutation",
    "neighbors_via_blocks",
    "pattern_flags",
    "sample_code",
]

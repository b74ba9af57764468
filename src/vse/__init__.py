"""Vector similarity search engine for large labeled embedding galleries.

Three search strategies over one canonical squared-L2 metric:

* flat: exact scan, the accuracy ceiling,
* ivf_flat: inverted lists with exact post-verification,
* ivf_pq: inverted lists of product-quantized residual codes ranked by
  asymmetric distance lookups.

Plus the surrounding pipeline: seeded k-means, per-identity gallery
cleaning, paired feature fusion, gallery/probe split evaluation, and
bit-exact FVB/VIDX file formats behind the `vse` command line.
"""

from .core import (
    DataError,
    EmbeddingSet,
    SearchResult,
    l2_normalize,
    normalize_rows,
    squared_l2,
    squared_l2_batch,
    top_k_smallest,
)
from .evaluate import (
    OUT_OF_GALLERY,
    REJECT,
    EvalReport,
    Split,
    SplitSpec,
    StrategyConfig,
    default_bench_matrix,
    make_split,
    reports_to_json,
    reports_to_tsv,
    run_benchmark,
    search_any,
    synthetic_gallery,
    top1_identify,
)
from .flat import FlatIndex, flat_build, flat_search
from .fvb import FvbFormatError, read_embeddings, write_embeddings
from .gallery import (
    CleanReport,
    FusionStrategy,
    IdentityFolder,
    clean_gallery,
    clean_identity,
    fuse,
    fuse_sets,
)
from .ivf_flat import IvfFlatIndex, default_nprobe, ivf_flat_build, ivf_flat_search
from .ivf_pq import (
    IvfPqIndex,
    PqParams,
    ivf_pq_build,
    ivf_pq_decode,
    ivf_pq_encode,
    ivf_pq_search,
    ivf_pq_train,
)
from .kmeans import Assignment, Codebook, assign, kmeans_train
from .vidx import VidxFormatError, load_index, save_index

__version__ = "0.6.0"

__all__ = [
    "__version__",
    "DataError",
    "EmbeddingSet",
    "SearchResult",
    "squared_l2",
    "squared_l2_batch",
    "l2_normalize",
    "normalize_rows",
    "top_k_smallest",
    "Codebook",
    "Assignment",
    "kmeans_train",
    "assign",
    "FlatIndex",
    "flat_build",
    "flat_search",
    "IvfFlatIndex",
    "ivf_flat_build",
    "ivf_flat_search",
    "default_nprobe",
    "PqParams",
    "IvfPqIndex",
    "ivf_pq_train",
    "ivf_pq_build",
    "ivf_pq_encode",
    "ivf_pq_decode",
    "ivf_pq_search",
    "IdentityFolder",
    "CleanReport",
    "FusionStrategy",
    "clean_identity",
    "clean_gallery",
    "fuse",
    "fuse_sets",
    "OUT_OF_GALLERY",
    "REJECT",
    "SplitSpec",
    "Split",
    "StrategyConfig",
    "EvalReport",
    "make_split",
    "top1_identify",
    "search_any",
    "run_benchmark",
    "synthetic_gallery",
    "default_bench_matrix",
    "reports_to_tsv",
    "reports_to_json",
    "FvbFormatError",
    "read_embeddings",
    "write_embeddings",
    "VidxFormatError",
    "save_index",
    "load_index",
]

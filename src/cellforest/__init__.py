"""cellforest: supervoxel merge-forest segmentation of 3D membrane volumes."""

__version__ = "0.1.0"

from .classify import ClassProbs, Patch, extract_patch, heuristic_probs, hypothesis_classifier
from .graph import RegionGraph, build_region_graph
from .merging import (
    MergeForest,
    MergeParams,
    agglomerate,
    forest_to_labels,
    load_forest,
    save_forest,
    v_min_from_radius,
)
from .metrics import MatchReport, layer_report, match_segments
from .phantom import PhantomParams, generate_patch_dataset, generate_phantom
from .preprocess import PreprocessParams, gaussian_smooth, iterative_closing
from .resolve import Resolution, finalize, resolve, resolve_trivial
from .volume import (
    LabelVolume,
    ScalarVolume,
    TruncatedDataError,
    VolumeFormatError,
    normalize,
    read_volume,
    write_volume,
)
from .watershed import MinimaSet, find_local_minima, seeded_watershed

__all__ = [
    "ClassProbs",
    "LabelVolume",
    "MatchReport",
    "MergeForest",
    "MergeParams",
    "MinimaSet",
    "Patch",
    "PhantomParams",
    "PreprocessParams",
    "RegionGraph",
    "Resolution",
    "ScalarVolume",
    "TruncatedDataError",
    "VolumeFormatError",
    "agglomerate",
    "build_region_graph",
    "extract_patch",
    "finalize",
    "find_local_minima",
    "forest_to_labels",
    "gaussian_smooth",
    "generate_patch_dataset",
    "generate_phantom",
    "heuristic_probs",
    "hypothesis_classifier",
    "iterative_closing",
    "layer_report",
    "load_forest",
    "match_segments",
    "normalize",
    "read_volume",
    "resolve",
    "resolve_trivial",
    "save_forest",
    "segment",
    "seeded_watershed",
    "v_min_from_radius",
    "write_volume",
    "__version__",
]


def __getattr__(name: str):
    """``segment`` loads ``cli`` on first use, so ``python -m cellforest.cli`` runs one copy."""
    if name == "segment":
        from .cli import segment
        return segment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""cellforest: supervoxel merge-forest segmentation of 3D membrane volumes.

The package exports what the README's library example imports; import
everything else from its module."""

__version__ = "0.1.0"

from .merging import MergeParams
from .volume import read_volume

__all__ = ["MergeParams", "read_volume", "segment", "__version__"]


def __getattr__(name: str):
    """``segment`` loads ``cli`` on first use, so ``python -m cellforest.cli`` runs one copy."""
    if name == "segment":
        from .cli import segment
        return segment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

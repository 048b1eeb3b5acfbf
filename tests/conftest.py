"""Fixtures shared by several test modules."""

from types import SimpleNamespace

import pytest

from cellforest.phantom import PhantomParams, generate_phantom
from cellforest.preprocess import PreprocessParams, gaussian_smooth, iterative_closing
from cellforest.volume import normalize
from cellforest.watershed import find_local_minima


@pytest.fixture(scope="session")
def segment_96():
    """The benchmark's segment_96 input (phantom seed 1) as ``segment`` takes it through
    its stages: the truth, the smoothed volume the closing takes, the preprocessed
    volume and its minima."""
    img, truth = generate_phantom(
        PhantomParams(
            dims=(96, 96, 96), n_cells=90, membrane_width=2, attenuation=0.99,
            noise_sigma=0.05, blur_sigma=0.6, seed=1,
        )
    )
    p = PreprocessParams()
    smoothed = gaussian_smooth(normalize(img), p.sigma)
    pre = iterative_closing(smoothed, p.r_cl_max)
    return SimpleNamespace(truth=truth, smoothed=smoothed, pre=pre, minima=find_local_minima(pre))

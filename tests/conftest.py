"""Fixtures shared by several test modules."""

import os
from types import SimpleNamespace

import pytest

from cellforest import parallel
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


class FakeBlas:
    """A BLAS thread-count getter and setter that log what they were told."""

    def __init__(self, threads=4):
        self.threads, self.log = threads, []

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n
        self.log.append(n)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` leaves :mod:`cellforest.parallel` ``n`` usable CPUs."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def fake_blas(monkeypatch):
    """A :class:`FakeBlas` as :mod:`cellforest.parallel`'s OpenBLAS thread-count setter."""
    blas = FakeBlas()
    monkeypatch.setattr(parallel, "_openblas", lambda: (blas.get, blas.set))
    return blas


@pytest.fixture
def two_cpus(cpus, fake_blas):
    """Two usable CPUs and a :class:`FakeBlas` setter, which is returned."""
    cpus(2)
    return fake_blas

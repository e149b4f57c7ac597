import os

import numpy as np
import pytest
from hypothesis import settings

from microexp.synth import SynthSpec, make_dataset

from .surfaces import make_surface

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and no
# per-example deadline (the file-format properties write files, which a slow
# runner can stretch past the default 200 ms).
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def sphere_cap():
    """Clean spherical cap, r = 0.05 m, oriented toward the sensor."""
    return make_surface("sphere", {"radius": 0.05, "cap_deg": 150}, n_points=5000, seed=1)


@pytest.fixture(scope="session")
def face_cloud():
    return make_surface("face_proxy", n_points=2000, seed=9)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small 2D+3D synthetic dataset with class signal in both streams."""
    spec = SynthSpec(n_subjects=3, samples_per_subject=4, n_classes=2,
                     signal="both", n_points=900, seed=3)
    return make_dataset(spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

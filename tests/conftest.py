import numpy as np
import pytest

from crbm_radiomics import synth
from crbm_radiomics.config import SynthSpec
from crbm_radiomics.data_model import load_manifest


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small deterministic two-class corpus: (dataset, directory)."""
    out = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(n_per_class=12, image_size=32, seed=404)
    manifest = synth.generate(spec, out)
    return load_manifest(manifest), out


@pytest.fixture(scope="session")
def stripe_images():
    """200 binary 8x8 stripe images with varying phase, the CD training
    bed, as one (200, 8, 8) stack."""
    rng = np.random.default_rng(20260823)
    images = []
    for _ in range(200):
        phase = int(rng.integers(0, 4))
        rows = ((np.arange(8) + phase) // 2) % 2 == 0
        images.append(np.repeat(rows[:, None], 8, axis=1).astype(np.float64))
    return np.stack(images)

"""The synthetic two-class corpus generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbm_radiomics import synth
from crbm_radiomics.config import SynthSpec
from crbm_radiomics.data_model import load_manifest, load_sample
from crbm_radiomics.radiomics import CATALOG_NAMES, extract_all


def test_make_sample_is_deterministic_and_clipped():
    spec = SynthSpec(n_per_class=2, image_size=16, seed=9)
    a = synth.make_sample(spec, 1, 0)
    b = synth.make_sample(spec, 1, 0)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0
    c = synth.make_sample(spec, 1, 1)
    assert not np.array_equal(a.pixels, c.pixels)  # noise differs per index


def test_noiseless_stripes_are_a_pure_square_wave():
    spec = SynthSpec(n_per_class=1, image_size=16, noise_level=0.0,
                     stripe_period=4, seed=0)
    img = synth.make_sample(spec, 1, 0)
    assert set(np.unique(img.pixels)) == {0.2, 0.8}
    # period 4 horizontal: rows alternate in pairs
    np.testing.assert_array_equal(img.pixels[0], img.pixels[1])
    assert img.pixels[0, 0] != img.pixels[2, 0]
    np.testing.assert_array_equal(img.pixels[:4], img.pixels[4:8])


@pytest.mark.parametrize("orientation", ["horizontal", "vertical", "diagonal"])
def test_stripes_repeat_with_their_period_and_no_shorter_one(orientation):
    for period in range(2, 10):
        spec = SynthSpec(n_per_class=1, image_size=32, noise_level=0.0,
                         stripe_period=period, stripe_orientation=orientation,
                         seed=0)
        img = synth.make_sample(spec, 1, 0).pixels
        # the stripes run across the rows, but for vertical ones
        lines = img.T if orientation == "vertical" else img
        assert np.array_equal(lines[period:], lines[:-period]), period
        for shorter in range(1, period):
            assert not np.array_equal(lines[shorter:], lines[:-shorter]), \
                (period, shorter)


def test_stripe_orientations_differ():
    kwargs = dict(n_per_class=1, image_size=16, noise_level=0.0, seed=0)
    h = synth.make_sample(SynthSpec(stripe_orientation="horizontal", **kwargs), 1, 0)
    v = synth.make_sample(SynthSpec(stripe_orientation="vertical", **kwargs), 1, 0)
    d = synth.make_sample(SynthSpec(stripe_orientation="diagonal", **kwargs), 1, 0)
    np.testing.assert_array_equal(v.pixels, h.pixels.T)
    assert not np.array_equal(h.pixels, d.pixels)
    # constant along a row for horizontal, along a column for vertical
    assert (np.ptp(h.pixels, axis=1) == 0).all()
    assert (np.ptp(v.pixels, axis=0) == 0).all()


def test_blob_class_is_mostly_dark_background():
    spec = SynthSpec(n_per_class=1, image_size=32, noise_level=0.0, seed=3)
    img = synth.make_sample(spec, 0, 0)
    assert set(np.unique(img.pixels)) == {0.2, 0.8}
    assert (img.pixels == 0.2).mean() > 0.5


def full_frame_blob_field(size, density, rng):
    """The blob painter as it was: a full-frame disc test per blob."""
    img = np.full((size, size), synth._DARK)
    n_blobs = max(1, int(round(density * size * size / 12.0)))
    r, c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(n_blobs):
        cy, cx = rng.integers(0, size, size=2)
        radius = 2.0 + rng.random()
        img[(r - cy) ** 2 + (c - cx) ** 2 <= radius ** 2] = synth._BRIGHT
    return img


@settings(max_examples=200, deadline=None)
@given(size=st.integers(8, 64),
       density=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
def test_windowed_blob_painter_equals_the_full_frame_one(size, density, seed):
    got = synth._blob_field(size, density, np.random.default_rng(seed))
    want = full_frame_blob_field(size, density, np.random.default_rng(seed))
    assert np.array_equal(got, want)


class PinnedBlobs:
    """Stands in for the generator: yields the given (row, col, u) blobs,
    u being the draw that sets the radius 2 + u."""

    def __init__(self, blobs):
        self.blobs = list(blobs)
        self.u = None

    def integers(self, low, high, size):
        row, col, self.u = self.blobs.pop(0)
        assert low <= min(row, col) and max(row, col) < high and size == 2
        return np.array([row, col])

    def random(self):
        return self.u


# the largest draw below 1 rounds the radius up to exactly 3.0
LARGEST_U = 1.0 - 2.0**-53


@pytest.mark.parametrize("blobs", [
    [(0, 0, 0.0), (0, 255, LARGEST_U), (255, 0, 0.5), (255, 255, 0.999)],
    [(0, 128, LARGEST_U), (128, 0, LARGEST_U), (255, 128, LARGEST_U),
     (128, 255, LARGEST_U), (128, 128, LARGEST_U)],
    [(1, 2, 0.25), (2, 253, 0.8), (254, 1, LARGEST_U), (253, 254, 0.0),
     (3, 3, 0.9), (252, 252, LARGEST_U)],
])
def test_blobs_on_edges_and_corners_paint_as_full_frame(blobs):
    assert 2.0 + LARGEST_U == 3.0
    # density chosen so that round(density * 256^2 / 12) is the blob count
    density = len(blobs) * 12.0 / 256**2
    got = synth._blob_field(256, density, PinnedBlobs(blobs))
    want = full_frame_blob_field(256, density, PinnedBlobs(blobs))
    assert np.array_equal(got, want)
    assert (got == synth._BRIGHT).any()


@pytest.mark.parametrize("density", [0.01, 0.1])
def test_windowed_blob_painter_equals_the_full_frame_one_at_256(density):
    got = synth._blob_field(256, density, np.random.default_rng(256))
    want = full_frame_blob_field(256, density, np.random.default_rng(256))
    assert np.array_equal(got, want)


def test_ellipse_mask_geometry():
    mask = synth._ellipse_mask(32)
    assert mask.bits[16, 16] == 1
    assert mask.bits[0, 0] == 0
    assert mask.bits[0, 31] == 0
    frac = mask.bits.mean()
    assert 0.3 < frac < 0.6  # covers much but not all of the frame


def test_generate_writes_a_loadable_corpus(tiny_corpus):
    dataset, out = tiny_corpus
    assert len(dataset) == 24
    assert dataset.class_counts == (12, 12)
    assert (out / "masks" / "roi.pgm").is_file()
    assert len(list((out / "images").glob("*.pgm"))) == 24
    # patient grouping: 4 slices per patient by default
    patients = {}
    for r in dataset.records:
        patients.setdefault(r.patient_id, []).append(r.sample_id)
    assert all(len(v) == 4 for v in patients.values())
    assert all(r.stage != "unknown" and r.subtype != "unknown"
               for r in dataset.records)


def test_generate_is_byte_deterministic(tmp_path):
    spec = SynthSpec(n_per_class=3, image_size=16, seed=77)
    m1 = synth.generate(spec, tmp_path / "a")
    m2 = synth.generate(spec, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    for img in sorted(p.name for p in (tmp_path / "a" / "images").iterdir()):
        assert (tmp_path / "a" / "images" / img).read_bytes() == \
            (tmp_path / "b" / "images" / img).read_bytes()
    third = synth.generate(SynthSpec(n_per_class=3, image_size=16, seed=78),
                           tmp_path / "c")
    img0 = "S1_0000.pgm"
    assert (tmp_path / "a" / "images" / img0).read_bytes() != \
        (tmp_path / "c" / "images" / img0).read_bytes()


def test_classes_separate_in_glcm_contrast(tmp_path):
    spec = SynthSpec(n_per_class=6, image_size=32, noise_level=0.05, seed=5)
    dataset = load_manifest(synth.generate(spec, tmp_path))
    contrasts = {0: [], 1: []}
    for record in dataset.records:
        img, mask = load_sample(record)
        values = extract_all(img.pixels[None], mask.bits[None])
        got = dict(zip(CATALOG_NAMES, values[0]))
        contrasts[record.label].append(got["original_glcm_1_0_contrast"])
    assert min(contrasts[1]) > max(contrasts[0])

"""The synthetic two-class corpus generator."""

import numpy as np
import pytest

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

"""Raster I/O, manifest parsing, and geometry operations."""

import numpy as np
import pytest

from crbm_radiomics.data_model import (
    Dataset, Image2D, RoiMask, SampleRecord, binarize, crop_to_roi,
    extract_patches, load_image, load_manifest, load_mask, normalize_image,
    read_pgm, resize_or_pad, save_image, save_mask, write_pgm)
from crbm_radiomics.errors import (ManifestError, RasterFormatError,
                                   ShapeMismatchError)


def test_image_requires_unit_interval():
    with pytest.raises(ValueError):
        Image2D(pixels=np.array([[0.0, 1.5]]))
    with pytest.raises(ValueError):
        Image2D(pixels=np.array([[-0.1, 0.5]]))


def test_mask_requires_binary_bits():
    with pytest.raises(ValueError):
        RoiMask(bits=np.array([[0, 2]], dtype=np.uint8))


@pytest.mark.parametrize("maxval,dtype", [(255, np.uint8), (65535, np.uint16)])
def test_pgm_round_trip(tmp_path, maxval, dtype):
    rng = np.random.default_rng(1)
    raw = rng.integers(0, maxval + 1, size=(7, 5)).astype(dtype)
    path = tmp_path / "img.pgm"
    write_pgm(path, raw, maxval)
    back, got_maxval = read_pgm(path)
    assert got_maxval == maxval
    assert np.array_equal(back, raw)


def test_pgm_write_is_deterministic(tmp_path):
    raw = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(tmp_path / "a.pgm", raw, 255)
    write_pgm(tmp_path / "b.pgm", raw, 255)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(RasterFormatError):
        read_pgm(path)


@pytest.mark.parametrize("maxval,body", [(255, bytes(5)), (65535, bytes(11))])
def test_pgm_rejects_truncated_pixel_data(tmp_path, maxval, body):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n3 2\n%d\n" % maxval + body)
    with pytest.raises(RasterFormatError, match="short.pgm: pixel data truncated"):
        read_pgm(path)


@pytest.mark.parametrize("dims", [b"0 0", b"0 3", b"3 0"])
def test_pgm_rejects_empty_raster(tmp_path, dims):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n")
    with pytest.raises(RasterFormatError, match="empty.pgm: bad PGM size"):
        read_pgm(path)


def test_image_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = Image2D(pixels=rng.integers(0, 256, size=(9, 9)) / 255.0)
    save_image(tmp_path / "x.pgm", img, bit_depth=8)
    back = load_image(tmp_path / "x.pgm")
    np.testing.assert_allclose(back.pixels, img.pixels, atol=1e-12)


def test_mask_save_load_round_trip(tmp_path):
    mask = RoiMask(bits=(np.arange(16).reshape(4, 4) % 3 == 0).astype(np.uint8))
    save_mask(tmp_path / "m.pgm", mask)
    back = load_mask(tmp_path / "m.pgm")
    assert np.array_equal(back.bits, mask.bits)


def test_normalize_image_divides_by_full_scale():
    img8 = normalize_image(np.array([[0, 255]]), 8)
    np.testing.assert_allclose(img8.pixels, [[0.0, 1.0]])
    img16 = normalize_image(np.array([[0, 65535]]), 16)
    np.testing.assert_allclose(img16.pixels, [[0.0, 1.0]])
    with pytest.raises(RasterFormatError):
        normalize_image(np.array([[300]]), 8)


def test_binarize_threshold_is_inclusive():
    img = Image2D(pixels=np.array([[0.2, 0.5, 0.8]]))
    out = binarize(img, 0.5)
    np.testing.assert_array_equal(out.pixels, [[0.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        binarize(img, 1.0)


def test_crop_to_roi_zeroes_outside_mask():
    px = np.arange(25, dtype=float).reshape(5, 5) / 24.0
    bits = np.zeros((5, 5), dtype=np.uint8)
    bits[1:4, 2:4] = 1
    bits[2, 3] = 0
    out = crop_to_roi(Image2D(pixels=px), RoiMask(bits=bits))
    assert out.pixels.shape == (3, 2)
    assert out.pixels[1, 1] == 0.0  # the hole
    assert out.pixels[0, 0] == px[1, 2]


def test_crop_to_roi_rejects_empty_mask():
    with pytest.raises(ValueError):
        crop_to_roi(Image2D(pixels=np.zeros((3, 3))),
                    RoiMask(bits=np.zeros((3, 3), dtype=np.uint8)))


def test_extract_patches_row_major_and_counts():
    px = np.arange(64, dtype=float).reshape(8, 8) / 63.0
    img = Image2D(pixels=px)
    patches = extract_patches(img, 4, 4)
    assert len(patches) == 4
    np.testing.assert_array_equal(patches[0].pixels, px[:4, :4])
    np.testing.assert_array_equal(patches[1].pixels, px[:4, 4:])
    np.testing.assert_array_equal(patches[2].pixels, px[4:, :4])
    overlapping = extract_patches(img, 4, 2)
    assert len(overlapping) == 9
    with pytest.raises(ShapeMismatchError):
        extract_patches(img, 9, 1)


def test_resize_or_pad_pads_small_images_centered():
    img = Image2D(pixels=np.ones((2, 2)))
    out = resize_or_pad(img, 4)
    assert out.pixels.shape == (4, 4)
    assert out.pixels.sum() == pytest.approx(4.0)
    assert out.pixels[1:3, 1:3].sum() == pytest.approx(4.0)


def test_resize_or_pad_downsample_preserves_mean_of_constant():
    img = Image2D(pixels=np.full((10, 10), 0.6))
    out = resize_or_pad(img, 4)
    assert out.pixels.shape == (4, 4)
    np.testing.assert_allclose(out.pixels, 0.6, atol=1e-12)


def test_resize_or_pad_keeps_aspect_ratio():
    img = Image2D(pixels=np.ones((20, 10)))
    out = resize_or_pad(img, 8)
    # 20x10 scales by 8/20 to 8x4, padded to 8x8: columns 2..5 filled
    assert out.pixels.shape == (8, 8)
    np.testing.assert_allclose(out.pixels[:, 2:6], 1.0, atol=1e-12)
    np.testing.assert_allclose(out.pixels[:, :2], 0.0, atol=1e-12)


def _write_manifest(tmp_path, rows, header="sample_id,patient_id,image,mask,"
                                           "label,stage,subtype"):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_manifest_parses_and_resolves_paths(tmp_path, tiny_corpus):
    dataset, _ = tiny_corpus
    assert len(dataset) == 24
    assert dataset.class_counts == (12, 12)
    rec = dataset.records[0]
    assert rec.label in (0, 1)
    from pathlib import Path
    assert Path(rec.image_path).is_file()
    assert Path(rec.mask_path).is_file()


def test_manifest_rejects_bad_header(tmp_path):
    path = _write_manifest(tmp_path, [], header="id,patient,label")
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_rejects_duplicate_ids(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            "a,p1,i.pgm,m.pgm,0,baseline,unknown"]
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(_write_manifest(tmp_path, rows))


def test_manifest_rejects_bad_label(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,2,baseline,unknown"]
    with pytest.raises(ManifestError, match="label"):
        load_manifest(_write_manifest(tmp_path, rows))


def test_manifest_reports_offending_line_number(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            "b,p1,i.pgm,m.pgm,1,nope,unknown"]
    with pytest.raises(ManifestError, match=":3"):
        load_manifest(_write_manifest(tmp_path, rows))


def test_dataset_filter_by_stage_and_subtype():
    def rec(i, stage, subtype):
        return SampleRecord(sample_id=f"s{i}", patient_id="p", image_path="i",
                            mask_path="m", label=i % 2, stage=stage,
                            subtype=subtype)
    ds = Dataset(records=(rec(0, "baseline", "HR+HER2-"),
                          rec(1, "early", "HR+HER2-"),
                          rec(2, "baseline", "TN/HER2+")))
    assert len(ds.filter(stage="baseline")) == 2
    assert len(ds.filter(subtype="HR+HER2-")) == 2
    assert len(ds.filter(stage="baseline", subtype="TN/HER2+")) == 1
    assert len(ds.filter()) == 3

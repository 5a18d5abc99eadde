"""Raster I/O, manifest parsing, and geometry operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crbm_radiomics.data_model import (
    Image2D, RoiMask, _area_average_matrix, crop_to_roi,
    extract_patches, load_image, load_manifest, load_mask, normalize_image,
    read_pgm, resize_or_pad, save_image, save_mask, write_pgm)
from crbm_radiomics.errors import (ManifestError, PipelineError,
                                   RasterFormatError, ShapeMismatchError)


def test_image_requires_unit_interval():
    with pytest.raises(ValueError):
        Image2D(pixels=np.array([[0.0, 1.5]]))
    with pytest.raises(ValueError):
        Image2D(pixels=np.array([[-0.1, 0.5]]))


def test_mask_requires_binary_bits():
    with pytest.raises(ValueError):
        RoiMask(bits=np.array([[0, 2]], dtype=np.uint8))


@pytest.mark.parametrize("bad", [2, 0.5])
def test_mask_rejects_a_value_other_than_0_or_1(bad):
    bits = np.ones((3, 4))
    bits[1, 2] = bad
    with pytest.raises(ValueError, match="mask bits must be 0 or 1"):
        RoiMask(bits=bits)
    assert RoiMask(bits=np.ones((3, 4))).bits.dtype == np.uint8


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


@pytest.mark.parametrize("data", [b"P5 3_0 1 255\n" + bytes(30),  # int(): 30 wide
                                  b"P5 +3 1 255\n" + bytes(3),    # int(): 3 wide
                                  b"P5 3 1 +255\n" + bytes(3),
                                  # one whitespace byte, not a comment's
                                  # newline, ends the header
                                  b"P5 2 2 255#c\n" + bytes(4)])
def test_pgm_rejects_header_numbers_that_are_not_ascii_decimal(tmp_path, data):
    path = tmp_path / "odd.pgm"
    path.write_bytes(data)
    with pytest.raises(RasterFormatError, match="odd.pgm: bad PGM header"):
        read_pgm(path)


# a comment runs to a CR or LF, so its tail is never read as a token
@pytest.mark.parametrize("data", [b"P5 2 2", b"P5 2 2 #255",
                                  b"P5 2 2 #255" + bytes(4)])
def test_pgm_rejects_a_truncated_header(tmp_path, data):
    path = tmp_path / "cut.pgm"
    path.write_bytes(data)
    with pytest.raises(RasterFormatError, match="cut.pgm: truncated PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("header", [b"P5#c\n2 2\n255\n",
                                    b"P5\n2 2#c\n255\n",
                                    b"P5 2#c\r2 # d\n255\n"])
def test_pgm_comment_ends_the_token_before_it(tmp_path, header):
    # as libnetpbm reads it: a "#" needs no whitespace before it, and the
    # comment runs to the next CR or LF, which counts as whitespace
    path = tmp_path / "noted.pgm"
    path.write_bytes(header + bytes([0, 1, 2, 3]))
    raw, maxval = read_pgm(path)
    assert maxval == 255 and raw.tolist() == [[0, 1], [2, 3]]


# header tokens a damaged or hand-edited PGM may carry
ODD_TOKENS = (b"", b"0", b"-1", b"+3", b"3_0", b"1e3", b"0x10", b"255.0",
              b"65536", b"9" * 30, b"9" * 5000, b"P2", b"P5P5", b"#", b"\xff",
              b"\x00", b"\xc2\xa0", b"\x1c")


@st.composite
def pgm_files(draw):
    """Bytes of a write_pgm file, then damaged by one random mutation."""
    maxval = draw(st.sampled_from((255, 65535)))
    raw = draw(hnp.arrays(np.uint16, hnp.array_shapes(min_dims=2, max_dims=2,
                                                      max_side=5),
                          elements=st.integers(0, maxval)))
    height, width = raw.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    body = raw.astype(">u2" if maxval == 65535 else np.uint8).tobytes()
    data = header + body
    kind = draw(st.sampled_from(("token", "byte", "insert", "delete",
                                 "truncate", "append")))
    if kind == "token":
        tokens = header.split()
        i = draw(st.integers(0, 3))
        tokens[i] = draw(st.sampled_from(ODD_TOKENS) | st.binary(max_size=4))
        sep = draw(st.sampled_from((b" ", b"\n", b"\t", b"\r\n", b" # x\n")))
        return sep.join(tokens) + draw(st.sampled_from((b"\n", b"", b"  "))) + body
    at = draw(st.integers(0, len(data)))
    if kind == "byte" and at < len(data):
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 4)):]
    if kind == "truncate":
        return data[:at]
    return data + draw(st.binary(min_size=1, max_size=4))


@settings(max_examples=400, deadline=None)
@given(data=pgm_files())
def test_damaged_pgm_reads_back_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged.pgm"
    path.write_bytes(data)
    try:
        raw, maxval = read_pgm(path)
    except RasterFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert maxval in (255, 65535)
    assert raw.ndim == 2 and raw.dtype == np.uint16 and raw.size >= 1
    assert int(raw.max()) <= maxval
    again = path.with_name("again.pgm")
    write_pgm(again, raw, maxval)
    back, back_maxval = read_pgm(again)
    assert back_maxval == maxval and np.array_equal(back, raw)


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


def test_crop_to_roi_zeroes_outside_mask():
    px = np.arange(25, dtype=float).reshape(5, 5) / 24.0
    bits = np.zeros((5, 5), dtype=np.uint8)
    bits[1:4, 2:4] = 1
    bits[2, 3] = 0
    out = crop_to_roi(Image2D(pixels=px), RoiMask(bits=bits))
    assert out.shape == (3, 2)
    assert out[1, 1] == 0.0  # the hole
    assert out[0, 0] == px[1, 2]


def test_crop_to_roi_rejects_empty_mask():
    with pytest.raises(ValueError):
        crop_to_roi(Image2D(pixels=np.zeros((3, 3))),
                    RoiMask(bits=np.zeros((3, 3), dtype=np.uint8)))


def test_extract_patches_row_major_and_counts():
    px = np.arange(64, dtype=float).reshape(8, 8) / 63.0
    patches = extract_patches(px, 4, 4)
    assert patches.shape == (4, 4, 4)
    np.testing.assert_array_equal(patches[0], px[:4, :4])
    np.testing.assert_array_equal(patches[1], px[:4, 4:])
    np.testing.assert_array_equal(patches[2], px[4:, :4])
    overlapping = extract_patches(px, 4, 2)
    assert len(overlapping) == 9
    with pytest.raises(ShapeMismatchError):
        extract_patches(px, 9, 1)
    with pytest.raises(ValueError):
        extract_patches(px, 4, 0)


@settings(max_examples=100, deadline=None)
@given(height=st.integers(1, 12), width=st.integers(1, 12),
       patch=st.integers(1, 12), stride=st.integers(1, 14))
def test_extract_patches_equals_the_window_loop(height, width, patch, stride):
    px = np.arange(height * width, dtype=float).reshape(height, width)
    if patch > min(height, width):
        with pytest.raises(ShapeMismatchError):
            extract_patches(px, patch, stride)
        return
    want = [px[r:r + patch, c:c + patch]
            for r in range(0, height - patch + 1, stride)
            for c in range(0, width - patch + 1, stride)]
    got = extract_patches(px, patch, stride)
    assert got.shape == (len(want), patch, patch)
    assert np.array_equal(got, want)
    # a copy, never a view of the image
    assert got.flags.writeable and not np.shares_memory(got, px)


def test_resize_or_pad_pads_small_images_centered():
    out = resize_or_pad(np.ones((2, 2)), 4)
    assert out.shape == (4, 4)
    assert out.sum() == pytest.approx(4.0)
    assert out[1:3, 1:3].sum() == pytest.approx(4.0)


def test_resize_or_pad_downsample_preserves_mean_of_constant():
    out = resize_or_pad(np.full((10, 10), 0.6), 4)
    assert out.shape == (4, 4)
    np.testing.assert_allclose(out, 0.6, atol=1e-12)


def test_resize_or_pad_keeps_aspect_ratio():
    out = resize_or_pad(np.ones((20, 10)), 8)
    # 20x10 scales by 8/20 to 8x4, padded to 8x8: columns 2..5 filled
    assert out.shape == (8, 8)
    np.testing.assert_allclose(out[:, 2:6], 1.0, atol=1e-12)
    np.testing.assert_allclose(out[:, :2], 0.0, atol=1e-12)


def area_average_loops(src, dst):
    """The interval-by-interval loop that built the area-average matrix."""
    ratio = src / dst
    mat = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            overlap = min(hi, j + 1) - max(lo, j)
            if overlap > 0:
                mat[i, j] = overlap / ratio
    return mat


def test_area_average_matrix_equals_the_interval_loops():
    # every downsampling of up to 64 pixels and some of 255-299, bit for bit
    shapes = [(src, dst) for src in range(1, 65) for dst in range(1, src + 1)]
    shapes += [(src, dst) for src in (255, 256, 299)
               for dst in (1, 7, 16, 31, 32, 64, 100, 127, 128, 255)
               if dst <= src]
    for src, dst in shapes:
        got = _area_average_matrix(src, dst)
        assert got.tobytes() == area_average_loops(src, dst).tobytes(), (src, dst)


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


def test_manifest_with_a_byte_order_mark_loads_the_same_dataset(tmp_path):
    # spreadsheet programs save UTF-8 CSV with a leading BOM
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            "b,p2,j.pgm,n.pgm,0,baseline,unknown"]
    plain = load_manifest(_write_manifest(tmp_path, rows))
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_manifest(path) == plain


def test_manifest_rejects_duplicate_ids(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            "a,p1,i.pgm,m.pgm,0,baseline,unknown"]
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(_write_manifest(tmp_path, rows))


def test_manifest_rejects_bad_label(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,2,baseline,unknown"]
    with pytest.raises(ManifestError, match="label"):
        load_manifest(_write_manifest(tmp_path, rows))


@pytest.mark.parametrize("column", ["sample_id", "patient_id", "image", "mask"])
def test_manifest_rejects_an_empty_required_field(tmp_path, column):
    # an empty image or mask would resolve to the manifest's directory, and
    # empty patient ids would all be one patient under patient-grouped folds
    cells = dict(sample_id="b", patient_id="p2", image="j.pgm", mask="n.pgm")
    cells[column] = " "
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            ",".join(cells.values()) + ",0,baseline,unknown"]
    path = _write_manifest(tmp_path, rows)
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}:3: empty {column}"


def test_manifest_reports_offending_line_number(tmp_path):
    rows = ["a,p1,i.pgm,m.pgm,1,baseline,unknown",
            "b,p1,i.pgm,m.pgm,1,nope,unknown"]
    with pytest.raises(ManifestError, match=":3"):
        load_manifest(_write_manifest(tmp_path, rows))



def test_manifest_that_cannot_be_read_is_not_reported_missing(tmp_path):
    # a directory exists but cannot be read as a file; only a missing
    # path is "not found"
    with pytest.raises(ManifestError) as err:
        load_manifest(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: cannot read (")
    with pytest.raises(ManifestError) as err:
        load_manifest(tmp_path / "absent.csv")
    assert str(err.value) == f"manifest not found: {tmp_path / 'absent.csv'}"


def test_manifest_undecodable_or_malformed_csv_names_the_file(tmp_path):
    header = b"sample_id,patient_id,image,mask,label,stage,subtype\n"
    for data, message in ((b"\xff" + header, "not UTF-8"),
                          (header + b"a," + b"x" * 140000 + b",m,1,baseline,unknown\n",
                           "bad CSV")):
        path = tmp_path / "odd.csv"
        path.write_bytes(data)
        with pytest.raises(ManifestError, match=message) as err:
            load_manifest(path)
        assert str(path) in str(err.value)


# Fuzzed manifests, in the style of the damaged-PGM fuzzer: a valid
# manifest with one cell, row or the header replaced, or its bytes
# damaged.  Each file loads, or raises a PipelineError whose message names
# the file; never a bare TypeError, ValueError, KeyError or IndexError.
ODD_CELLS = ("", " ", "2", "-1", "1.0", " 1 ", "early", "HR+HER2-", "bogus",
             '"', '"a,b"', "a\nb", "\x00", "\x1c", "\xa0", "x" * 140000)


@st.composite
def manifest_files(draw):
    rows = [["sample_id", "patient_id", "image", "mask", "label", "stage", "subtype"]]
    for k in range(draw(st.integers(0, 4))):
        rows.append([f"s{k}", f"p{k // 2}", f"i{k}.pgm", f"m{k}.pgm", str(k % 2),
                     draw(st.sampled_from(("baseline", "unknown"))), "unknown"])
    kind = draw(st.sampled_from(("cell", "row", "duplicate", "bytes")))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "cell":
        j = draw(st.integers(0, 6))
        rows[i][j] = draw(st.sampled_from(ODD_CELLS) | st.text(max_size=4))
    elif kind == "row":
        rows[i] = draw(st.lists(st.sampled_from(ODD_CELLS[:10]), max_size=9))
    elif kind == "duplicate":
        rows.append(list(rows[i]))
    text = "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(("\n", "", "\r\n")))
    data = text.encode("utf-8", "surrogatepass")
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(("byte", "insert", "delete", "truncate")))
        if how == "byte":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif how == "insert":
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
        elif how == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        else:
            data = data[:at]
    return data


@settings(max_examples=250, deadline=None)
@given(data=manifest_files())
def test_fuzzed_manifest_loads_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(data)
    try:
        dataset = load_manifest(path)
    except PipelineError as exc:
        assert str(path) in str(exc)
        return
    for record in dataset.records:
        assert record.label in (0, 1)

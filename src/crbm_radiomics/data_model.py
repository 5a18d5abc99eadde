"""Dataset ingestion, raster I/O, and the image/mask/patch operations shared
by the feature extractors.

Images and masks travel as binary PGM (P5) files, 8-bit or 16-bit big-endian,
mask pixels > 0 meaning "inside the ROI".  A dataset is described by a
manifest CSV with header ``sample_id,patient_id,image,mask,label,stage,subtype``
whose paths are resolved relative to the manifest's directory.
"""

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ManifestError, RasterFormatError, ShapeMismatchError

STAGES = ("baseline", "early", "inter", "presurgery", "unknown")
SUBTYPES = ("HR+HER2-", "TN/HER2+", "unknown")
MANIFEST_HEADER = ("sample_id", "patient_id", "image", "mask", "label", "stage", "subtype")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Image2D:
    """Grayscale raster with float64 pixels in [0, 1], row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ShapeMismatchError(f"image must be 2-D and non-empty, got shape {p.shape}")
        if not np.isfinite(p).all() or p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("image pixels must be finite and within [0, 1]")
        object.__setattr__(self, "pixels", p)


@dataclass(frozen=True)
class RoiMask:
    """Binary mask aligned with an Image2D; bits are {0, 1}, row-major."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or b.shape[0] < 1 or b.shape[1] < 1:
            raise ShapeMismatchError(f"mask must be 2-D and non-empty, got shape {b.shape}")
        if not ((b == 0) | (b == 1)).all():
            raise ValueError("mask bits must be 0 or 1")
        object.__setattr__(self, "bits", b.astype(np.uint8))


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    patient_id: str
    image_path: str
    mask_path: str
    label: int
    stage: str = "unknown"
    subtype: str = "unknown"


@dataclass(frozen=True)
class Dataset:
    records: tuple

    def __len__(self) -> int:
        return len(self.records)

    @property
    def class_counts(self) -> tuple:
        """(n_positive, n_negative)."""
        pos = sum(1 for r in self.records if r.label == 1)
        return pos, len(self.records) - pos


# ---------------------------------------------------------------------------
# PGM raster I/O
# ---------------------------------------------------------------------------

# a PGM header token after the whitespace and comments before it; a
# comment must run to a CR, an LF or the end of the data, so that no
# backtracking can read the tail of a comment as a token
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def read_pgm(path) -> tuple:
    """Read a binary PGM (P5) file.  Returns (raw uint16 array, maxval).

    As in libnetpbm, a header comment runs from "#" to the next CR or LF
    and ends the token before it; one whitespace byte, not a comment's
    newline, ends the header."""
    data = Path(path).read_bytes()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        token = _PGM_TOKEN.match(data, pos)
        if token is None:
            raise RasterFormatError(f"{path}: truncated PGM header")
        tokens.append(token[1])
        pos = token.end()
    magic, *dims = tokens
    if magic != b"P5":
        raise RasterFormatError(f"{path}: not a binary PGM (magic {magic!r})")
    # bytes.isdigit: ASCII 0-9 only
    if not all(t.isdigit() for t in dims) or data[pos:pos + 1] == b"#":
        raise RasterFormatError(f"{path}: bad PGM header")
    try:
        width, height, maxval = (int(t) for t in dims)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: bad PGM header") from exc
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad PGM size {width}x{height}")
    if maxval not in (255, 65535):
        raise RasterFormatError(f"{path}: unsupported maxval {maxval} (need 255 or 65535)")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2" if maxval == 65535 else np.uint8)
    count = width * height
    if len(data) - pos < count * dtype.itemsize:
        raise RasterFormatError(f"{path}: pixel data truncated")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return raw.reshape(height, width).astype(np.uint16), maxval


def write_pgm(path, raw: np.ndarray, maxval: int) -> None:
    """Write a binary PGM (P5); 16-bit samples are stored big-endian."""
    if maxval not in (255, 65535):
        raise RasterFormatError(f"unsupported maxval {maxval}")
    raw = np.asarray(raw)
    if raw.min() < 0 or raw.max() > maxval:
        raise RasterFormatError("raw values exceed declared maxval")
    height, width = raw.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    body = raw.astype(">u2" if maxval == 65535 else np.uint8).tobytes()
    Path(path).write_bytes(header + body)


def load_image(path) -> Image2D:
    raw, maxval = read_pgm(path)
    return normalize_image(raw, 16 if maxval == 65535 else 8)


def load_mask(path) -> RoiMask:
    raw, _ = read_pgm(path)
    return RoiMask(bits=(raw > 0).astype(np.uint8))


def save_image(path, img: Image2D, bit_depth: int = 8) -> None:
    maxval = (1 << bit_depth) - 1
    raw = np.rint(img.pixels * maxval).astype(np.int64)
    write_pgm(path, raw, maxval)


def save_mask(path, mask: RoiMask) -> None:
    write_pgm(path, mask.bits * 255, 255)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_manifest(path) -> Dataset:
    """Parse a manifest CSV into a Dataset of one or more samples; paths
    become absolute.  path may name any readable file, a pipe too."""
    path = Path(path)
    base = path.parent
    reader = _csv_rows(path)
    try:
        header = next(reader)
    except StopIteration:
        raise ManifestError(f"{path}: empty file, expected header") from None
    if tuple(h.strip() for h in header) != MANIFEST_HEADER:
        raise ManifestError(
            f"{path}: bad header {header!r}, expected {','.join(MANIFEST_HEADER)}")
    records = []
    seen = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(MANIFEST_HEADER):
            raise ManifestError(f"{path}:{lineno}: expected {len(MANIFEST_HEADER)} "
                                f"columns, got {len(row)}")
        cells = [c.strip() for c in row]
        for column, cell in zip(MANIFEST_HEADER[:4], cells):
            if not cell:
                raise ManifestError(f"{path}:{lineno}: empty {column}")
        sample_id, patient_id, image, mask, label, stage, subtype = cells
        if sample_id in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        if label not in ("0", "1"):
            raise ManifestError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        if stage not in STAGES:
            raise ManifestError(f"{path}:{lineno}: unknown stage {stage!r}")
        if subtype not in SUBTYPES:
            raise ManifestError(f"{path}:{lineno}: unknown subtype {subtype!r}")
        records.append(SampleRecord(
            sample_id=sample_id,
            patient_id=patient_id,
            image_path=str(base / image),
            mask_path=str(base / mask),
            label=int(label),
            stage=stage,
            subtype=subtype,
        ))
    if not records:
        raise ManifestError(f"{path}: no samples, only a header")
    return Dataset(records=tuple(records))


def _csv_rows(path: Path):
    """The rows of a UTF-8 CSV file, after any byte-order mark; a file
    that is missing or cannot be read, undecodable bytes and malformed CSV
    (an over-long field, say) are ManifestErrors naming the file."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except OSError as exc:  # a directory, no permission
        raise ManifestError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ManifestError(f"{path}:{reader.line_num}: bad CSV ({exc})") from exc


def load_sample(record: SampleRecord) -> tuple:
    """Load (Image2D, RoiMask) for a record, checking dimensions agree and
    that the mask sets at least one pixel."""
    img = load_image(record.image_path)
    mask = load_mask(record.mask_path)
    if img.pixels.shape != mask.bits.shape:
        raise ShapeMismatchError(
            f"sample {record.sample_id}: image {img.pixels.shape} vs "
            f"mask {mask.bits.shape}")
    if not mask.bits.any():
        raise ManifestError(
            f"sample {record.sample_id}: empty mask {record.mask_path}")
    return img, mask


# ---------------------------------------------------------------------------
# Image operations
# ---------------------------------------------------------------------------

def normalize_image(raw: np.ndarray, bit_depth: int) -> Image2D:
    """Map integer raster to [0, 1] by dividing by 2^bit_depth - 1."""
    if bit_depth not in (8, 16):
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    raw = np.asarray(raw)
    limit = (1 << bit_depth) - 1
    if raw.min() < 0 or raw.max() > limit:
        raise RasterFormatError(f"raw values outside [0, {limit}]")
    return Image2D(pixels=raw.astype(np.float64) / limit)


def crop_to_roi(img: Image2D, mask: RoiMask) -> np.ndarray:
    """The image's pixels over the mask's bounding box, zeroed outside the
    mask."""
    if img.pixels.shape != mask.bits.shape:
        raise ShapeMismatchError(f"image {img.pixels.shape} vs mask {mask.bits.shape}")
    rows, cols = np.nonzero(mask.bits)
    if rows.size == 0:
        raise ValueError("empty mask")
    r0, r1 = rows.min(), rows.max()
    c0, c1 = cols.min(), cols.max()
    return img.pixels[r0:r1 + 1, c0:c1 + 1] * mask.bits[r0:r1 + 1, c0:c1 + 1]


def extract_patches(pixels: np.ndarray, patch: int, stride: int) -> np.ndarray:
    """All patch x patch windows whose origin is a multiple of stride, as
    one (P, patch, patch) array in row-major order of their origins."""
    height, width = pixels.shape
    if patch > min(width, height):
        raise ShapeMismatchError(
            f"patch {patch} exceeds image {height}x{width}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    windows = sliding_window_view(pixels, (patch, patch))[::stride, ::stride]
    return np.array(windows, order="C").reshape(-1, patch, patch)


def _area_average_matrix(src: int, dst: int) -> np.ndarray:
    """Row matrix R (dst x src): R @ x averages x over equal-width intervals.
    R[i, j] is the overlap of pixel [j, j + 1) with interval i,
    [i, i + 1) * src / dst, over the interval's width, or 0 where they do
    not overlap."""
    ratio = src / dst
    i, j = np.arange(dst)[:, None], np.arange(src)
    overlap = np.minimum((i + 1) * ratio, j + 1) - np.maximum(i * ratio, j)
    return np.where(overlap > 0, overlap / ratio, 0.0)


def resize_or_pad(pixels: np.ndarray, target: int) -> np.ndarray:
    """Standardize an image to target x target: zero-pad centered,
    downsampling first (box filter, aspect preserved) if either dimension
    exceeds the target."""
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    h, w = pixels.shape
    if h > target or w > target:
        scale = target / max(h, w)
        new_h = max(1, int(round(h * scale)))
        new_w = max(1, int(round(w * scale)))
        pixels = _area_average_matrix(h, new_h) @ pixels @ _area_average_matrix(w, new_w).T
        pixels = np.clip(pixels, 0.0, 1.0)
        h, w = new_h, new_w
    out = np.zeros((target, target))
    top = (target - h) // 2
    left = (target - w) // 2
    out[top:top + h, left:left + w] = pixels
    return out

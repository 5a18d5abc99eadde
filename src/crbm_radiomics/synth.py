"""Synthetic two-class texture corpus.

Class 1 is a periodic square-wave stripe pattern, class 0 sparse bright
blobs on a flat background; both get additive Gaussian noise.  The
classes are separable by construction (stripe autocorrelation vs. blob
sparsity shows up in GLCM contrast and in learned convolutional
features), which makes every end-to-end claim checkable without any
clinical data.  All output is deterministic in the spec seed.
"""

import csv
from pathlib import Path

import numpy as np

from .config import SynthSpec
from .data_model import (MANIFEST_HEADER, STAGES, SUBTYPES, Image2D, RoiMask,
                         save_image, save_mask)
from .seeding import derive_rng

_DARK, _BRIGHT = 0.2, 0.8


def _stripe_field(size: int, period: int, orientation: str) -> np.ndarray:
    r, c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    coord = {"horizontal": r, "vertical": c, "diagonal": r + c}[orientation]
    # dark for the first half of each period, rounded up for an odd one
    return np.where(coord % period < period / 2, _DARK, _BRIGHT)


def _blob_field(size: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Bright discs of radius 2-3 dropped at ~density * size^2 / 12 sites.

    The radius 2 + U[0, 1) rounds to at most 3.0, so each disc lies in the
    7 x 7 window around its centre.  The centres and radii are drawn blob
    after blob; then every window is tested and painted in one pass,
    clipped at the border.
    """
    img = np.full((size, size), _DARK)
    n_blobs = max(1, int(round(density * size * size / 12.0)))
    centres = np.empty((n_blobs, 2), dtype=np.int64)
    squared_radii = np.empty(n_blobs)
    for i in range(n_blobs):
        centres[i] = rng.integers(0, size, size=2)
        radius = 2.0 + rng.random()
        squared_radii[i] = radius ** 2
    offsets = np.arange(-3, 4)
    rows, cols = np.broadcast_arrays(centres[:, :1, None] + offsets[:, None],
                                     centres[:, 1:, None] + offsets)
    inside = ((offsets[:, None] ** 2 + offsets ** 2 <= squared_radii[:, None, None])
              & (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size))
    img[rows[inside], cols[inside]] = _BRIGHT
    return img


def _ellipse_mask(size: int) -> RoiMask:
    """Centered ellipse covering most of the frame, axes 0.42/0.36 of size."""
    r, c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    mid = (size - 1) / 2.0
    a, b = 0.42 * size, 0.36 * size
    bits = (((r - mid) / a) ** 2 + ((c - mid) / b) ** 2 <= 1.0).astype(np.uint8)
    return RoiMask(bits=bits)


def make_sample(spec: SynthSpec, label: int, index: int) -> Image2D:
    """One deterministic image for (label, index) under the spec seed."""
    rng = derive_rng(spec.seed, "synth", label, index)
    if label == 1:
        base = _stripe_field(spec.image_size, spec.stripe_period,
                             spec.stripe_orientation)
    else:
        base = _blob_field(spec.image_size, spec.blob_density, rng)
    noisy = base + rng.normal(0.0, spec.noise_level, size=base.shape) \
        if spec.noise_level > 0 else base
    return Image2D(pixels=np.clip(noisy, 0.0, 1.0))


def generate(spec: SynthSpec, out_dir) -> Path:
    """Write images/, masks/ and manifest.csv under out_dir.

    Slices are grouped into patients of spec.slices_per_patient
    consecutive samples (per class); stage and subtype cycle through the
    known vocabulary, so every manifest value is a valid one, though the
    pipeline reads neither.  Returns the manifest path.
    """
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    mask = _ellipse_mask(spec.image_size)
    mask_rel = "masks/roi.pgm"
    save_mask(out / mask_rel, mask)

    stages = [s for s in STAGES if s != "unknown"]
    subtypes = [s for s in SUBTYPES if s != "unknown"]
    rows = []
    for label in (1, 0):
        for index in range(spec.n_per_class):
            img = make_sample(spec, label, index)
            sample_id = f"S{label}_{index:04d}"
            image_rel = f"images/{sample_id}.pgm"
            save_image(out / image_rel, img, bit_depth=8)
            rows.append((
                sample_id,
                f"P{label}_{index // spec.slices_per_patient:03d}",
                image_rel,
                mask_rel,
                str(label),
                stages[index % len(stages)],
                subtypes[index % len(subtypes)],
            ))
    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest

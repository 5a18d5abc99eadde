"""Independent brute-force enumerators for co-occurrence pairs and runs,
and the textbook per-matrix formulas for their descriptors.

The enumerators are deliberately written as literal pixel loops with none
of the vectorized tricks used by the package kernels, so the two
implementations share no code path.  The descriptor references evaluate
each definition over the full matrix of one offset or direction, with no
sum/difference histograms and no stacking.
"""

import numpy as np


def brute_glcm(codes, roi, dr, dc, levels):
    h, w = codes.shape
    counts = np.zeros((levels, levels))
    for r in range(h):
        for c in range(w):
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < h and 0 <= c2 < w and roi[r, c] and roi[r2, c2]:
                counts[codes[r, c] - 1, codes[r2, c2] - 1] += 1
    return counts


def brute_glrlm(codes, roi, dr, dc, levels, max_run):
    # a run longer than max_run is counted in the last column
    h, w = codes.shape
    counts = np.zeros((levels, max_run))
    seen = set()
    for r in range(h):
        for c in range(w):
            if not roi[r, c] or (r, c) in seen:
                continue
            pr, pc = r - dr, c - dc
            if 0 <= pr < h and 0 <= pc < w and roi[pr, pc] \
                    and codes[pr, pc] == codes[r, c]:
                continue  # not the start of a run
            run, rr, cc = 0, r, c
            while 0 <= rr < h and 0 <= cc < w and roi[rr, cc] \
                    and codes[rr, cc] == codes[r, c]:
                seen.add((rr, cc))
                run += 1
                rr, cc = rr + dr, cc + dc
            counts[codes[r, c] - 1, min(run, max_run) - 1] += 1
    return counts


def reference_glcm_features(p):
    """contrast, dissimilarity, homogeneity, asm, entropy, correlation,
    cluster shade, cluster prominence of one (L, L) probability matrix."""
    levels = p.shape[0]
    idx = np.arange(1, levels + 1, dtype=np.float64)
    i = idx[:, None]
    j = idx[None, :]
    diff = i - j
    contrast = float((p * diff ** 2).sum())
    dissimilarity = float((p * np.abs(diff)).sum())
    homogeneity = float((p / (1.0 + diff ** 2)).sum())
    asm = float((p * p).sum())
    nz = p[p > 0]
    entropy = float(-(nz * np.log2(nz)).sum())
    p_i = p.sum(axis=1)
    p_j = p.sum(axis=0)
    mu_i = float(idx @ p_i)
    mu_j = float(idx @ p_j)
    var_i = float(((idx - mu_i) ** 2) @ p_i)
    var_j = float(((idx - mu_j) ** 2) @ p_j)
    if var_i > 0 and var_j > 0:
        correlation = float(((i - mu_i) * (j - mu_j) * p).sum()
                            / np.sqrt(var_i * var_j))
    else:
        correlation = 0.0
    dev = i + j - mu_i - mu_j
    shade = float((dev ** 3 * p).sum())
    prominence = float((dev ** 4 * p).sum())
    return np.array([contrast, dissimilarity, homogeneity, asm, entropy,
                     correlation, shade, prominence])


def reference_glrlm_features(mat):
    """sre, lre, gln, rln, rp, lgre, hgre of one (levels, max_run) count matrix."""
    n_runs = mat.sum()
    if n_runs == 0:
        raise ValueError("run-length matrix has zero runs")
    lengths = np.arange(1, mat.shape[1] + 1, dtype=np.float64)
    grays = np.arange(1, mat.shape[0] + 1, dtype=np.float64)
    n_pixels = float((mat * lengths[None, :]).sum())
    by_length = mat.sum(axis=0)
    by_gray = mat.sum(axis=1)
    sre = float((by_length / lengths ** 2).sum() / n_runs)
    lre = float((by_length * lengths ** 2).sum() / n_runs)
    gln = float((by_gray ** 2).sum() / n_runs)
    rln = float((by_length ** 2).sum() / n_runs)
    rp = float(n_runs / n_pixels)
    lgre = float((by_gray / grays ** 2).sum() / n_runs)
    hgre = float((by_gray * grays ** 2).sum() / n_runs)
    return np.array([sre, lre, gln, rln, rp, lgre, hgre])

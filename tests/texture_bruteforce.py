"""Independent brute-force enumerators for co-occurrence pairs and runs.

Deliberately written as literal pixel loops with none of the vectorized
tricks used by the package kernels, so the two implementations share no
code path.
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

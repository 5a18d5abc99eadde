"""The Mann-Whitney AUC: the reference for the package's trapezoidal ROC
area, which must equal it under any ties."""

import numpy as np


def auc_mann_whitney(scores, labels):
    """(#pos-over-neg pairs + half the tied pairs) / (n_pos * n_neg)."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = np.count_nonzero(pos > neg)
    ties = np.count_nonzero(pos == neg)
    return (wins + 0.5 * ties) / (pos.size * neg.size)

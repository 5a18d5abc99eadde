"""The logistic-regression objective, the finite-difference oracle of
classifiers.lr_gradient: the package descends on the gradient alone."""

import numpy as np


def lr_loss(weights, bias, X, y, l2):
    """Mean cross-entropy of labels y under sigmoid(X w + b), plus
    (l2/2)||w||^2; the bias is not regularized."""
    z = X @ weights + bias
    # stable log(1 + exp(z)) - y z
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) \
        + 0.5 * l2 * float(weights @ weights)

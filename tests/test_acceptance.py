"""Release gate: one test per advertised guarantee, tolerances inline.

Every protocol constant here (seeds, model sizes, corpus sizes, epoch
counts) is frozen; the assertions state the guarantee and its tolerance
next to each other.  Each test ends by printing one summary line with
the measured quantity, so a run with -s reads as a checklist.
"""

import dataclasses
import json
import time

import numpy as np
from scipy.special import logsumexp

from crbm_radiomics import cli, crbm, evaluation, synth
from crbm_radiomics.classifiers import (lr_gradient, rf_fit,
                                        rf_predict_proba, svm_decision,
                                        svm_fit)
from crbm_radiomics.config import CvSection, PipelineConfig, SynthSpec
from crbm_radiomics.crbm import CrbmConfig
from crbm_radiomics.data_model import Dataset, load_manifest
from crbm_radiomics.radiomics import (glcm_compute, glrlm_compute,
                                      wavelet_decompose)
from crbm_radiomics.seeding import derive_rng

from auc_reference import auc_mann_whitney
from crbm_enumeration import (all_bit_configs, energy, exact_log_likelihood,
                              exact_log_likelihood_grad, expected_cd_cosines,
                              free_energy, random_binary_images,
                              random_tiny_model, shifted)
from lr_reference import lr_loss
from radiomics_reference import wavelet_reconstruct
from texture_bruteforce import brute_glcm, brute_glrlm


def _ok(num, label, detail):
    print(f"criterion {num:02d} {label}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Feature-map geometry and speed
# ---------------------------------------------------------------------------

def test_criterion_01_feature_map_shapes_and_speed():
    rng = np.random.default_rng(0)
    big_model = crbm.init_model(64, 5, 256, seed=0)
    small_model = crbm.init_model(64, 5, 32, seed=0)
    big = rng.random((1, 256, 256))
    small = rng.random((1, 32, 32))

    crbm.extract_feature_map(big_model, big)  # warm any JIT cache first
    start = time.perf_counter()
    big_maps = crbm.extract_feature_map(big_model, big)
    small_maps = crbm.extract_feature_map(small_model, small)
    elapsed = time.perf_counter() - start

    # a feature map is the mean of the M hidden maps, of their side
    assert crbm._hidden_probs(big_model, big).shape == (1, 64, 252, 252)
    assert crbm._hidden_probs(small_model, small).shape == (1, 64, 28, 28)
    assert big_maps.shape == (1, 252, 252)
    assert small_maps.shape == (1, 28, 28)
    assert elapsed < 1.0
    _ok(1, "shapes+speed", f"252x252 and 28x28 means of 64 maps, "
                           f"{elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Free energy and normalization against literal energy enumeration
# ---------------------------------------------------------------------------

def _log_sum_exp_neg_energy(model, vis, hid):
    """log sum_h exp(-E(v, h)) for every visible image of vis, by brute
    enumeration of the hidden maps hid."""
    return np.concatenate([
        logsumexp(-energy(model, vis[lo:lo + 4096, None], hid), axis=1)
        for lo in range(0, len(vis), 4096)])


# all combos keep the visible grid <= 4x4 and 1-2 filters <= 2x2
EXACT_COMBOS = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
                (3, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 1))


def test_criterion_02_free_energy_matches_energy_enumeration():
    n_models = 0
    worst_fe, worst_norm = 0.0, 0.0
    for combo_idx, (n, k, m) in enumerate(EXACT_COMBOS):
        side = n - k + 1
        vis = all_bit_configs(n * n).reshape(-1, n, n)
        hid = all_bit_configs(m * side * side).reshape(-1, m, side, side)
        for draw in range(7):
            rng = derive_rng(2, "exact-model", combo_idx, draw)
            model = random_tiny_model(rng, n, k, m, scale=0.5)
            log_unnorm = _log_sum_exp_neg_energy(model, vis, hid)

            picks = np.arange(len(vis)) if len(vis) <= 64 \
                else rng.choice(len(vis), size=64, replace=False)
            for idx in picks:
                free = free_energy(model, vis[idx])
                np.testing.assert_allclose(np.exp(-free),
                                           np.exp(log_unnorm[idx]),
                                           rtol=1e-9)
                worst_fe = max(worst_fe,
                               abs(np.expm1(-free - log_unnorm[idx])))

            # sum_v P(v) with Z taken from the energy enumeration and F
            # from its softplus form
            free_all = free_energy(model, vis)
            total = np.exp(-free_all - logsumexp(log_unnorm)).sum()
            assert abs(total - 1.0) < 1e-9
            worst_norm = max(worst_norm, abs(total - 1.0))
            n_models += 1
    assert n_models >= 50
    _ok(2, "exact-model oracle",
        f"{n_models} models, worst rel {worst_fe:.1e}, "
        f"worst |sum P - 1| {worst_norm:.1e}")


# ---------------------------------------------------------------------------
# 3. Exact gradient against central finite differences
# ---------------------------------------------------------------------------

FD_COMBOS = ((3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 2, 1))


def test_criterion_03_exact_gradient_matches_finite_differences():
    eps = 1e-5
    checked = 0
    worst = 0.0
    for trial in range(20):
        n, k, m = FD_COMBOS[trial % len(FD_COMBOS)]
        rng = derive_rng(3, "fd-model", trial)
        model = random_tiny_model(rng, n, k, m)
        data = random_binary_images(rng, n, 3)
        grad = exact_log_likelihood_grad(model, data)
        # parameters in the gradient's order: filters, visible, hidden bias
        fd = [(exact_log_likelihood(shifted(model, step), data)
               - exact_log_likelihood(shifted(model, -step), data)) / (2 * eps)
              for step in eps * np.eye(grad.size)]

        for got, want in zip(grad, fd):
            rel = abs(want - got) / max(abs(want), 1e-4)
            assert rel < 1e-4
            worst = max(worst, rel)
            checked += 1
    _ok(3, "gradient fidelity",
        f"20 models, {checked} components, worst rel {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. CD-k direction against the exact gradient
# ---------------------------------------------------------------------------

def test_criterion_04_cd_direction_improves_with_k():
    ks = (1, 5, 10)
    start = time.perf_counter()
    sums = np.zeros(len(ks))
    for mi in range(100):
        rng = derive_rng(11, "c4-model", mi)
        k = int(rng.integers(1, 3))
        m = 1 if k == 1 else int(rng.integers(1, 3))
        model = random_tiny_model(rng, 3, k, m)
        data = random_binary_images(rng, 3, 4)
        sums += expected_cd_cosines(model, data, ks)
    elapsed = time.perf_counter() - start
    means = sums / 100

    assert means[0] > 0.0
    assert means[1] >= means[0] - 1e-12
    assert means[2] >= means[1] - 1e-12
    assert elapsed < 60.0
    _ok(4, "CD sanity",
        "mean cosines k=1,5,10: "
        + ", ".join(f"{v:.5f}" for v in means) + f", {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. CD-1 training progress on stripe images
# ---------------------------------------------------------------------------

def test_criterion_05_training_reduces_reconstruction_error(stripe_images):
    model = crbm.init_model(4, 3, 8, seed=2)
    cfg = CrbmConfig(learning_rate=0.01, cd_steps=1, epochs=30, batch_size=16)
    start = time.perf_counter()
    _, history = crbm.train(model, stripe_images, cfg, seed=0)
    elapsed = time.perf_counter() - start

    ce = history.recon_cross_entropy
    drop = (ce[0] - ce[-1]) / ce[0]
    assert drop >= 0.20
    assert elapsed < 60.0
    _ok(5, "training progress",
        f"reconstruction CE {ce[0]:.4f} -> {ce[-1]:.4f} "
        f"(-{100 * drop:.1f}%), {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Trapezoidal AUC equals the Mann-Whitney statistic
# ---------------------------------------------------------------------------

def test_criterion_06_auc_identity_under_ties():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        trap = evaluation.auc_trapezoid(evaluation.roc_curve(scores, labels))
        rank = auc_mann_whitney(scores, labels)
        worst = max(worst, abs(trap - rank))
        assert abs(trap - rank) < 1e-9
    _ok(6, "AUC identity", f"1000 tied instances, worst gap {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. Texture matrices against brute-force enumeration; Haar round trip
# ---------------------------------------------------------------------------

# five fixed fixtures: (codes, roi, levels) covering holes, ribbons,
# diagonal structure, and a constant plateau
TEXTURE_FIXTURES = (
    (np.array([[1, 1, 2],
               [2, 2, 3],
               [3, 1, 1]]),
     np.ones((3, 3), dtype=np.uint8), 3),
    (np.array([[1, 2, 2, 1],
               [2, 0, 3, 1],
               [3, 3, 0, 2],
               [1, 2, 3, 3]]),
     np.array([[1, 1, 1, 1],
               [1, 0, 1, 1],
               [1, 1, 0, 1],
               [1, 1, 1, 1]], dtype=np.uint8), 3),
    (np.array([[1, 1, 1, 2, 2],
               [2, 2, 1, 1, 1]]),
     np.ones((2, 5), dtype=np.uint8), 2),
    (np.array([[1, 2, 3, 4, 1],
               [4, 1, 2, 3, 4],
               [3, 4, 1, 2, 3],
               [2, 3, 4, 1, 2],
               [1, 2, 3, 4, 1]]),
     np.array([[1, 0, 1, 0, 1],
               [0, 1, 1, 1, 0],
               [1, 1, 1, 1, 1],
               [0, 1, 1, 1, 0],
               [1, 0, 1, 0, 1]], dtype=np.uint8), 4),
    (np.array([[2, 2, 2],
               [2, 2, 2],
               [2, 2, 2],
               [2, 2, 2]]),
     np.ones((4, 3), dtype=np.uint8), 2),
)

TEXTURE_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))


def test_criterion_07_texture_matrices_match_brute_force():
    compared = 0
    for codes, roi, levels in TEXTURE_FIXTURES:
        codes = codes.astype(np.int32)
        for offset in TEXTURE_OFFSETS:
            pairs = brute_glcm(codes, roi, *offset, levels)
            want = pairs + pairs.T
            assert np.array_equal(glcm_compute(codes, roi, offset, levels),
                                  want / want.sum())

            runs = brute_glrlm(codes, roi, *offset, levels,
                               max(codes.shape))
            assert np.array_equal(glrlm_compute(codes, roi, offset, levels), runs)
            compared += 2

    rng = np.random.default_rng(77)
    worst_rec, worst_energy = 0.0, 0.0
    for h, w in ((6, 6), (7, 5), (8, 9), (1, 4), (11, 11)):
        image = rng.random((h, w))
        bands = wavelet_decompose(image)
        back = wavelet_reconstruct(bands)
        gap = np.abs(back[:h, :w] - image).max()
        assert gap < 1e-10
        padded_energy = (back ** 2).sum()  # reconstruction is exact above
        band_energy = sum((b ** 2).sum() for b in bands.values())
        assert abs(band_energy - padded_energy) < 1e-9
        worst_rec = max(worst_rec, gap)
        worst_energy = max(worst_energy, abs(band_energy - padded_energy))
    _ok(7, "texture oracles",
        f"{compared} matrices exact, Haar recon {worst_rec:.1e}, "
        f"energy gap {worst_energy:.1e}")


# ---------------------------------------------------------------------------
# 8. Classifier soundness
# ---------------------------------------------------------------------------

def test_criterion_08_classifiers_are_sound():
    # logistic gradient against central finite differences
    rng = np.random.default_rng(88)
    eps = 1e-6
    worst = 0.0
    for _ in range(5):
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, size=12).astype(np.float64)
        w = rng.normal(size=4)
        b = float(rng.normal())
        grad_w, grad_b = lr_gradient(w, b, X, y, l2=1e-2)
        for j in range(4):
            step = np.zeros(4)
            step[j] = eps
            hi = lr_loss(w + step, b, X, y, l2=1e-2)
            lo = lr_loss(w - step, b, X, y, l2=1e-2)
            rel = abs((hi - lo) / (2 * eps) - grad_w[j]) \
                / max(abs((hi - lo) / (2 * eps)), 1e-4)
            assert rel < 1e-4
            worst = max(worst, rel)
        hi = lr_loss(w, b + eps, X, y, l2=1e-2)
        lo = lr_loss(w, b - eps, X, y, l2=1e-2)
        rel = abs((hi - lo) / (2 * eps) - grad_b) \
            / max(abs((hi - lo) / (2 * eps)), 1e-4)
        assert rel < 1e-4
        worst = max(worst, rel)

    # forest on a noiseless single-feature threshold rule
    X = rng.random((400, 6))
    y = (X[:, 2] > 0.5).astype(np.float64)
    forest = rf_fit(X[:300], y[:300], n_trees=50, seed=8)
    held_out = rf_predict_proba(forest, X[300:])
    forest_auc = auc_mann_whitney(held_out, y[300:])
    assert forest_auc >= 0.95

    # margin classifier on two well-separated Gaussian clouds
    n_half = 60
    X = np.vstack([rng.normal(2.0, 0.5, size=(n_half, 4)),
                   rng.normal(-2.0, 0.5, size=(n_half, 4))])
    y = np.concatenate([np.ones(n_half), -np.ones(n_half)])
    margin_model = svm_fit(X, y, C=1.0, epochs=200, seed=9)
    margins = y * svm_decision(margin_model, X)
    assert margins.min() >= 0.0
    _ok(8, "classifier soundness",
        f"LR worst rel {worst:.1e}, RF held-out AUC {forest_auc:.3f}, "
        f"SVM min margin {margins.min():.3f}")


# ---------------------------------------------------------------------------
# 9. End-to-end comparison on the synthetic corpus
# ---------------------------------------------------------------------------

def test_criterion_09_end_to_end_surrogate(tmp_path):
    start = time.perf_counter()
    spec = SynthSpec(n_per_class=200, image_size=32, seed=2026)
    dataset = load_manifest(synth.generate(spec, tmp_path / "corpus"))

    patch_config = PipelineConfig(
        feature_source="crbm-patch",
        crbm=CrbmConfig(num_filters=16, kernel_size=5, input_size=16,
                        learning_rate=0.05, epochs=5, batch_size=16),
        patch_stride=8, pls_components=20, cv=CvSection(k=4), seed=2026)
    patch_auc = evaluation.cross_validate(patch_config, dataset)["auc"]

    radiomics_config = PipelineConfig(feature_source="radiomics",
                                      pls_components=20,
                                      cv=CvSection(k=4), seed=2026)
    radiomics_auc = evaluation.cross_validate(radiomics_config, dataset)["auc"]

    perm = derive_rng(2026, "permute").permutation(len(dataset))
    labels = [dataset.records[i].label for i in perm]
    shuffled = Dataset(records=tuple(
        dataclasses.replace(r, label=labels[i])
        for i, r in enumerate(dataset.records)))
    null_auc = evaluation.cross_validate(radiomics_config, shuffled)["auc"]
    elapsed = time.perf_counter() - start

    assert patch_auc >= 0.9
    assert radiomics_auc >= 0.85
    assert 0.4 <= null_auc <= 0.6
    assert elapsed < 600.0
    _ok(9, "end-to-end surrogate",
        f"crbm-patch {patch_auc:.3f}, radiomics {radiomics_auc:.3f}, "
        f"permuted {null_auc:.3f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 10. Byte-identical reports under a repeated seed
# ---------------------------------------------------------------------------

def test_criterion_10_reports_are_byte_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"n_per_class": 10, "image_size": 32, "seed": 77}))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "feature_source": "crbm-patch",
        "crbm": {"num_filters": 4, "kernel_size": 5, "input_size": 16,
                 "epochs": 2, "learning_rate": 0.05},
        "patch_stride": 8,
        "pls_components": 4,
        "cv": {"k": 3},
        "seed": 21,
    }))
    assert cli.main(["synth", "--config", str(spec_path),
                     "--out", str(tmp_path / "corpus")]) == 0
    manifest = str(tmp_path / "corpus" / "manifest.csv")

    reports = []
    for rep in ("a", "b"):
        out = tmp_path / f"report_{rep}.json"
        assert cli.main(["run", "--config", str(config_path),
                         "--manifest", manifest, "--out", str(out)]) == 0
        reports.append((out.read_bytes(),
                        out.with_suffix(".roc.csv").read_bytes()))
    assert reports[0] == reports[1]
    _ok(10, "determinism",
        f"repeated run identical ({len(reports[0][0])} report bytes, "
        f"{len(reports[0][1])} ROC bytes)")

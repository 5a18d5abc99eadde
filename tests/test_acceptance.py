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
from crbm_radiomics.classifiers import (lr_loss_and_grad, rf_fit,
                                        rf_predict_proba, svm_decision,
                                        svm_fit)
from crbm_radiomics.config import CvSection, PipelineConfig, SynthSpec
from crbm_radiomics.crbm import CrbmConfig, CrbmModel
from crbm_radiomics.data_model import Dataset, load_manifest
from crbm_radiomics.radiomics import (glcm_compute, glrlm_compute,
                                      wavelet_decompose, wavelet_reconstruct)
from crbm_radiomics.seeding import derive_rng

from gibbs_enumeration import expected_cd_cosines, flatten
from texture_bruteforce import brute_glcm, brute_glrlm


def _ok(num, label, detail):
    print(f"criterion {num:02d} {label}: PASS ({detail})")


def _tiny_model(rng, n, k, m, scale=0.8):
    return CrbmModel(filters=rng.normal(0, scale, size=(m, k, k)),
                     visible_bias=float(rng.normal(0, 0.3)),
                     hidden_biases=rng.normal(0, 0.3, size=m),
                     input_size=n)


def _binary_image(rng, n):
    return (rng.random((n, n)) < 0.5).astype(np.float64)


def _bit_configs(n_bits):
    ints = np.arange(1 << n_bits, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(n_bits, dtype=np.uint32)) & 1) \
        .astype(np.float64)


# ---------------------------------------------------------------------------
# 1. Feature-map geometry and speed
# ---------------------------------------------------------------------------

def test_criterion_01_feature_map_shapes_and_speed():
    rng = np.random.default_rng(0)
    big_model = crbm.init_model(64, 5, 256, seed=0)
    small_model = crbm.init_model(64, 5, 32, seed=0)
    big = rng.random((256, 256))
    small = rng.random((32, 32))

    crbm.extract_feature_map(big_model, big)  # warm any JIT cache first
    start = time.perf_counter()
    big_maps = crbm.extract_feature_map(big_model, big)
    small_maps = crbm.extract_feature_map(small_model, small)
    elapsed = time.perf_counter() - start

    assert big_maps.shape == (64, 252, 252)
    assert small_maps.shape == (64, 28, 28)
    assert elapsed < 1.0
    _ok(1, "shapes+speed", f"252x252x64 and 28x28x64, {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Free energy and normalization against literal energy enumeration
# ---------------------------------------------------------------------------

def _dense_weights(model):
    """Hidden-unit x visible-pixel weight matrix, built by filter placement."""
    n, k, side = model.input_size, model.kernel_size, model.hidden_side
    out = np.zeros((model.num_filters * side * side, n * n))
    row = 0
    for m in range(model.num_filters):
        for r in range(side):
            for c in range(side):
                for i in range(k):
                    for j in range(k):
                        out[row, (r + i) * n + (c + j)] = model.filters[m, i, j]
                row += 1
    return out


def _log_sum_exp_neg_energy(model, vis, hid):
    """log sum_h exp(-E(v, h)) for every visible row, by brute enumeration."""
    weights = _dense_weights(model)
    biases = np.repeat(model.hidden_biases, model.hidden_side ** 2)
    out = np.empty(vis.shape[0])
    for lo in range(0, vis.shape[0], 4096):
        chunk = vis[lo:lo + 4096]
        acts = chunk @ weights.T + biases
        neg_e = acts @ hid.T + model.visible_bias * chunk.sum(axis=1)[:, None]
        out[lo:lo + 4096] = logsumexp(neg_e, axis=1)
    return out


# all combos keep the visible grid <= 4x4 and 1-2 filters <= 2x2
EXACT_COMBOS = ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
                (3, 1, 1), (3, 2, 1), (3, 2, 2), (4, 2, 1))


def test_criterion_02_free_energy_matches_energy_enumeration():
    n_models = 0
    worst_fe, worst_norm = 0.0, 0.0
    for combo_idx, (n, k, m) in enumerate(EXACT_COMBOS):
        side = n - k + 1
        vis = _bit_configs(n * n)
        hid = _bit_configs(m * side * side)
        for draw in range(7):
            rng = derive_rng(2, "exact-model", combo_idx, draw)
            model = _tiny_model(rng, n, k, m, scale=0.5)
            log_unnorm = _log_sum_exp_neg_energy(model, vis, hid)

            picks = np.arange(vis.shape[0]) if vis.shape[0] <= 64 \
                else rng.choice(vis.shape[0], size=64, replace=False)
            for idx in picks:
                image = vis[idx].reshape(n, n)
                free = crbm.free_energy(model, image)
                np.testing.assert_allclose(np.exp(-free),
                                           np.exp(log_unnorm[idx]),
                                           rtol=1e-9)
                worst_fe = max(worst_fe,
                               abs(np.expm1(-free - log_unnorm[idx])))

            # sum_v P(v) with Z taken from the enumeration, F from the
            # package; state order inside the sum is irrelevant
            free_all = crbm._enumerated_free_energies(model)
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
        model = _tiny_model(rng, n, k, m)
        data = np.stack([_binary_image(rng, n) for _ in range(3)])
        grad = flatten(crbm.exact_log_likelihood_grad(model, data))

        def ll(df=0.0, db=0.0, dc=0.0):
            shifted = CrbmModel(filters=model.filters + df,
                                visible_bias=model.visible_bias + db,
                                hidden_biases=model.hidden_biases + dc,
                                input_size=n)
            return crbm.exact_log_likelihood(shifted, data)

        fd = []
        for flat in range(m * k * k):
            step = np.zeros_like(model.filters)
            step.ravel()[flat] = eps
            fd.append((ll(df=step) - ll(df=-step)) / (2 * eps))
        fd.append((ll(db=eps) - ll(db=-eps)) / (2 * eps))
        for mi in range(m):
            step = np.zeros(m)
            step[mi] = eps
            fd.append((ll(dc=step) - ll(dc=-step)) / (2 * eps))

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
        model = CrbmModel(filters=rng.normal(0, 0.8, size=(m, k, k)),
                          visible_bias=float(rng.normal(0, 0.3)),
                          hidden_biases=rng.normal(0, 0.3, size=m),
                          input_size=3)
        data = np.stack([_binary_image(rng, 3) for _ in range(4)])
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
        rank = evaluation.auc_mann_whitney(scores, labels)
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
        _, grad_w, grad_b = lr_loss_and_grad(w, b, X, y, l2=1e-2)
        for j in range(4):
            step = np.zeros(4)
            step[j] = eps
            hi, _, _ = lr_loss_and_grad(w + step, b, X, y, l2=1e-2)
            lo, _, _ = lr_loss_and_grad(w - step, b, X, y, l2=1e-2)
            rel = abs((hi - lo) / (2 * eps) - grad_w[j]) \
                / max(abs((hi - lo) / (2 * eps)), 1e-4)
            assert rel < 1e-4
            worst = max(worst, rel)
        hi, _, _ = lr_loss_and_grad(w, b + eps, X, y, l2=1e-2)
        lo, _, _ = lr_loss_and_grad(w, b - eps, X, y, l2=1e-2)
        rel = abs((hi - lo) / (2 * eps) - grad_b) \
            / max(abs((hi - lo) / (2 * eps)), 1e-4)
        assert rel < 1e-4
        worst = max(worst, rel)

    # forest on a noiseless single-feature threshold rule
    X = rng.random((400, 6))
    y = (X[:, 2] > 0.5).astype(np.float64)
    forest = rf_fit(X[:300], y[:300], n_trees=50, seed=8)
    held_out = rf_predict_proba(forest, X[300:])
    forest_auc = evaluation.auc_mann_whitney(held_out, y[300:])
    assert forest_auc >= 0.95

    # margin classifier on two well-separated Gaussian clouds
    n_half = 60
    X = np.vstack([rng.normal(2.0, 0.5, size=(n_half, 4)),
                   rng.normal(-2.0, 0.5, size=(n_half, 4))])
    y = np.concatenate([np.ones(n_half), -np.ones(n_half)])
    margin_model, _ = svm_fit(X, y, C=1.0, epochs=200, seed=9)
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

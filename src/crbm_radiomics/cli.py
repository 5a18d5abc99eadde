"""Command-line driver: synth | train-crbm | extract | run.

Every command reads a JSON config and writes its primary outputs to the
--out path; reruns with identical inputs and seeds are byte-identical.
Exit status: 0 success, 1 runtime or data error, 2 usage or config error.
Every command holds numpy's OpenBLAS at one thread while it runs
(blas.one_thread), so the outputs do not depend on OPENBLAS_NUM_THREADS.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, blas, crbm, evaluation, features, synth
from .config import (config_echo, load_pipeline_config, load_synth_spec)
from .data_model import load_manifest
from .errors import ConfigError, PipelineError


def _write_json(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _float_cell(v: float) -> str:
    return repr(float(v))


def cmd_synth(args) -> int:
    spec = load_synth_spec(args.config)
    manifest = synth.generate(spec, args.out)
    print(f"wrote {2 * spec.n_per_class} samples under {args.out} "
          f"(manifest: {manifest})")
    return 0


def cmd_train_crbm(args) -> int:
    config = load_pipeline_config(args.config)
    dataset = load_manifest(args.manifest)
    model, history = evaluation.train_crbm_for(config, dataset)
    crbm.save_model(model, args.out)
    history_path = Path(args.out).with_suffix(".history.csv")
    with open(history_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "recon_cross_entropy", "mean_abs_dw"])
        for epoch, (ce, dw) in enumerate(zip(history.recon_cross_entropy,
                                             history.mean_abs_dw)):
            writer.writerow([epoch, _float_cell(ce), _float_cell(dw)])
    print(f"trained CRBM ({model.num_filters} filters "
          f"{model.kernel_size}x{model.kernel_size}) -> {args.out}")
    return 0


def _load_model(path, config):
    """The --model file, refused unless its sizes are the config's, and
    under feature_source radiomics, which reads no model."""
    if config.feature_source == "radiomics":
        raise ConfigError("--model is given, but feature_source 'radiomics' "
                          "uses no CRBM")
    model = crbm.load_model(path)
    wrong = [f"{name} {getattr(model, name)} (config {getattr(config.crbm, name)})"
             for name in ("num_filters", "kernel_size", "input_size")
             if getattr(model, name) != getattr(config.crbm, name)]
    if wrong:
        raise ConfigError(f"{path}: model does not match the config's crbm "
                          f"section: {', '.join(wrong)}")
    return model


def cmd_extract(args) -> int:
    config = load_pipeline_config(args.config)
    dataset = load_manifest(args.manifest)
    model = _load_model(args.model, config) if args.model else None
    fm = features.build_features(dataset, config, model)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "patient_id",
                         *features.column_names(config, model), "label"])
        patches = config.feature_source == "crbm-patch"
        first = np.searchsorted(fm.records, fm.records)  # row's record's first row
        for row, (i, values) in enumerate(zip(fm.records, fm.values)):
            record = dataset.records[i]
            row_id = (f"{record.sample_id}#p{row - first[row]}" if patches
                      else record.sample_id)
            writer.writerow([row_id, record.patient_id,
                             *(_float_cell(v) for v in values), record.label])
    print(f"wrote {fm.n_rows} x {fm.n_columns} feature matrix -> {args.out}")
    return 0


def cmd_run(args) -> int:
    config = load_pipeline_config(args.config)
    dataset = load_manifest(args.manifest)
    model = _load_model(args.model, config) if args.model else None
    report = evaluation.cross_validate(config, dataset, model)
    doc = {
        "package_version": __version__,
        "config": config_echo(config),
        "report": report,
    }
    _write_json(args.out, doc)
    roc_path = Path(args.out).with_suffix(".roc.csv")
    with open(roc_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for x, y in zip(report["roc"]["fpr"], report["roc"]["tpr"]):
            writer.writerow([_float_cell(x), _float_cell(y)])
    print(f"AUC {report['auc']:.4f} ({config.feature_source} + "
          f"{config.classifier.kind}) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiomics-crbm",
        description="Texture-based response prediction: convolutional RBM "
                    "features or hand-crafted radiomics, PLS reduction, "
                    "and cross-validated ROC evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-class corpus")
    p.add_argument("--config", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-crbm", help="train the CRBM unsupervised")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--manifest", required=True, help="sample manifest CSV")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train_crbm)

    p = sub.add_parser("extract", help="write the feature matrix CSV")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--manifest", required=True, help="sample manifest CSV")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--model", help="trained CRBM (required for crbm sources)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("run", help="cross-validated end-to-end evaluation")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--manifest", required=True, help="sample manifest CSV")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--model", help="reuse a trained CRBM instead of training")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with blas.one_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"radiomics-crbm: config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError, ValueError) as exc:
        print(f"radiomics-crbm: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"radiomics-crbm: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

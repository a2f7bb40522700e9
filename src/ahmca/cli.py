"""Command-line entry point: train / eval / predict / gen-synth / inspect.

Exit codes: 0 success, 1 internal error, 2 usage or input error,
3 taxonomy / corpus validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .corpus import (
    SynthSpec,
    generate_synthetic,
    load_corpus,
    make_unlabeled_document,
    read_documents,
    save_corpus,
)
from .embedding import load_embeddings, random_table, save_embeddings
from .errors import (
    AhmcaError,
    ConfigError,
    CheckpointError,
    CorpusError,
    EmbeddingError,
    NonFiniteError,
    TaxonomyError,
    TooFewDocumentsError,
)
from .taxonomy import load_taxonomy, tokenize
from .training import (
    CHECKPOINT_VERSION,
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    load_config,
    predict as decode_prediction,
    save_checkpoint,
    train,
)


def _positive_int(text):
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_ints(text):
    return tuple(_positive_int(x) for x in text.split(","))


def _finite_float(text):
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _build_parser():
    p = argparse.ArgumentParser(prog="ahmca", description="Hierarchical multi-label "
                                "text classifier with label-splicing attention")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config", required=False, help="JSON config file")
    t.add_argument("--train", required=True, dest="train_path")
    t.add_argument("--val", required=True)
    t.add_argument("--taxonomy", required=True)
    t.add_argument("--embeddings", help="word2vec text file; omit for seeded random init")
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--history", required=True, help="history CSV output path")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--k", type=_positive_ints, default=(1, 3, 5),
                   help="comma-separated k values")
    e.add_argument("--out", help="write the metrics JSON here as well")

    pr = sub.add_parser("predict", help="classify documents from a JSONL file")
    pr.add_argument("--model", required=True)
    pr.add_argument("--input", required=True, help="JSONL documents (labels optional)")
    pr.add_argument("--top", type=_positive_int, default=5)
    pr.add_argument("--threshold", type=_finite_float, default=0.5)

    gs = sub.add_parser("gen-synth", help="generate a synthetic benchmark")
    gs.add_argument("--spec", required=True, help="SynthSpec JSON file")
    gs.add_argument("--out-dir", required=True)
    gs.add_argument("--seed", type=int, help="override the spec's seed")

    ins = sub.add_parser("inspect", help="check a checkpoint, print its parameter shapes")
    ins.add_argument("--model", required=True)
    return p


def _read(path, text=True):
    try:
        return Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
    except UnicodeDecodeError as e:
        print(f"error: {path} is not UTF-8 text: {e}", file=sys.stderr)
    raise SystemExit(2)


def _load_model(path):
    """The checkpoint at path, the model it builds and its taxonomy."""
    ckpt = load_checkpoint(_read(path, text=False))
    return (ckpt, *ckpt.build_model())


def _prepare(path, directory=False):
    """Make path a directory, parents included; or, for a file path, check
    that it is not a directory and that a file can be made in its
    directory, leaving nothing behind."""
    try:
        if directory:
            Path(path).mkdir(parents=True, exist_ok=True)
        elif Path(path).is_dir():
            raise IsADirectoryError("it is a directory")
        else:
            tempfile.TemporaryFile(dir=Path(path).parent).close()
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _write(*outputs):
    """Write every (path, data) pair, a str as UTF-8 text and bytes as they
    are, or none: each goes to a temporary file in its path's directory,
    and only when all are written are they moved into place with
    os.replace.  On an OSError the temporary files and any output already
    moved are removed, and it exits 2 naming the path."""
    temps, moved = [], []
    try:
        for path, data in outputs:
            path = Path(path)
            tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
            with tmp.open("xb") as f:       # a new file, with the mode a plain write gives
                temps.append(tmp)
                f.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
            moved.append(path)
    except OSError as e:
        for leftover in temps + moved:
            Path(leftover).unlink(missing_ok=True)
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_train(args):
    cfg = load_config(_read(args.config)) if args.config else TrainConfig()
    tax = load_taxonomy(_read(args.taxonomy))
    train_c = load_corpus(_read(args.train_path), tax)
    val_c = load_corpus(_read(args.val), tax)
    if args.embeddings:
        table = load_embeddings(_read(args.embeddings))
    else:   # label text too, or every label word would share the unk row
        vocab = sorted({t for d in train_c for t in d.tokens}
                       | {t for d in val_c for t in d.tokens}
                       | {t for lab in tax.labels for t in tokenize(lab.text)})
        table = random_table(vocab, cfg.k, cfg.seed)
    for path in (args.out, args.history):   # before training, not after it
        _prepare(path)
    ckpt, history = train(cfg, train_c, val_c, tax, table, log=print)
    _write((args.out, save_checkpoint(ckpt)), (args.history, history.to_csv()))
    print(f"wrote {args.out} and {args.history}")
    return 0


def _cmd_eval(args):
    _, model, tax = _load_model(args.model)
    data = load_corpus(_read(args.data), tax)
    if not data.documents:
        raise TooFewDocumentsError(f"{args.data} has no documents")
    report = evaluate_model(model, data, ks=args.k)
    text = report.to_json()
    print(text)
    if args.out:
        _write((args.out, text + "\n"))
    return 0


def _cmd_predict(args):
    _, model, tax = _load_model(args.model)
    docs = [doc for _, doc in read_documents(_read(args.input), tax, make_unlabeled_document)]
    with model.scoring(docs):
        for doc in docs:
            out = decode_prediction(model, doc, top_n=args.top, threshold=args.threshold)
            print(json.dumps({
                "id": doc.id,
                "top_leaves": out["top_leaves"],
                "level_sets": out["level_sets"],
            }, ensure_ascii=False))
    return 0


def _cmd_gen_synth(args):
    spec = SynthSpec.from_json(_read(args.spec))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    tax, corpus, table = generate_synthetic(spec)
    out = Path(args.out_dir)
    _prepare(out, directory=True)
    _write((out / "taxonomy.json", tax.serialize() + "\n"),
           (out / "corpus.jsonl", save_corpus(corpus)),
           (out / "embeddings.txt", save_embeddings(table)))
    print(f"wrote taxonomy.json, corpus.jsonl, embeddings.txt to {out}")
    return 0


def _cmd_inspect(args):
    ckpt, model, _ = _load_model(args.model)     # the checks eval and predict run
    print(f"version: {CHECKPOINT_VERSION}")
    print(f"taxonomy_hash: {ckpt.taxonomy_hash}")
    print(f"labels: {len(ckpt.label_order)}")
    print(f"config: {json.dumps(ckpt.config.to_dict(), sort_keys=True)}")
    for name, shape in model.shapes.items():
        print(f"array {name} shape={list(shape)}")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gen-synth": _cmd_gen_synth,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except (TaxonomyError, CorpusError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 3
    # a NonFiniteError is a training run that diverged: its config must change
    except (ConfigError, EmbeddingError, CheckpointError, NonFiniteError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except AhmcaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

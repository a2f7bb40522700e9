"""Print SHA-256 hashes of the generated data and of what training and a
served model produce, so two source trees can be compared byte for byte.

    python3 tools/byte_hashes.py [--root DIR] > hashes.txt
    python3 tools/byte_hashes.py --expect hashes.txt

With --expect FILE it prints the lines as well, then compares them with
FILE, an earlier output: it exits 1 and prints the lines that differ, as a
unified diff on stderr, or says on stderr that every line matched.

Imports ahmca from DIR/src and the benchmark specs from DIR/bench (default:
the tree this file is in), and exits with an error if either resolves to
another copy, so the same script can be run against another
checkout and the two outputs diffed.  For each config it prints one line
for its generated data (the SHA-256 of the taxonomy's serialize(), the
save_corpus text and the embedding vectors' float32 bytes, in that order),
then trains on the (3, 1, 1) split of that data and prints one line per
artifact: the save_checkpoint bytes, History.to_csv(), the predict
outputs (fused-score bytes, top leaves and level sets) of every test
document on the model that load_checkpoint -> build_model serves, at
threshold 0.5 and at 0.0, where every label is picked, and
evaluate_model(model, test, ks=(1, 3)).to_json().
Every config but "ragged" trains on the documents of its spec, which all
have one shape; "ragged" mixes token and keyword counts in every batch.
"reference-long" takes 800 optimizer steps (200 epochs of 4), so Adam's
first-moment flush, every 64th step, runs, and from step 512 zeroes some
m elements.
OpenBLAS is pinned to one thread, since the float32 products may round
differently with more.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"       # before NumPy loads

import argparse
import difflib
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path


def synthetic(spec, workloads, corpus):
    return corpus.generate_synthetic(spec)


def ragged(spec, workloads, corpus):
    """spec's taxonomy and vocabulary with 60 documents of 3 to 24 tokens
    (workloads.ragged_queries), every third without its keywords."""
    tax, data, table = corpus.generate_synthetic(spec)
    docs = workloads.ragged_queries(spec, 60, 2, 24, spec.seed).documents
    docs = [replace(d, keywords=()) if i % 3 == 0 else d for i, d in enumerate(docs)]
    return tax, replace(data, documents=tuple(docs)), table


def configs(workloads, TrainConfig):
    ref = workloads.REFERENCE_CFG
    yield "reference", workloads.REFERENCE_SPEC, ref, synthetic
    yield ("reference-frozen", workloads.REFERENCE_SPEC, replace(ref, freeze_embeddings=True),
           synthetic)
    yield ("reference-softmax", workloads.REFERENCE_SPEC, replace(ref, attention_mode="softmax"),
           synthetic)
    yield ("reference-none", workloads.REFERENCE_SPEC, replace(ref, attention_mode="none"),
           synthetic)
    yield "wide-2ep", workloads.WIDE_SPEC, TrainConfig(epochs=2), synthetic
    yield "accept-1ep", workloads.ACCEPT_SPEC, TrainConfig(epochs=1), synthetic
    yield "ragged", workloads.REFERENCE_SPEC, replace(ref, batch_size=8), ragged
    yield ("reference-long", workloads.REFERENCE_SPEC,
           replace(ref, epochs=200, early_stop_patience=200), synthetic)


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="source tree to import ahmca and bench/workloads.py from")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="an earlier output to compare with; exit 1 if a line differs")
    args = ap.parse_args()
    root = args.root.resolve()
    expected = args.expect.read_text().splitlines() if args.expect else None
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    sys.dont_write_bytecode = True      # leave both trees as they are

    import ahmca
    import workloads
    from ahmca import corpus, training

    for module, home in ((ahmca, root / "src"), (workloads, root / "bench")):
        if not Path(module.__file__).resolve().is_relative_to(home):
            sys.exit(f"byte_hashes: {module.__name__} resolved to {module.__file__}, "
                     f"not under {home}")

    lines = []

    def emit(*words):
        lines.append(" ".join(words))
        print(lines[-1], flush=True)

    for name, spec, cfg, make in configs(workloads, training.TrainConfig):
        tax, data, table = make(spec, workloads, corpus)
        generated = hashlib.sha256()
        for part in (tax.serialize().encode(), corpus.save_corpus(data).encode(),
                     table.vectors.tobytes()):
            generated.update(part)
        emit(name, "data", generated.hexdigest())
        tr, va, te = corpus.split(data, (3, 1, 1), seed=spec.seed)
        ckpt, hist = training.train(cfg, tr, va, tax, table)
        blob = training.save_checkpoint(ckpt)
        model, _ = training.load_checkpoint(blob).build_model()
        emit(name, "checkpoint", sha(blob))
        emit(name, "history", sha(hist.to_csv()))
        for threshold in (0.5, 0.0):
            h = hashlib.sha256()
            for doc in te:
                out = training.predict(model, doc, threshold=threshold)
                h.update(out["fused_scores"].tobytes())
                h.update(json.dumps([out["top_leaves"], out["level_sets"]]).encode())
            emit(name, f"predict@{threshold}", h.hexdigest())
        emit(name, "evaluate", sha(training.evaluate_model(model, te, ks=(1, 3)).to_json()))

    if expected is not None:
        diff = list(difflib.unified_diff(expected, lines, str(args.expect), "this run",
                                         n=0, lineterm=""))
        if diff:
            print("\n".join(diff), file=sys.stderr)
            sys.exit(1)
        print(f"byte_hashes: all {len(lines)} lines equal {args.expect}", file=sys.stderr)


if __name__ == "__main__":
    main()

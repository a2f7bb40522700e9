import errno
import itertools
import json
import os
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from checkpoint_cases import BUILD_CASES, LOAD_CASES, edit_meta, reseal
from hypothesis import given, settings
from hypothesis import strategies as st

from ahmca.cli import main
from ahmca.corpus import SynthSpec, load_corpus, make_unlabeled_document, read_documents
from ahmca.attention import MODES
from ahmca.errors import (
    AhmcaError,
    CheckpointError,
    ConfigError,
    CorpusError,
    SpecInvalidError,
    TaxonomyError,
)
from ahmca.taxonomy import load_taxonomy
from ahmca.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    load_checkpoint,
    load_config,
    predict,
)

SPEC = {
    "level_sizes": [2, 2], "docs_per_leaf": 4, "doc_length": 5,
    "keywords_per_doc": 1, "leaf_vocab_size": 5, "noise_rate": 0.0,
    "seed": 3, "embedding_dim": 4,
}

CONFIG = {
    "k": 4, "g": 16, "d_L": 16, "epochs": 15, "batch_size": 4,
    "learning_rate": 0.01, "seed": 0, "early_stop_patience": 50,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synth then train once; later tests reuse the checkpoint."""
    ws = tmp_path_factory.mktemp("cli")
    spec = ws / "spec.json"
    spec.write_text(json.dumps(SPEC))
    assert main(["gen-synth", "--spec", str(spec), "--out-dir", str(ws / "data")]) == 0

    lines = (ws / "data" / "corpus.jsonl").read_text().strip().splitlines()
    train = [ln for i, ln in enumerate(lines) if i % 4 != 0]
    val = [ln for i, ln in enumerate(lines) if i % 4 == 0]
    (ws / "train.jsonl").write_text("\n".join(train) + "\n")
    (ws / "val.jsonl").write_text("\n".join(val) + "\n")
    (ws / "config.json").write_text(json.dumps(CONFIG))

    rc = main([
        "train",
        "--config", str(ws / "config.json"),
        "--train", str(ws / "train.jsonl"),
        "--val", str(ws / "val.jsonl"),
        "--taxonomy", str(ws / "data" / "taxonomy.json"),
        "--embeddings", str(ws / "data" / "embeddings.txt"),
        "--out", str(ws / "model.bin"),
        "--history", str(ws / "history.csv"),
    ])
    assert rc == 0
    return ws


def test_gen_synth_outputs(workspace):
    for name in ("taxonomy.json", "corpus.jsonl", "embeddings.txt"):
        assert (workspace / "data" / name).exists()
    tax = json.loads((workspace / "data" / "taxonomy.json").read_text())
    assert len(tax["labels"]) == 4


def test_train_outputs(workspace):
    assert (workspace / "model.bin").read_bytes()[:8] == b"AHMCAMDL"
    hist = (workspace / "history.csv").read_text().splitlines()
    assert hist[0] == "epoch,train_loss,val_macro_f1_at_1,val_p_at_1"
    assert len(hist) > 1


def test_eval(workspace, capsys):
    rc = main(["eval", "--model", str(workspace / "model.bin"),
               "--data", str(workspace / "val.jsonl"), "--k", "1,2",
               "--out", str(workspace / "metrics.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["p_at_k"]) == {"1", "2"}
    assert out["macro_f1"] >= 0.9
    assert json.loads((workspace / "metrics.json").read_text()) == out


def test_predict(workspace, capsys):
    q = workspace / "query.jsonl"
    first = json.loads((workspace / "val.jsonl").read_text().splitlines()[0])
    q.write_text(json.dumps({"id": "q1", "title": first["title"],
                             "abstract": first["abstract"]}) + "\n")
    rc = main(["predict", "--model", str(workspace / "model.bin"),
               "--input", str(q), "--top", "2"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["id"] == "q1"
    assert len(rec["top_leaves"]) == 2
    assert len(rec["level_sets"]) == 2


def test_inspect(workspace, capsys):
    rc = main(["inspect", "--model", str(workspace / "model.bin")])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"version: {CHECKPOINT_VERSION}" in out
    assert "taxonomy_hash:" in out
    ckpt = load_checkpoint((workspace / "model.bin").read_bytes())
    arrays = [line for line in out.splitlines() if line.startswith("array ")]
    shapes = [json.loads(line.split("shape=")[1]) for line in arrays]
    assert sum(int(np.prod(shape)) for shape in shapes) == len(ckpt.flat)
    V, k = len(ckpt.embedding_tokens), ckpt.config.k
    assert out.splitlines()[-1] == f"array embedding.table shape=[{V + 1}, {k}]"


def test_usage_error_exit_2(capsys):
    assert main(["eval"]) == 2               # missing required flags
    assert main(["no-such-command"]) == 2
    for k in ("0", "abc", "1,,-2"):
        assert main(["eval", "--model", "m.bin", "--data", "d.jsonl", "--k", k]) == 2, k
    for top in ("-1", "0", "x"):
        assert main(["predict", "--model", "m.bin", "--input", "q.jsonl", "--top", top]) == 2, top
    for threshold in ("nan", "inf", "-inf", "NaN", "x"):
        assert main(["predict", "--model", "m.bin", "--input", "q.jsonl",
                     f"--threshold={threshold}"]) == 2, threshold
        assert "expected a finite number" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    rc = main(["inspect", "--model", str(tmp_path / "nope.bin")])
    assert rc == 2


def _assert_cannot_write(argv, path, capsys):
    """Returns what the command printed to stdout."""
    assert main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {path}: ")
    return out


def test_unwritable_train_out_exit_2(workspace, tmp_path, capsys):
    """An output that cannot be written is refused before the first epoch,
    and neither output is left behind."""
    for flag, path in (("--out", tmp_path / "nodir" / "m.bin"),
                       ("--history", tmp_path / "nodir" / "h.csv"), ("--out", tmp_path)):
        out = _assert_cannot_write(_train_args(workspace, tmp_path) + [flag, str(path)],
                                   path, capsys)
        assert "epoch" not in out, flag
        assert not (tmp_path / "m.bin").exists() and not (tmp_path / "h.csv").exists()


class _FullDisk:
    """A file whose writes fail as on a full disk."""
    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_train_writes_both_outputs_or_neither(workspace, tmp_path, capsys, monkeypatch):
    """When the history cannot be written after training, the checkpoint is
    not left either, nor any temporary file; the same when the history
    cannot be moved into place after the checkpoint was."""
    out, hist = tmp_path / "o" / "m.bin", tmp_path / "h" / "h.csv"
    out.parent.mkdir()
    hist.parent.mkdir()
    argv = _train_args(workspace, tmp_path) + ["--out", str(out), "--history", str(hist)]
    real_open, real_replace = Path.open, os.replace

    def open_history_on_full_disk(self, *args, **kwargs):
        f = real_open(self, *args, **kwargs)
        return _FullDisk(f) if "h.csv" in self.name else f     # or its temporary file

    def replace_refusing_history(src, dst):
        if Path(dst) == hist:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        real_replace(src, dst)

    for target, fake in ((Path, open_history_on_full_disk), (os, replace_refusing_history)):
        with monkeypatch.context() as patch:
            patch.setattr(target, "open" if target is Path else "replace", fake)
            _assert_cannot_write(argv, hist, capsys)
        assert not any(out.parent.iterdir()) and not any(hist.parent.iterdir()), fake
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["h.csv", "m.bin"]


def test_unwritable_eval_out_exit_2(workspace, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.json"
    _assert_cannot_write(["eval", "--model", str(workspace / "model.bin"),
                          "--data", str(workspace / "val.jsonl"), "--k", "1", "--out", str(out)],
                         out, capsys)


def test_unwritable_gen_synth_out_dir_exit_2(workspace, tmp_path, capsys):
    spec = workspace / "spec.json"
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    for out_dir in (afile, afile / "sub"):
        _assert_cannot_write(["gen-synth", "--spec", str(spec), "--out-dir", str(out_dir)],
                             out_dir, capsys)


def test_bad_checkpoint_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage garbage garbage")
    assert main(["inspect", "--model", str(bad)]) == 2
    good = (workspace / "model.bin").read_bytes()
    for case, corrupt in LOAD_CASES.items():
        bad.write_bytes(corrupt(good))
        assert main(["inspect", "--model", str(bad)]) == 2, case
    for case, corrupt in BUILD_CASES.items():
        bad.write_bytes(corrupt(good))
        rc = main(["eval", "--model", str(bad), "--data", str(workspace / "val.jsonl")])
        assert rc == 2, case
        rc = main(["predict", "--model", str(bad), "--input", str(workspace / "val.jsonl")])
        assert rc == 2, case
        assert main(["inspect", "--model", str(bad)]) == 2, case
    bad.write_bytes(good[:8] + struct.pack("<I", 1) + good[12:])
    assert main(["inspect", "--model", str(bad)]) == 2
    assert "retrain" in capsys.readouterr().err


def test_every_single_bit_flip_is_rejected(workspace, tmp_path):
    good = (workspace / "model.bin").read_bytes()
    (meta_len,) = struct.unpack_from("<Q", good, 12)
    regions = [(0, 20), (20, 20 + meta_len), (20 + meta_len, len(good) - 4),
               (len(good) - 4, len(good))]       # header, metadata, payload, trailer
    rng = np.random.default_rng(0)
    bad = tmp_path / "flipped.bin"
    for lo, hi in regions:
        for pos in rng.choice(np.arange(lo, hi), 16, replace=hi - lo < 16):
            flipped = bytearray(good)
            flipped[pos] ^= 1 << int(rng.integers(8))
            with pytest.raises(CheckpointError):
                load_checkpoint(bytes(flipped)).build_model()
            bad.write_bytes(flipped)
            assert main(["inspect", "--model", str(bad)]) == 2, pos


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6)
_META_KEYS = ["config", "taxonomy", "taxonomy_hash", "label_order", "embedding_tokens"]
_RETIRED_KEYS = {"similarity", "use_x0_in_global"}     # load_config's retired keys
_CONFIG_KEYS = sorted({f.name for f in fields(TrainConfig)} | {"lambda"} | _RETIRED_KEYS)


def _set(key, value, in_config=False):
    def edit(meta):
        (meta["config"] if in_config else meta)[key] = value
        return meta
    return edit


_EDITS = st.one_of(
    st.builds(_set, st.sampled_from(_META_KEYS), _JSON),
    st.builds(_set, st.just("taxonomy"), _JSON.map(json.dumps)),
    st.builds(_set, st.sampled_from(_CONFIG_KEYS),
              _JSON | st.integers(-2 ** 70, 2 ** 70), st.just(True)))
_HEADER = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
_TAILS = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda meta, payload: struct.pack("<Q", len(meta)) + meta + payload,
              st.binary(max_size=32) | _JSON.map(lambda v: json.dumps(v).encode()),
              st.binary(max_size=32)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(edit=st.none() | _EDITS, tail=_TAILS)
def test_checkpoint_loader_fails_only_with_its_own_errors(workspace, edit, tail):
    """A resealed edit of the metadata, or resealed random bytes after a
    valid header: building either works or raises an AhmcaError, and
    inspect exits 0 or 2 accordingly."""
    good = (workspace / "model.bin").read_bytes()
    blob = reseal(_HEADER + tail) if edit is None else edit_meta(good, edit)
    try:
        load_checkpoint(blob).build_model()
        want = 0
    except AhmcaError:
        want = 2
    bad = workspace / "fuzzed.bin"
    bad.write_bytes(blob)
    assert main(["inspect", "--model", str(bad)]) == want


def _train_args(workspace, tmp_path, **paths):
    """train's arguments on the workspace files; a path of None leaves its flag out."""
    files = {"--config": workspace / "config.json",
             "--train": workspace / "train.jsonl",
             "--val": workspace / "val.jsonl",
             "--taxonomy": workspace / "data" / "taxonomy.json",
             "--embeddings": workspace / "data" / "embeddings.txt"}
    files.update(paths)
    return ["train", *(str(x) for item in files.items() if item[1] is not None for x in item),
            "--out", str(tmp_path / "m.bin"), "--history", str(tmp_path / "h.csv")]


def test_non_utf8_input_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")      # UTF-16 byte order mark, then "{}"
    model = str(workspace / "model.bin")
    runs = [_train_args(workspace, tmp_path, **{flag: bad})
            for flag in ("--config", "--train", "--val", "--taxonomy", "--embeddings")]
    runs += [["gen-synth", "--spec", str(bad), "--out-dir", str(tmp_path / "out")],
             ["eval", "--model", model, "--data", str(bad)],
             ["predict", "--model", model, "--input", str(bad)]]
    for argv in runs:
        assert main(argv) == 2, argv
        assert "is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_non_finite_embeddings_exit_2(workspace, tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    lines = (workspace / "data" / "embeddings.txt").read_text().splitlines()
    token = lines[1].split()[0]
    lines[1] = " ".join([token, "nan"] + lines[1].split()[2:])
    emb.write_text("\n".join(lines) + "\n")
    assert main(_train_args(workspace, tmp_path, **{"--embeddings": emb})) == 2
    assert repr(token) in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_bad_config_exit_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text, extra in (
        ('{"betta": 0.5}', []),
        ('{"learning_rate": 1e999}', []),
        ('{"lambda": Infinity}', []),
        ('{"seed": -1}', []),
        ('{', []),
        ('{"k": 8, "g": 100000000000}', []),       # ~1e22 floats: NumPy refuses at once
        # embeddings of width 4 against k=8: Model's width check
        ('{"k": 8}', ["--embeddings", str(workspace / "data" / "embeddings.txt")]),
    ):
        cfg.write_text(text)
        rc = main(["train", "--config", str(cfg),
                   "--train", str(workspace / "train.jsonl"),
                   "--val", str(workspace / "val.jsonl"),
                   "--taxonomy", str(workspace / "data" / "taxonomy.json"),
                   "--out", str(tmp_path / "m.bin"),
                   "--history", str(tmp_path / "h.csv"), *extra])
        assert rc == 2, text
        assert not (tmp_path / "m.bin").exists()


def test_retired_config_key_in_checkpoint_exit_2(workspace, tmp_path, capsys):
    """A checkpoint config holding a retired key at its one kept value
    inspects as the file without it; at another value inspect exits 2,
    naming the key."""
    good = (workspace / "model.bin").read_bytes()
    bad = tmp_path / "old.bin"
    assert main(["inspect", "--model", str(workspace / "model.bin")]) == 0
    want = capsys.readouterr().out
    bad.write_bytes(edit_meta(good, _set("similarity", "dot", in_config=True)))
    assert main(["inspect", "--model", str(bad)]) == 0
    assert capsys.readouterr().out == want
    for key, value in (("similarity", "cosine"), ("use_x0_in_global", False)):
        bad.write_bytes(edit_meta(good, _set(key, value, in_config=True)))
        assert main(["inspect", "--model", str(bad)]) == 2, key
        assert key in capsys.readouterr().err


def test_diverging_config_exit_2(workspace, tmp_path, capsys):
    """A config that passes its checks but whose loss or gradients overflow
    float32 on the data is an input error, and writes nothing."""
    cfg = tmp_path / "cfg.json"
    for extra in ({"lambda": 1e300}, {"learning_rate": 1e30}):
        cfg.write_text(json.dumps({**CONFIG, "epochs": 2, **extra}))
        assert main(_train_args(workspace, tmp_path, **{"--config": cfg})) == 2, extra
        assert "input error: loss diverged at epoch" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()


def test_train_without_embeddings_gives_labels_their_own_rows(workspace, tmp_path):
    """Without --embeddings the random table covers the label text as well
    as the corpus, so no two labels of a level share a label-matrix row."""
    assert main(_train_args(workspace, tmp_path, **{"--embeddings": None})) == 0
    model, tax = load_checkpoint((tmp_path / "m.bin").read_bytes()).build_model()
    assert all(lab.text.lower() in model.table.index for lab in tax.labels)
    for T in model.label_matrices():
        assert len(np.unique(T, axis=0)) == len(T)


def test_unallocatable_spec_exit_3(tmp_path, capsys):
    """A spec whose token draws or embedding table NumPy cannot allocate
    is a validation error naming the count, and writes nothing."""
    spec = tmp_path / "spec.json"
    for field, value, count in (("docs_per_leaf", 10**12, "10000000000000 corpus tokens"),
                                ("embedding_dim", 10**11, "24 x 100000000000 embedding")):
        spec.write_text(json.dumps({**SPEC, field: value}))
        assert main(["gen-synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 3
        assert count in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_negative_seed_exit_3(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    out = str(tmp_path / "out")
    spec.write_text(json.dumps({**SPEC, "seed": -1}))
    assert main(["gen-synth", "--spec", str(spec), "--out-dir", out]) == 3
    spec.write_text(json.dumps(SPEC))
    assert main(["gen-synth", "--spec", str(spec), "--out-dir", out, "--seed", "-1"]) == 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_taxonomy_exit_3(workspace, tmp_path, capsys):
    tax = tmp_path / "tax.json"
    for second in (
        {"id": "Y", "text": "y", "level": 2, "parent": "MISSING"},
        {"id": "Y", "text": "!!!", "level": 2, "parent": "X"},
        {"id": "Y", "text": 123, "level": 2, "parent": "X"},
    ):
        tax.write_text(json.dumps({"labels": [
            {"id": "X", "text": "x", "level": 1, "parent": None},
            second,
        ]}))
        rc = main(["train", "--config", str(workspace / "config.json"),
                   "--train", str(workspace / "train.jsonl"),
                   "--val", str(workspace / "val.jsonl"),
                   "--taxonomy", str(tax),
                   "--out", str(tmp_path / "m.bin"),
                   "--history", str(tmp_path / "h.csv")])
        assert rc == 3, second


def test_lone_surrogate_taxonomy_exit_3(workspace, tmp_path, capsys):
    tax = json.loads((workspace / "data" / "taxonomy.json").read_text())
    tax["labels"][0]["text"] += " \ud800"
    bad = tmp_path / "tax.json"
    bad.write_text(json.dumps(tax))             # the surrogate as a JSON escape
    assert main(_train_args(workspace, tmp_path, **{"--taxonomy": bad})) == 3
    assert "not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_lone_surrogate_token_train_exit_3(workspace, tmp_path, capsys):
    """A token that UTF-8 cannot encode is refused where the corpus is read,
    not after the last epoch, when the checkpoint's vocabulary is written."""
    lines = (workspace / "train.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    rec["title"] = [*rec["title"], "bad\ud800"]
    lines[1] = json.dumps(rec)                  # the surrogate as a JSON escape
    bad = tmp_path / "train.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    # no --embeddings: a random table of the corpus's and the labels' words
    assert main(_train_args(workspace, tmp_path, **{"--train": bad, "--embeddings": None})) == 3
    out, err = capsys.readouterr()
    assert "epoch" not in out
    assert "line 2: field 'title'" in err and "not valid UTF-8" in err
    assert not (tmp_path / "m.bin").exists()


# small valid values for every SynthSpec field
_SPEC_FIELDS = {
    "level_sizes": st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
        lambda steps: list(itertools.accumulate(steps))),
    "docs_per_leaf": st.integers(1, 3), "doc_length": st.integers(1, 6),
    "keywords_per_doc": st.integers(1, 3), "leaf_vocab_size": st.integers(1, 4),
    "noise_rate": st.floats(0, 1), "seed": st.integers(0, 2**64),
    "embedding_dim": st.integers(1, 4),
}
# wrong types and out-of-range values; none of them is a large valid count
_BAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 0), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(), st.text(max_size=1)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def _spec_objects(draw):
    obj = {key: draw(values) for key, values in _SPEC_FIELDS.items()}
    change = draw(st.sampled_from(["none", "value", "missing", "unknown", "not an object"]))
    if change == "value":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(_BAD_VALUES)
    elif change == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif change == "unknown":
        obj[draw(st.text(max_size=4).filter(lambda key: key not in obj))] = 1
    elif change == "not an object":
        return draw(st.sampled_from([[obj], None, "spec", 3]))
    return obj


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(obj=_spec_objects())
def test_gen_synth_spec_exit_0_or_3(obj):
    """A spec the loader accepts generates (exit 0); any other is a
    validation error (exit 3), never another exception."""
    text = json.dumps(obj)
    try:
        SynthSpec.from_json(text)
        want = 0
    except SpecInvalidError:
        want = 3
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(text)
        assert main(["gen-synth", "--spec", str(spec), "--out-dir", tmp + "/out"]) == want
        assert (Path(tmp) / "out" / "corpus.jsonl").exists() == (want == 0)


# valid values of every TrainConfig key (small counts; floats over their
# whole range, where large ones diverge), and the retired keys at their
# kept value and at another
_CONFIG_VALUES = {
    "k": st.integers(3, 5), "g": st.integers(15, 17), "d_L": st.integers(15, 17),
    "beta": st.floats(0, 1), "lambda": st.floats(0, 1) | st.floats(0, 1e308),
    "learning_rate": st.floats(1e-4, 0.1) | st.floats(0, 1e308, exclude_min=True),
    "epochs": st.integers(1, 2), "batch_size": st.integers(1, 16),
    "seed": st.integers(0, 2**32), "attention_mode": st.sampled_from(MODES),
    "freeze_embeddings": st.booleans(), "early_stop_patience": st.integers(1, 3),
    "similarity": st.sampled_from(["dot", "cosine"]), "use_x0_in_global": st.booleans(),
}


@st.composite
def _config_objects(draw, base, keep=()):
    """base updated with some keys of _CONFIG_VALUES other than keep, and
    then, half the time, one key at a bad value, an unknown key, or no
    object at all."""
    values = {key: v for key, v in _CONFIG_VALUES.items() if key not in keep}
    obj = {**base, **draw(st.fixed_dictionaries({}, optional=values))}
    change = draw(st.sampled_from(["none"] * 3 + ["value", "unknown", "not an object"]))
    if change == "value":
        obj[draw(st.sampled_from(sorted(_CONFIG_VALUES) + ["lambda_"]))] = draw(_BAD_VALUES)
    elif change == "unknown":
        obj[draw(st.text(max_size=4).filter(lambda key: key not in obj))] = 1
    elif change == "not an object":
        return draw(st.sampled_from([[obj], None, "config", 3]))
    return obj


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(obj=_config_objects({"k": 4, "g": 16, "d_L": 16, "epochs": 1, "batch_size": 4}))
def test_train_config_exit_0_or_2(workspace, obj):
    """ahmca train with a drawn config and a random table: a config that
    load_config refuses exits 2; one it accepts trains (exit 0) or
    diverges (exit 2).  Never 1, and the outputs exist only on exit 0."""
    text = json.dumps(obj)
    try:
        load_config(text)
        allowed = (0, 2)
    except ConfigError:
        allowed = (2,)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(text)
        rc = main(_train_args(workspace, Path(tmp), **{"--config": cfg, "--embeddings": None}))
        assert rc in allowed, text
        assert (Path(tmp) / "m.bin").exists() == (rc == 0)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(obj=_config_objects(CONFIG, keep=("k", "g", "d_L")))
def test_inspect_config_exit_0_or_2(workspace, obj):
    """ahmca inspect of the workspace checkpoint with a drawn config in its
    metadata, its shape keys changed only as bad values: exit 0 if the
    checkpoint loads and builds, else 2, never 1."""
    blob = edit_meta((workspace / "model.bin").read_bytes(), lambda meta: {**meta, "config": obj})
    try:
        load_checkpoint(blob).build_model()
        want = 0
    except AhmcaError:
        want = 2
    bad = workspace / "config_fuzzed.bin"
    bad.write_bytes(blob)
    assert main(["inspect", "--model", str(bad)]) == want


def test_non_json_taxonomy_and_spec_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(_train_args(workspace, tmp_path, **{"--taxonomy": bad})) == 3
    assert "taxonomy is not valid JSON" in capsys.readouterr().err
    assert main(["gen-synth", "--spec", str(bad), "--out-dir", str(tmp_path / "out")]) == 3
    assert "spec is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists() and not (tmp_path / "out").exists()


def test_empty_taxonomy_exit_3(workspace, tmp_path, capsys):
    tax = tmp_path / "tax.json"
    tax.write_text('{"labels": []}')
    rc = main(["train", "--config", str(workspace / "config.json"),
               "--train", str(workspace / "train.jsonl"),
               "--val", str(workspace / "val.jsonl"),
               "--taxonomy", str(tax),
               "--out", str(tmp_path / "m.bin"),
               "--history", str(tmp_path / "h.csv")])
    assert rc == 3
    assert "non-empty 'labels' list" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_empty_corpus_exit_3(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for flag, name in (("--train", "train"), ("--val", "validation")):
        assert main(_train_args(workspace, tmp_path, **{flag: empty})) == 3, flag
        assert f"the {name} corpus has no documents" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()


def test_eval_empty_data_exit_3(workspace, tmp_path, capsys):
    """A data file with no records is rejected as train rejects an empty
    corpus, not scored as macro_f1 0.0 over 0 documents."""
    for text in ("", "\n  \n"):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(text)
        rc = main(["eval", "--model", str(workspace / "model.bin"), "--data", str(empty),
                   "--out", str(tmp_path / "metrics.json")])
        assert rc == 3, repr(text)
        out, err = capsys.readouterr()
        assert f"{empty} has no documents" in err and out == ""
        assert not (tmp_path / "metrics.json").exists()


def test_mismatched_data_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "d", "title": "t", "abstract": "a",
                               "keywords": [], "labels": ["NOPE"]}) + "\n")
    rc = main(["eval", "--model", str(workspace / "model.bin"),
               "--data", str(bad)])
    assert rc == 3


def test_malformed_query_exit_3(workspace, tmp_path, capsys):
    q = tmp_path / "query.jsonl"
    for rec in ({"title": "x", "keywords": 5}, [1, 2], {"title": "x", "keywords": "ab cd"},
                {"id": 5, "title": "x"},
                # lone surrogates, written as JSON escapes
                {"title": ["bad\ud800"]}, {"abstract": "a\ud800b"},
                {"title": "x", "keywords": ["k\udc00w"]}, {"id": "q\ud800", "title": "x"}):
        q.write_text(json.dumps(rec) + "\n")
        rc = main(["predict", "--model", str(workspace / "model.bin"), "--input", str(q)])
        assert rc == 3, rec


def test_invalid_json_query_names_the_line_exit_3(workspace, tmp_path, capsys):
    q = tmp_path / "query.jsonl"
    q.write_text(json.dumps({"id": "q1", "title": "x"}) + "\nnot json\n")
    rc = main(["predict", "--model", str(workspace / "model.bin"), "--input", str(q)])
    assert rc == 3
    out, err = capsys.readouterr()
    assert "line 2: invalid JSON" in err
    assert out == ""                # every line is read before any is scored


def test_bad_query_record_names_the_line_exit_3(workspace, tmp_path, capsys):
    q = tmp_path / "query.jsonl"
    q.write_text(json.dumps({"id": "q1", "title": "x"}) + "\n" + json.dumps({"id": "q2"}) + "\n")
    rc = main(["predict", "--model", str(workspace / "model.bin"), "--input", str(q)])
    assert rc == 3
    assert "line 2: record 'q2' has no text" in capsys.readouterr().err


# tokens of the workspace vocabulary and label text, an unseen one, blank ones
_TOKENS = st.sampled_from(["w_l2_0_0", "w_l2_1_3", "lab_L1_0", "unseen", "a b", " ", "", "\t"])
_RECORD_FIELDS = {
    "title": st.lists(_TOKENS, min_size=1, max_size=4) | st.text(max_size=6),
    "abstract": st.lists(_TOKENS, max_size=3) | st.text(max_size=6),
    "keywords": st.lists(_TOKENS, max_size=2),
    "labels": st.lists(st.sampled_from(["L2_0", "L2_1"]), min_size=1, max_size=2),
}
# wrong types, non-string or blank tokens and keywords, wrong label lists
_BAD_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(_TOKENS, st.integers(), st.none(), st.lists(_TOKENS, max_size=1)),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def _jsonl_files(draw):
    """One to three JSON Lines records, each valid (about half of them) or
    changed in one way."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        rec = {"id": f"d{len(lines)}"}
        rec |= {key: draw(values) for key, values in _RECORD_FIELDS.items()}
        change = draw(st.just("none") | st.sampled_from([
            "value", "missing", "unknown field", "label", "repeated id", "not an object",
            "blank line"]))
        if change == "value":
            rec[draw(st.sampled_from(sorted(rec)))] = draw(_BAD_FIELD_VALUES)
        elif change == "missing":
            del rec[draw(st.sampled_from(sorted(rec)))]
        elif change == "unknown field":
            rec["extra"] = draw(_BAD_FIELD_VALUES)
        elif change == "repeated id":
            rec["id"] = "d0"
        elif change == "label":     # a non-leaf or an unknown id of the workspace taxonomy
            rec["labels"].append(draw(st.sampled_from(["L1_0", "L1_1", "NOPE", ""])))
        elif change == "not an object":
            rec = draw(st.sampled_from([[rec], None, "rec", 3, True]))
        lines.append("  " if change == "blank line" else json.dumps(rec))
    return "\n".join(lines) + "\n"


def _exit_code_of(workspace, command, flag, text):
    path = workspace / "records.jsonl"
    path.write_text(text)
    return main([command, "--model", str(workspace / "model.bin"), flag, str(path)])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(text=_jsonl_files())
def test_predict_input_exit_0_or_3(workspace, text):
    """Input the query reader accepts is classified (exit 0); any other is
    a validation error (exit 3), never an internal error (exit 1)."""
    tax = load_taxonomy((workspace / "data" / "taxonomy.json").read_text())
    try:
        list(read_documents(text, tax, make_unlabeled_document))
        want = 0
    except (TaxonomyError, CorpusError):
        want = 3
    assert _exit_code_of(workspace, "predict", "--input", text) == want


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(text=_jsonl_files())
def test_eval_data_exit_0_or_3(workspace, text):
    """A non-empty corpus the loader accepts is evaluated (exit 0); any
    other is a validation error (exit 3), never an internal error (exit 1)."""
    tax = load_taxonomy((workspace / "data" / "taxonomy.json").read_text())
    try:
        want = 0 if len(load_corpus(text, tax)) else 3
    except (TaxonomyError, CorpusError):
        want = 3
    assert _exit_code_of(workspace, "eval", "--data", text) == want


_DEEP = "[" * 100_000       # json.loads raises RecursionError on it


@pytest.mark.parametrize("flag, want, message", [
    ("--config", 2, "config is not a JSON object"),
    ("--spec", 3, "spec is not valid JSON"),
    ("--taxonomy", 3, "taxonomy is not valid JSON"),
    ("--train", 3, "line 2: invalid JSON"),
    ("--input", 3, "line 2: invalid JSON"),
], ids=["config", "spec", "taxonomy", "corpus", "query"])
def test_deeply_nested_json_exit_code(workspace, tmp_path, capsys, flag, want, message):
    bad = tmp_path / "deep.json"
    if flag in ("--train", "--input"):      # a corpus or query file, its second line
        bad.write_text((workspace / "val.jsonl").read_text().splitlines()[0] + "\n" + _DEEP)
    else:
        bad.write_text(_DEEP)
    if flag == "--spec":
        argv = ["gen-synth", "--spec", str(bad), "--out-dir", str(tmp_path / "out")]
    elif flag == "--input":
        argv = ["predict", "--model", str(workspace / "model.bin"), "--input", str(bad)]
    else:
        argv = _train_args(workspace, tmp_path, **{flag: bad})
    assert main(argv) == want
    out, err = capsys.readouterr()
    assert message in err and "recursion" in err
    assert out == ""
    assert not (tmp_path / "m.bin").exists() and not (tmp_path / "out").exists()


def test_predict_rows_match_served_predict(workspace, capsys):
    """ahmca predict scores its input in one scoring block; each row decodes
    as training.predict (a batch of one) decodes the same query, up to the
    last bits of the scores."""
    queries = []
    for i, line in enumerate((workspace / "data" / "corpus.jsonl").read_text().splitlines() * 3):
        rec = json.loads(line)       # cut to 1-9 tokens: ragged and repeated lengths
        queries.append({"id": f"q{i}", "title": (rec["title"] * 4)[:1 + i % 9],
                        "keywords": rec["keywords"][:i % 2]})
    q = workspace / "ragged_queries.jsonl"
    q.write_text("".join(json.dumps(rec) + "\n" for rec in queries))
    rc = main(["predict", "--model", str(workspace / "model.bin"), "--input", str(q),
               "--top", "2"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    model, tax = load_checkpoint((workspace / "model.bin").read_bytes()).build_model()
    assert [row["id"] for row in rows] == [rec["id"] for rec in queries]
    for row, rec in zip(rows, queries):
        want = predict(model, make_unlabeled_document(rec, tax), top_n=2)
        assert [leaf for leaf, _ in row["top_leaves"]] == [leaf for leaf, _ in want["top_leaves"]]
        np.testing.assert_allclose([score for _, score in row["top_leaves"]],
                                   [score for _, score in want["top_leaves"]], rtol=0, atol=1e-6)
        assert row["level_sets"] == want["level_sets"]

import json
import math
from dataclasses import replace

import numpy as np
import oracles
import pytest
from checkpoint_cases import BUILD_CASES, LOAD_CASES, edit_meta

from ahmca.corpus import Corpus, SynthSpec, generate_synthetic, make_unlabeled_document, split
from ahmca.errors import (
    BadMagicError,
    ConfigRangeError,
    ConfigTypeError,
    CorruptPayloadError,
    EmptyInputError,
    EmptyTextError,
    MalformedRecordError,
    NonFiniteError,
    TaxonomyMismatchError,
    TooFewDocumentsError,
    UnknownConfigKeyError,
    VersionMismatchError,
)
from ahmca import model as model_module
from ahmca import training as training_module
from ahmca.metrics import MetricsReport
from ahmca.model import Arena, Model
from ahmca.taxonomy import load_taxonomy
from ahmca.training import (
    CHECKPOINT_MAGIC,
    Adam,
    History,
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    load_config,
    predict,
    save_checkpoint,
    train,
)


def _tiny_cfg(**kw):
    base = dict(k=4, g=16, d_L=16, epochs=3, batch_size=4, learning_rate=1e-2,
                seed=0, early_stop_patience=50)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_run(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, te = split(corpus, (2, 1, 1), seed=0)
    cfg = _tiny_cfg(epochs=40)
    ckpt, hist = train(cfg, tr, va, tax, table)
    return tax, corpus, table, tr, va, te, cfg, ckpt, hist


# --- config -------------------------------------------------------------

def test_config_defaults():
    cfg = load_config("{}")
    assert cfg.beta == 0.5
    assert cfg.lambda_ == 0.1
    assert cfg.attention_mode == "sum_normalized"


def test_config_lambda_alias():
    assert load_config('{"lambda": 0.3}').lambda_ == 0.3
    source = {"lambda": 0.3}
    assert load_config(source).lambda_ == 0.3
    assert source == {"lambda": 0.3}        # the caller's dict is left as it was


def test_config_range_errors():
    with pytest.raises(ConfigRangeError):
        load_config('{"beta": 2.0}')
    with pytest.raises(ConfigRangeError):
        load_config('{"attention_mode": "bogus"}')
    with pytest.raises(ConfigRangeError):
        load_config('{"learning_rate": 0}')
    with pytest.raises(ConfigRangeError):
        load_config('{"seed": -1}')
    with pytest.raises(ConfigRangeError):
        TrainConfig(seed=-1)
    for key in ("lambda", "learning_rate", "beta"):     # json reads NaN and inf
        for value in ("NaN", "Infinity", "1e999"):
            with pytest.raises(ConfigRangeError):
                load_config(f'{{"{key}": {value}}}')


def test_config_unknown_key():
    with pytest.raises(UnknownConfigKeyError):
        load_config('{"betta": 0.5}')
    with pytest.raises(UnknownConfigKeyError, match="'lambda' and 'lambda_'"):
        load_config('{"lambda": 0.3, "lambda_": 0.2}')


def test_config_retired_keys():
    """similarity and use_x0_in_global were TrainConfig fields.  Each loads
    at the one value a model built here has, and is dropped; any other
    value is a ConfigRangeError naming the key."""
    source = {"similarity": "dot", "use_x0_in_global": True, "beta": 0.25}
    assert load_config(source) == TrainConfig(beta=0.25)
    assert load_config(json.dumps(source)) == TrainConfig(beta=0.25)
    assert source == {"similarity": "dot", "use_x0_in_global": True, "beta": 0.25}
    assert len(TrainConfig().to_dict()) == 12
    for key, value in (("similarity", '"cosine"'), ("similarity", '"Dot"'),
                       ("similarity", "null"), ("use_x0_in_global", "false"),
                       ("use_x0_in_global", "1"), ("use_x0_in_global", '"true"')):
        with pytest.raises(ConfigRangeError, match=f"{key} .*retrain"):
            load_config(f'{{"{key}": {value}, "beta": 0.25}}')


def test_config_rejected_at_construction():
    for error, bad in ((ConfigRangeError, lambda: TrainConfig(beta=2.0)),
                       (ConfigRangeError, lambda: TrainConfig(attention_mode="bogus")),
                       (ConfigRangeError, lambda: replace(TrainConfig(), lambda_=-1.0)),
                       (ConfigTypeError, lambda: TrainConfig(k=4.0, g=4, d_L=4)),
                       (ConfigTypeError, lambda: TrainConfig(freeze_embeddings="no")),
                       (ConfigTypeError, lambda: TrainConfig(beta=True))):
        with pytest.raises(error):
            bad()
    assert TrainConfig(beta=1, learning_rate=1).beta == 1       # ints are floats


def test_config_type_errors():
    with pytest.raises(ConfigTypeError):
        load_config('{"k": "four"}')
    with pytest.raises(ConfigTypeError):
        load_config('{"freeze_embeddings": 1}')
    for source in ('[1, 2]', 5, [1, 2], [["k", 4]], None):
        with pytest.raises(ConfigTypeError, match="must be a JSON object"):
            load_config(source)
    with pytest.raises(ConfigTypeError, match="not a JSON object"):
        load_config("{")
    with pytest.raises(ConfigTypeError):
        load_config('{"beta": true}')
    with pytest.raises(ConfigTypeError):
        load_config('{"learning_rate": true}')


def test_unallocatable_params_are_a_config_range_error(tiny_synth):
    """g = 10**11 asks for about 1e22 floats, which NumPy refuses before
    allocating anything."""
    tax, _, table = tiny_synth
    with pytest.raises(ConfigRangeError, match=r"cannot allocate \d+ parameter floats"):
        Model(tax, table, TrainConfig(k=4, g=10**11))


def test_config_roundtrip_dict():
    cfg = _tiny_cfg(beta=0.25)
    assert load_config(cfg.to_dict()) == cfg


# --- history ------------------------------------------------------------

def test_history_csv_roundtrip():
    h = History()
    h.append(1, 0.6931471805599453, 0.1, 0.2)
    h.append(2, 0.5, 1 / 3, 0.25)
    header, *rows = h.to_csv().splitlines()
    assert header == "epoch,train_loss,val_macro_f1_at_1,val_p_at_1"
    parsed = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
    assert parsed == h.records              # %r formatting is lossless


def test_history_contiguity():
    h = History()
    h.append(1, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        h.append(3, 0.4, 0.2, 0.2)


# --- training -----------------------------------------------------------

def test_training_memorizes_tiny_world(tiny_run):
    *_, cfg, ckpt, hist = tiny_run
    losses = [r["train_loss"] for r in hist.records]
    assert losses[-1] < losses[0] * 0.5       # clear optimization progress
    assert losses[-1] < 0.3


def test_training_best_model_generalizes(tiny_run):
    tax, corpus, table, tr, va, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    rep = evaluate_model(model, te, ks=(1,))
    assert rep.macro_f1 >= 0.9


def test_training_deterministic(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    cfg = _tiny_cfg(epochs=2)
    a = train(cfg, tr, va, tax, table)
    b = train(cfg, tr, va, tax, table)
    assert save_checkpoint(a[0]) == save_checkpoint(b[0])
    assert a[1].to_csv() == b[1].to_csv()


def test_training_frozen_embeddings(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    frozen, _ = train(_tiny_cfg(epochs=2, freeze_embeddings=True), tr, va, tax, table)
    m1, _ = frozen.build_model()
    vectors, unk = m1.params["embedding.table"][:-1], m1.params["embedding.table"][-1]
    assert vectors.dtype == table.vectors.dtype and unk.dtype == table.unk_vector.dtype
    assert vectors.tobytes() == table.vectors.tobytes()
    assert unk.tobytes() == table.unk_vector.tobytes()
    m2, _ = load_checkpoint(save_checkpoint(frozen)).build_model()
    for doc in corpus:
        assert np.array_equal(m1.predict_scores(doc).fused_scores,
                              m2.predict_scores(doc).fused_scores)
    tuned, _ = train(_tiny_cfg(epochs=2), tr, va, tax, table)
    assert not np.array_equal(tuned.build_model()[0].params["embedding.table"][:-1],
                              table.vectors)


def test_batch_gradient_is_mean_of_document_gradients(tiny_synth, monkeypatch):
    tax, corpus, table = tiny_synth
    model = Model(tax, table, TrainConfig(k=4, g=8, d_L=8, seed=0), dtype=np.float64)
    docs = corpus.documents[:3]
    builds = []
    label_matrices = Model.label_matrices
    monkeypatch.setattr(Model, "label_matrices",
                        lambda self: builds.append(1) or label_matrices(self))
    calls = {name: [] for name in ("head_forward", "bilstm_encode", "bilstm_backward")}
    for name, seen in calls.items():
        fn = getattr(model_module, name)
        monkeypatch.setattr(model_module, name,
                            lambda *a, _fn=fn, _seen=seen, **kw: _seen.append(1) or _fn(*a, **kw))
    losses, grads = model.loss_and_grads(docs)
    assert len(builds) == 1
    # one head pass and one encoder pass each way for the whole batch
    assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 1)
    singles = [model.loss_and_grads([doc]) for doc in docs]
    assert losses == [loss for (loss,), _ in singles]
    assert grads.keys() == model.params.keys()
    for name, g in grads.items():
        mean = sum(single[name] for _, single in singles) / len(docs)
        np.testing.assert_allclose(g, mean, rtol=1e-10, atol=1e-14, err_msg=name)


def _ragged_batch(corpus):
    """Two interleaved shape groups of two documents and more, two
    keyword-less documents of one shape and a 1-token document."""
    d = corpus.documents
    short = {"title_tokens": d[1].title_tokens[:3], "abstract_tokens": d[1].abstract_tokens[:4]}
    return [d[0], replace(d[1], **short), d[2], replace(d[3], keywords=()),
            replace(d[4], **short), replace(d[5], title_tokens=d[5].title_tokens[:1],
                                            abstract_tokens=(), keywords=()),
            replace(d[6], keywords=()), d[7]]


@pytest.mark.parametrize("mode", ["sum_normalized", "softmax", "none"],
                         ids=lambda mode: f"dot-{mode}")
def test_grouped_attention_is_bitwise_per_document_oracle(small_synth, monkeypatch, mode):
    tax, corpus, table = small_synth
    model = Model(tax, table, TrainConfig(k=8, g=16, d_L=16, seed=1, attention_mode=mode))
    docs = _ragged_batch(corpus)
    assert [(len(d.tokens), len(d.keywords)) for d in docs] == [
        (22, 2), (9, 2), (22, 2), (20, 0), (9, 2), (1, 0), (20, 0), (22, 2)]
    calls = {name: [] for name in ("attention_forward", "attention_backward")}
    for name, seen in calls.items():
        fn = getattr(model_module, name)
        monkeypatch.setattr(model_module, name,
                            lambda *a, _fn=fn, _seen=seen, **kw: _seen.append(1) or _fn(*a, **kw))
    for batch in (docs, docs[5:6], docs[:1]):
        losses, grads = model.loss_and_grads(batch)
        want_losses, want_grads = oracles.loss_and_grads_per_document(model, batch)
        assert losses == want_losses
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g.dtype == want_grads[name].dtype
            assert g.tobytes() == want_grads[name].tobytes(), name
        got = model.predict_scores_batch(batch)
        want = oracles.predict_scores_per_document(model, batch)
        for a, b in zip([got.global_scores, got.fused_scores, *got.local_scores],
                        [want.global_scores, want.fused_scores, *want.local_scores], strict=True):
            assert a.tobytes() == b.tobytes()
    # one attention pass each way per shape group: 4 groups, then 1 and 1
    assert {name: len(seen) for name, seen in calls.items()} == {
        "attention_forward": 4 + 4 + 1 + 1 + 1 + 1, "attention_backward": 4 + 1 + 1}


def test_sparse_scatter_with_most_labels_unpicked(monkeypatch):
    """On 2/8/32 labels at k = 8, with label texts of 1 to 3 words (some
    out of vocabulary), most label rows take no gradient and the scatter
    drops them; the embedding gradients still equal the per-document
    oracle's dense scatter byte for byte."""
    spec = SynthSpec(level_sizes=(2, 8, 32), docs_per_leaf=1, doc_length=6, keywords_per_doc=2,
                     leaf_vocab_size=4, noise_rate=0.1, seed=5, embedding_dim=8)
    tax, corpus, table = generate_synthetic(spec)
    records = json.loads(tax.serialize())
    for i, lab in enumerate(records["labels"]):
        lab["text"] = " ".join([lab["text"], "w_l1_0_0", "oov"][:1 + i % 3])
    tax = load_taxonomy(json.dumps(records))
    model = Model(tax, table, TrainConfig(k=8, g=16, d_L=16, seed=1))
    picked = []
    backward = model_module.attention_backward

    def recording(*args):
        out = backward(*args)
        picked.extend((dctx[:, :n].any(axis=-1).sum(), dctx[:, :n, 0].size)
                      for dctx, n in zip(out[2], model.level_sizes))
        return out

    monkeypatch.setattr(model_module, "attention_backward", recording)
    docs = [replace(d, keywords=()) if i % 3 == 0 else d
            for i, d in enumerate(corpus.documents[::4])]
    losses, grads = model.loss_and_grads(docs)
    want_losses, want_grads = oracles.loss_and_grads_per_document(model, docs)
    assert losses == want_losses
    assert grads["embedding.table"].tobytes() == want_grads["embedding.table"].tobytes()
    assert all(g.tobytes() == want_grads[name].tobytes() for name, g in grads.items())
    nonzero, rows = np.sum(picked, axis=0)
    assert 2 * nonzero < rows, (nonzero, rows)       # most label rows go unpicked


_ADAM_SHAPES = {"W": (5, 3), "b": (3,), "embedding.table": (5, 3)}


def _adam_run(steps, frozen=False):
    """Steps of Adam on one arena of _ADAM_SHAPES beside oracles.adam_step:
    after every step, per group, (name, param, m, v) and the oracle's
    (param, m, v).  Frozen, Adam steps the prefix before the embeddings, as
    train() does, and they have no m and v (None)."""
    rng = np.random.default_rng(4)
    flat = rng.standard_normal(33).astype(np.float32)
    params = Arena(_ADAM_SHAPES, flat)
    shapes = {name: shape for name, shape in _ADAM_SHAPES.items()
              if not (frozen and name.startswith("embedding."))}
    n = sum(math.prod(shape) for shape in shapes.values())
    opt = Adam(flat[:n], lr=0.01)
    moments = opt.m, opt.v
    m, v = Arena(shapes, opt.m), Arena(shapes, opt.v)
    ref = {name: p.copy() for name, p in params.items()}
    ref_m = {name: np.zeros_like(p) for name, p in params.items()}
    ref_v = {name: np.zeros_like(p) for name, p in params.items()}
    for t in range(1, steps + 1):
        # at even steps a float64 gradient is cast to the parameters' float32
        grads = rng.standard_normal(len(flat)).astype(np.float32 if t % 2 else np.float64)
        opt.step(grads[:n])
        assert opt.m is moments[0] and opt.v is moments[1]      # stepped in place
        stepped = {name: g for name, g in Arena(_ADAM_SHAPES, grads).items() if name in shapes}
        ref, ref_m, ref_v = oracles.adam_step(ref, stepped, ref_m, ref_v, t, 0.01)
        yield [((name, params[name], m.get(name), v.get(name)),
                (ref[name], ref_m[name], ref_v[name])) for name in _ADAM_SHAPES]


def _assert_adam_is_oracle(steps):
    for step in steps:
        for (name, *got), want in step:
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype == np.float32
                assert a.tobytes() == b.tobytes(), name


def test_adam_is_bitwise_oracle_in_place():
    """Flat Adam equals the per-group oracle bit for bit."""
    _assert_adam_is_oracle(_adam_run(3))


def test_adam_chunks_are_bitwise_oracle(monkeypatch):
    """So it does in chunks of 4 elements, which W (15 elements) and the
    embeddings straddle."""
    monkeypatch.setattr(training_module, "_CHUNK", 4)
    _assert_adam_is_oracle(_adam_run(3))


def test_adam_with_frozen_embeddings_steps_the_prefix(monkeypatch):
    """Stepping the prefix before the embeddings leaves their bytes
    unchanged and steps every other group as the oracle does."""
    monkeypatch.setattr(training_module, "_CHUNK", 4)
    for step in _adam_run(3, frozen=True):
        for (name, p, m, v), (ref, ref_m, ref_v) in step:
            if name.startswith("embedding."):
                # the oracle, given no gradient for them, keeps the start bytes
                assert p.tobytes() == ref.tobytes(), name
                assert m is None and v is None     # Adam has no moments for them
            else:
                for a, b in ((p, ref), (m, ref_m), (v, ref_v)):
                    assert a.tobytes() == b.tobytes(), name


def test_adam_flushes_vanishing_first_moments(monkeypatch):
    """Step 64 zeroes each m element below 2**-100 in magnitude, in every
    chunk; step 63 leaves the b1 decay of a zero gradient alone, and an
    element above the bound survives both."""
    monkeypatch.setattr(training_module, "_CHUNK", 4)
    start = np.float32([2.0**-101, -2.0**-101, 2.0**-99])
    decayed = start * np.float32(0.9)
    for t, want in ((62, decayed), (63, np.float32([0.0, 0.0, decayed[2]]))):
        params = np.ones(10, np.float32)
        opt = Adam(params, lr=0.01)
        opt.t = t
        opt.m[[1, 8, 9]] = start         # in the first and the last, partial, chunk
        opt.v[:] = 1.0
        opt.step(np.zeros(10, np.float32))
        assert opt.t == t + 1
        assert opt.m[[1, 8, 9]].tobytes() == want.tobytes(), t
        assert not opt.m[[0, 2, 3, 4, 5, 6, 7]].any()


def test_empty_batch_raises(tiny_synth):
    tax, _, table = tiny_synth
    model = Model(tax, table, TrainConfig(k=4, g=8, d_L=8, seed=0))
    with pytest.raises(EmptyInputError):
        model.forward([])
    with pytest.raises(EmptyInputError):
        model.loss_and_grads([])


def test_early_stopping_keeps_the_best_epoch(tiny_synth):
    """With patience 1, train() stops at the first epoch whose val
    macro-F1 does not beat the best so far, and returns the best epoch's
    parameters (this run's val F1 reads 1/3, 1, 1/3)."""
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    cfg = _tiny_cfg(epochs=10, learning_rate=0.03, seed=1, early_stop_patience=1)
    ckpt, hist = train(cfg, tr, va, tax, table)
    f1 = [r["val_macro_f1_at_1"] for r in hist.records]
    stop = next(e for e in range(1, cfg.epochs) if f1[e] <= max(f1[:e]))
    assert len(f1) == stop + 1 < cfg.epochs
    assert f1[-1] < max(f1)
    model, _ = ckpt.build_model()
    assert evaluate_model(model, va, ks=(1,)).macro_f1 == max(f1)


def test_training_nonfinite_gradient(tiny_synth, monkeypatch):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    seen = []
    loss_and_grads = Model.loss_and_grads

    def poisoned(self, docs):
        seen.append((self, {k: v.copy() for k, v in self.params.items()}))
        losses, grads = loss_and_grads(self, docs)
        grads["local.Wc2"][0, 0] = np.nan
        return losses, grads

    monkeypatch.setattr(Model, "loss_and_grads", poisoned)
    with pytest.raises(NonFiniteError, match="local.Wc2 at epoch 1"):
        train(_tiny_cfg(), tr, va, tax, table)
    (model, before), = seen
    assert model.params.keys() == before.keys()
    assert all(np.array_equal(model.params[k], v) for k, v in before.items())


def test_training_taxonomy_mismatch(tiny_synth, small_synth):
    tax, corpus, table = tiny_synth
    other_tax = small_synth[0]
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    with pytest.raises(TaxonomyMismatchError):
        train(_tiny_cfg(), tr, va, other_tax, table)


def test_training_empty_corpus(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    empty = Corpus((), tax.content_hash())
    for train_c, val_c, name in ((empty, va, "train"), (tr, empty, "validation")):
        with pytest.raises(TooFewDocumentsError, match=f"the {name} corpus"):
            train(_tiny_cfg(), train_c, val_c, tax, table)


def test_training_dim_mismatch(tiny_synth):
    tax, corpus, table = tiny_synth
    tr, va, _ = split(corpus, (2, 1, 1), seed=0)
    with pytest.raises(ConfigRangeError):
        train(_tiny_cfg(k=8), tr, va, tax, table)


# --- checkpoints --------------------------------------------------------

def test_checkpoint_roundtrip(tiny_run):
    *_, ckpt, hist = tiny_run
    blob = save_checkpoint(ckpt)
    assert blob[:8] == CHECKPOINT_MAGIC
    back = load_checkpoint(blob)
    assert back.config == ckpt.config
    assert back.label_order == ckpt.label_order
    assert back.flat.dtype == np.float32 and back.flat.tobytes() == ckpt.flat.tobytes()


def test_checkpoint_rebuilt_model_same_scores(tiny_run):
    tax, corpus, *_, ckpt, hist = tiny_run
    m1, _ = ckpt.build_model()
    m2, _ = load_checkpoint(save_checkpoint(ckpt)).build_model()
    doc = corpus.documents[0]
    assert np.allclose(m1.predict_scores(doc).fused_scores,
                       m2.predict_scores(doc).fused_scores, atol=1e-6)


def test_checkpoint_with_retired_config_keys(tiny_run):
    """A checkpoint written while similarity and use_x0_in_global were
    config fields holds both in its metadata: at their one kept value it
    loads and serves the same bytes as the file without them; at another
    value it is refused, naming the key."""
    tax, corpus, *_, ckpt, hist = tiny_run
    blob = save_checkpoint(ckpt)

    def with_config(**extra):
        def edit(meta):
            meta["config"].update(extra)
            return meta
        return edit_meta(blob, edit)

    now, _ = load_checkpoint(blob).build_model()
    old, _ = load_checkpoint(with_config(similarity="dot", use_x0_in_global=True)).build_model()
    for doc in corpus.documents:
        a, b = predict(now, doc, threshold=0.0), predict(old, doc, threshold=0.0)
        assert a["fused_scores"].tobytes() == b["fused_scores"].tobytes()
        assert (a["top_leaves"], a["level_sets"]) == (b["top_leaves"], b["level_sets"])
    for key, value in (("similarity", "cosine"), ("use_x0_in_global", False)):
        with pytest.raises(ConfigRangeError, match=key):
            load_checkpoint(with_config(**{key: value}))


def test_checkpoint_bad_magic():
    with pytest.raises(BadMagicError):
        load_checkpoint(b"NOTAMDL!" + b"\x00" * 40)


def test_checkpoint_bad_version(tiny_run):
    *_, ckpt, hist = tiny_run
    blob = bytearray(save_checkpoint(ckpt))
    for version in (1, 99):         # version 1 held a per-array manifest
        blob[8:12] = version.to_bytes(4, "little")
        with pytest.raises(VersionMismatchError, match=f"version {version} .*retrain"):
            load_checkpoint(bytes(blob))


def test_checkpoint_truncated(tiny_run):
    *_, ckpt, hist = tiny_run
    blob = save_checkpoint(ckpt)
    with pytest.raises(CorruptPayloadError):
        load_checkpoint(blob[:len(blob) - 50])


@pytest.mark.parametrize("case", sorted(LOAD_CASES))
def test_checkpoint_corrupt_manifest(tiny_run, case):
    *_, ckpt, hist = tiny_run
    with pytest.raises(CorruptPayloadError):
        load_checkpoint(LOAD_CASES[case](save_checkpoint(ckpt)))


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_checkpoint_arrays_must_fit_model(tiny_run, case):
    *_, ckpt, hist = tiny_run
    loaded = load_checkpoint(BUILD_CASES[case](save_checkpoint(ckpt)))
    with pytest.raises(CorruptPayloadError):
        loaded.build_model()


def test_checkpoint_names_first_nonfinite_array(tiny_run):
    *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    arrays = Arena(model.shapes, ckpt.flat.copy())
    arrays["lstm_fwd.b"][0] = np.inf
    arrays["global.Wout"][1, 2] = np.nan
    with pytest.raises(CorruptPayloadError, match=r"array lstm_fwd\.b contains NaN/Inf"):
        replace(ckpt, flat=arrays.flat).build_model()


# --- evaluation / prediction -------------------------------------------

def test_evaluate_schema(tiny_run):
    tax, corpus, table, tr, va, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    rep = evaluate_model(model, te, ks=(1, 2))
    assert isinstance(rep, MetricsReport)
    assert set(rep.p_at_k) == {1, 2}
    assert 0.0 <= rep.violation_rate <= 1.0
    assert rep.n_documents == len(te)
    assert rep.n_classes == tax.total_classes
    d = json.loads(rep.to_json())
    assert "macro_f1" in d


def test_evaluate_beats_random_baseline(tiny_run):
    tax, corpus, table, tr, va, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    rep = evaluate_model(model, te, ks=(1,))
    # 4 equiprobable leaves: random top-1 has expected P@1 = 0.25
    assert rep.p_at_k[1] > 0.5


def test_evaluate_k_clamp_warns(tiny_run):
    *_, te, cfg, ckpt, hist = tiny_run[3:]
    model, _ = ckpt.build_model()
    with pytest.warns(UserWarning):
        rep = evaluate_model(model, te, ks=(100,))
    assert 100 in rep.p_at_k


def test_evaluate_top1_is_predict_top_leaf(tiny_run):
    tax, corpus, table, tr, va, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    # relabel each document with predict's top leaf: evaluate_model's top-1
    # must then hit on every document, so each predicted leaf has precision
    # and recall 1 and every other leaf 0
    docs = tuple(replace(d, leaf_labels=(predict(model, d)["top_leaves"][0][0],))
                 for d in corpus)
    rep = evaluate_model(model, Corpus(docs, corpus.taxonomy_hash), ks=(1,))
    hit = len({d.leaf_labels[0] for d in docs}) / len(tax.labels_at_level(tax.depth))
    assert rep.p_at_k[1] == 1.0
    assert rep.macro_p == rep.macro_r == hit


def test_evaluate_taxonomy_mismatch(tiny_run, small_synth):
    *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    other_corpus = small_synth[1]
    with pytest.raises(TaxonomyMismatchError):
        evaluate_model(model, other_corpus)


@pytest.mark.parametrize("part", ["corpus", "test_split"])
def test_evaluate_matches_per_document_oracle(tiny_run, part):
    tax, corpus, table, tr, va, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    data = corpus if part == "corpus" else te
    for threshold in (0.5, 0.9):
        want = oracles.evaluate_per_document(model, data, ks=(1, 2), threshold=threshold)
        got = evaluate_model(model, data, ks=(1, 2), threshold=threshold)
        assert got.to_json() == want.to_json()


def test_evaluate_empty_corpus(tiny_run):
    tax, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    rep = evaluate_model(model, Corpus((), tax.content_hash()), ks=(1, 2))
    assert rep == MetricsReport(macro_p=0.0, macro_r=0.0, macro_f1=0.0,
                                p_at_k={1: 0.0, 2: 0.0}, violation_rate=0.0,
                                n_documents=0, n_classes=tax.total_classes)


def test_evaluate_one_forward_per_chunk(tiny_run, monkeypatch):
    tax, corpus, *_, ckpt, hist = tiny_run
    data = Corpus(corpus.documents[:-1], corpus.taxonomy_hash)    # a short last chunk
    calls = {name: [] for name in ("forward", "label_matrices", "predict_scores")}
    for name, seen in calls.items():
        fn = getattr(Model, name)
        monkeypatch.setattr(Model, name,
                            lambda self, *a, _fn=fn, _seen=seen: _seen.append(1) or _fn(self, *a))
    predicted = []
    monkeypatch.setattr(training_module, "predict", lambda *a, **kw: predicted.append(1))
    # 7 documents: one chunk at the module's limits, ceil(7 / 3) = 3 at three
    # documents a chunk, whatever the config's batch_size
    assert ckpt.config.batch_size == 4
    for limit, chunks in ((model_module._SCORE_DOCS, 1), (3, 3)):
        monkeypatch.setattr(model_module, "_SCORE_DOCS", limit)
        model, _ = ckpt.build_model()
        for seen in calls.values():
            seen.clear()
        evaluate_model(model, data, ks=(1,))
        # each document's row is read through predict_scores, without a forward of
        # its own; the built model's label matrices are built once for all chunks
        assert {name: len(seen) for name, seen in calls.items()} == {
            "forward": chunks, "label_matrices": 1, "predict_scores": len(data)}
    assert not predicted


def test_scoring_block_serves_batch_rows(tiny_run, monkeypatch):
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    docs, other = corpus.documents[:5], corpus.documents[5]
    # documents of one length, at most 4 a chunk: the chunks are docs[:4] and docs[4:]
    size = 4
    monkeypatch.setattr(model_module, "_SCORE_DOCS", size)
    assert len({len(d.tokens) for d in docs}) == 1
    chunks = [model.predict_scores_batch(docs[:size]), model.predict_scores_batch(docs[size:])]
    alone = model.predict_scores(other)
    forwards = []
    fn = Model.forward
    monkeypatch.setattr(Model, "forward", lambda self, *a: forwards.append(1) or fn(self, *a))
    with model.scoring(docs):
        assert len(forwards) == 2
        for i, doc in enumerate(docs):
            pred, batch, r = model.predict_scores(doc), chunks[i // size], i % size
            assert np.array_equal(pred.fused_scores, batch.fused_scores[r])
            assert np.array_equal(pred.global_scores, batch.global_scores[r])
            for got, want in zip(pred.local_scores, batch.local_scores, strict=True):
                assert np.array_equal(got, want[r])
        assert len(forwards) == 2
        # a document outside the block's chunks is scored on its own
        assert np.array_equal(model.predict_scores(other).fused_scores, alone.fused_scores)
        assert len(forwards) == 3
    model.predict_scores(docs[0])                 # the rows are not kept after the block
    assert len(forwards) == 4


def test_evaluate_chunks_follow_length_order(tiny_run, monkeypatch):
    """evaluate_model scores a ragged corpus in chunks taken in a stable
    longest-first order of token counts, each closed before a document that
    would bring it past _SCORE_DOCS documents or _SCORE_ROWS token rows,
    then reads each document's own row through predict_scores once, in
    corpus order; documents of one short length keep the chunks
    docs[i:i + _SCORE_DOCS]."""
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    # token counts 4, 7, 2, 7, 5, 3, 5 (the keyword included), ties at 7 and 5;
    # longest first, the positions run 1, 3, 4, 6, 0, 5, 2
    ragged = [replace(d, title_tokens=(d.title_tokens * 2)[:n])
              for d, n in zip(corpus.documents, (3, 6, 1, 6, 4, 2, 4))]
    assert [len(d.tokens) for d in ragged] == [4, 7, 2, 7, 5, 3, 5]
    # 130 documents of 6 tokens, distinct objects: 64 of them are 384 rows
    one_length = [replace(d, id=f"{d.id}.{i}")
                  for i in range(17) for d in corpus.documents][:130]
    assert len({len(d.tokens) for d in one_length}) == 1
    chunks, reads = [], []
    forward, predict_scores = Model.forward, Model.predict_scores

    def recording_forward(self, docs):
        chunks.append(list(docs))
        return forward(self, docs)

    def recording_predict_scores(self, doc):
        reads.append((doc, predict_scores(self, doc)))
        return reads[-1][1]

    monkeypatch.setattr(Model, "forward", recording_forward)
    monkeypatch.setattr(Model, "predict_scores", recording_predict_scores)
    cases = [
        (ragged, 4, 4096, [[1, 3, 4, 6], [0, 5, 2]]),          # the document limit splits
        (ragged, 64, 12, [[1], [3, 4], [6, 0, 5], [2]]),       # the row limit, 12 rows fit
        (ragged, 64, 6, [[1], [3], [4], [6], [0], [5, 2]]),    # 7 > 6 rows: scored alone
        (ragged, 64, 4096, [[1, 3, 4, 6, 0, 5, 2]]),
        (one_length, 64, 4096, [range(0, 64), range(64, 128), range(128, 130)]),
        (one_length[:6], 4, 4096, [[0, 1, 2, 3], [4, 5]]),
    ]
    for docs, max_docs, max_rows, want in cases:
        monkeypatch.setattr(model_module, "_SCORE_DOCS", max_docs)
        monkeypatch.setattr(model_module, "_SCORE_ROWS", max_rows)
        chunks.clear()
        reads.clear()
        evaluate_model(model, Corpus(tuple(docs), corpus.taxonomy_hash), ks=(1,))
        assert [[id(doc) for doc in chunk] for chunk in chunks] == \
            [[id(docs[b]) for b in run] for run in want]
        assert [id(doc) for doc, _ in reads] == [id(doc) for doc in docs]
        for doc, pred in reads:                   # its own row, not a neighbour's
            alone = predict_scores(model, doc)
            np.testing.assert_allclose(pred.fused_scores, alone.fused_scores, atol=1e-6)


def _counting_label_matrices(monkeypatch):
    calls = []
    fn = Model.label_matrices
    monkeypatch.setattr(Model, "label_matrices", lambda self: calls.append(1) or fn(self))
    return calls


def test_served_label_matrices_equal_fresh_build(tiny_run):
    tax, corpus, table, *_, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    uncached = Model(tax, table, cfg, params={k: v.copy() for k, v in model.params.items()})
    for doc in corpus.documents[:4]:
        got = model.predict_scores(doc)
        want = uncached.predict_scores(doc)
        assert got.fused_scores.tobytes() == want.fused_scores.tobytes()
        assert got.global_scores.tobytes() == want.global_scores.tobytes()
    cached = model._served_label_matrices()
    assert cached is model._served_label_matrices()
    for got, want in zip(cached, model.label_matrices(), strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_served_label_matrices_built_once(tiny_run, monkeypatch):
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    calls = _counting_label_matrices(monkeypatch)
    for i in range(20):
        predict(model, corpus.documents[i % len(corpus)])
    assert len(calls) == 1


def test_built_model_params_are_read_only(tiny_run):
    *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    assert not any(arr.flags.writeable for arr in model.params.values())
    with pytest.raises(ValueError, match="read-only"):
        model.params["embedding.table"][:-1] += 1.0
    with pytest.raises(ValueError, match="read-only"):
        model.params["embedding.table"][-1, 0] = 0.0


def test_built_model_table_shares_embedding_params(tiny_run):
    *_, ckpt, hist = tiny_run
    model, _ = load_checkpoint(save_checkpoint(ckpt)).build_model()
    emb = model.params["embedding.table"]
    assert np.shares_memory(model.table.vectors, emb[:-1])
    assert np.shares_memory(model.table.unk_vector, emb[-1])
    assert not np.shares_memory(model.table.vectors, model.table.unk_vector)
    assert model.table.index == {t: r for r, t in enumerate(ckpt.embedding_tokens)}


def test_loaded_checkpoint_arrays_are_shared_with_model(tiny_run):
    *_, ckpt, hist = tiny_run
    blob = save_checkpoint(ckpt)
    loaded = load_checkpoint(blob)
    assert not loaded.flat.flags.writeable
    model, _ = loaded.build_model()
    assert np.shares_memory(model.params.flat, loaded.flat)
    assert save_checkpoint(loaded) == blob


def test_trained_checkpoint_arrays_stay_writable_and_unshared(tiny_run):
    *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    assert ckpt.flat.flags.writeable
    assert not np.shares_memory(model.params.flat, ckpt.flat)


def test_writable_params_rebuild_label_matrices(tiny_run, monkeypatch):
    tax, corpus, table, *_, cfg, ckpt, hist = tiny_run
    built, _ = ckpt.build_model()
    model = Model(tax, table, cfg, params={k: v.copy() for k, v in built.params.items()})
    doc = corpus.documents[0]
    before = model.predict_scores(doc).fused_scores
    calls = _counting_label_matrices(monkeypatch)
    model.params["embedding.table"][:-1] *= 2.0     # in place, as grad_check perturbs
    after = model.predict_scores(doc).fused_scores
    fresh = Model(tax, table, cfg, params={k: v.copy() for k, v in model.params.items()})
    assert len(calls) == 1
    assert not np.array_equal(after, before)
    assert after.tobytes() == fresh.predict_scores(doc).fused_scores.tobytes()


def test_new_params_rebuild_served_label_matrices(tiny_run, monkeypatch):
    tax, corpus, table, *_, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    doc = corpus.documents[0]
    before = model.predict_scores(doc).fused_scores
    params = {k: v.copy() for k, v in model.params.items()}
    params["embedding.table"][:-1] *= 2.0
    want = Model(tax, table, cfg, params={k: v.copy() for k, v in params.items()}
                 ).predict_scores(doc).fused_scores
    for arr in params.values():
        arr.setflags(write=False)
    calls = _counting_label_matrices(monkeypatch)
    model.params = params
    after = model.predict_scores(doc).fused_scores
    model.predict_scores(doc)
    assert len(calls) == 1
    assert not np.array_equal(after, before)
    assert after.tobytes() == want.tobytes()


def test_predict_scores_batch_rows_match_single_documents(tiny_run):
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    # a ragged batch: different lengths, every other document without keywords
    docs = [replace(d, title_tokens=(d.title_tokens * 3)[:n],
                    keywords=d.keywords if i % 2 else ())
            for i, (d, n) in enumerate(zip(corpus.documents, (9, 1, 14, 4, 6, 3)))]
    assert len({len(d.tokens) for d in docs}) == len(docs)
    assert any(d.keywords for d in docs)
    batch = model.predict_scores_batch(docs)
    assert batch.fused_scores.shape == batch.global_scores.shape == (len(docs), tax.total_classes)
    for r, doc in enumerate(docs):
        single = model.predict_scores(doc)
        np.testing.assert_allclose(batch.global_scores[r], single.global_scores, atol=1e-6)
        for got, want in zip(batch.local_scores, single.local_scores, strict=True):
            np.testing.assert_allclose(got[r], want, atol=1e-6)
        np.testing.assert_allclose(batch.fused_scores[r], single.fused_scores, atol=1e-6)


def test_predict_decoding(tiny_run):
    tax, corpus, *_ , ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    doc = corpus.documents[0]
    out = predict(model, doc, top_n=2, threshold=0.5)
    assert len(out["top_leaves"]) == 2
    assert out["fused_scores"].shape == (tax.total_classes,)
    scores = [s for _, s in out["top_leaves"]]
    assert scores == sorted(scores, reverse=True)
    # consistency enforcement: every kept child has its parent kept
    kept = {l for level in out["level_sets"] for l in level}
    for lid in kept:
        parent = tax.label(lid).parent
        assert parent is None or parent in kept


def test_predict_drops_child_of_unpicked_parent(tiny_run):
    """At a threshold between a child's score and its parent's lower one,
    the child scores above it but is not kept."""
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    for doc in corpus:
        fused = model.predict_scores(doc).fused_scores
        for lab in tax.labels:
            if lab.parent is None:
                continue
            child, parent = fused[tax.position[lab.id]], fused[tax.position[lab.parent]]
            if child > parent:
                out = predict(model, doc, threshold=float(child))
                kept = {l for level in out["level_sets"] for l in level}
                assert lab.id not in kept and lab.parent not in kept
                return
    pytest.fail("no document scores a child above its parent")


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_threshold_must_be_finite(tiny_run, threshold):
    tax, corpus, *_, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    with pytest.raises(ConfigRangeError, match="threshold must be finite"):
        predict(model, corpus.documents[0], threshold=threshold)
    with pytest.raises(ConfigRangeError, match="threshold must be finite"):
        evaluate_model(model, te, threshold=threshold)


def test_rank_cutoff_must_be_positive(tiny_run):
    tax, corpus, *_, te, cfg, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    for top_n in (0, -1):
        with pytest.raises(ConfigRangeError, match="k must be >= 1"):
            predict(model, corpus.documents[0], top_n=top_n)
    with pytest.raises(ConfigRangeError, match="k must be >= 1"):
        evaluate_model(model, te, ks=(0,))
    # checked before any document is scored, so an empty corpus is refused too
    with pytest.raises(ConfigRangeError, match="k must be >= 1"):
        evaluate_model(model, Corpus((), tax.content_hash()), ks=(1, 0))


def test_predict_unlabeled_document(tiny_run):
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    rec = {"id": "q1", "title": "some title",
           "abstract": " ".join(corpus.documents[0].abstract_tokens)}
    doc = make_unlabeled_document(rec, tax)
    out = predict(model, doc, top_n=1)
    assert len(out["top_leaves"]) == 1
    assert doc.leaf_labels == ()


def test_empty_document_rejected(tiny_run):
    tax, corpus, *_, ckpt, hist = tiny_run
    model, _ = ckpt.build_model()
    doc = corpus.documents[0]
    empty = replace(doc, title_tokens=(), abstract_tokens=(), keywords=())
    with pytest.raises(EmptyTextError):
        predict(model, empty)
    with pytest.raises(EmptyTextError):
        model.loss_and_grads([doc, empty])


def test_unlabeled_document_empty_text(tiny_run):
    tax = tiny_run[0]
    with pytest.raises(EmptyTextError):
        make_unlabeled_document({"id": "q2", "title": "", "abstract": ""}, tax)


@pytest.mark.parametrize("rec", [
    {"title": "x", "keywords": 5},
    [1, 2],
    {"title": "x", "keywords": "ab cd"},
    {"id": 7, "title": "x"},
])
def test_unlabeled_document_malformed(tiny_run, rec):
    with pytest.raises(MalformedRecordError):
        make_unlabeled_document(rec, tiny_run[0])

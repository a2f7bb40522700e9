"""Corrupt variants of a valid checkpoint, shared by the loader and CLI
tests.  Each case maps a valid checkpoint's bytes to corrupt bytes."""

import json
import struct
from dataclasses import replace

import numpy as np

from ahmca.training import load_checkpoint, save_checkpoint


def _edit_meta(blob, edit):
    """The checkpoint with its metadata JSON replaced by edit(meta)."""
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    meta_bytes = json.dumps(edit(json.loads(blob[20:20 + meta_len]))).encode()
    return blob[:12] + struct.pack("<Q", len(meta_bytes)) + meta_bytes + blob[20 + meta_len:]


def _edit_arrays(blob, edit):
    """The checkpoint re-saved with its arrays replaced by edit(arrays)."""
    ckpt = load_checkpoint(blob)
    return save_checkpoint(replace(ckpt, arrays=edit(dict(ckpt.arrays))))


def _set_first_entry(key, value):
    def edit(meta):
        meta["arrays"][0][key] = value
        return meta
    return edit


def _set_meta(key, edit_value):
    def edit(meta):
        meta[key] = edit_value(meta[key])
        return meta
    return edit


def _set_nan(name):
    def edit(arrays):
        arr = arrays[name].copy()
        arr.flat[0] = np.nan
        return {**arrays, name: arr}
    return edit


# rejected by load_checkpoint
LOAD_CASES = {
    "config_only": lambda b: _edit_meta(b, lambda m: {"config": {}}),
    "meta_list": lambda b: _edit_meta(b, lambda m: [m]),
    "no_taxonomy_hash": lambda b: _edit_meta(
        b, lambda m: {k: v for k, v in m.items() if k != "taxonomy_hash"}),
    "negative_offset": lambda b: _edit_meta(b, _set_first_entry("offset", -4)),
    "bad_shape": lambda b: _edit_meta(b, _set_first_entry("shape", [3, "x"])),
    "trailing_bytes": lambda b: b + b"\x00" * 4,
}

# loaded, then rejected by Checkpoint.build_model
BUILD_CASES = {
    "no_vectors": lambda b: _edit_arrays(
        b, lambda a: {k: v for k, v in a.items() if k != "embedding.vectors"}),
    "wrong_size_b1": lambda b: _edit_arrays(
        b, lambda a: {**a, "global.b1": np.zeros(len(a["global.b1"]) + 1, np.float32)}),
    "label_order_cut": lambda b: _edit_meta(
        b, _set_meta("label_order", lambda order: order[2::-1])),
    "token_repeated": lambda b: _edit_meta(
        b, _set_meta("embedding_tokens", lambda toks: [toks[1]] + toks[1:])),
    "token_not_string": lambda b: _edit_meta(
        b, _set_meta("embedding_tokens", lambda toks: [[toks[0]]] + toks[1:])),
    "nan_weight": lambda b: _edit_arrays(b, _set_nan("global.Wout")),
}

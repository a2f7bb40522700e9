"""Corrupt variants of a valid checkpoint, shared by the loader and CLI
tests.  Each case maps a valid checkpoint's bytes to corrupt bytes; every
case but trailing_bytes reseals the CRC-32 trailer, so that the check it
reaches is the one it names."""

import json
import struct
import zlib
from dataclasses import replace

import numpy as np

from ahmca.training import load_checkpoint, save_checkpoint


def reseal(body):
    """body (a checkpoint without its trailer) with a CRC-32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def _put_meta(blob, meta_bytes):
    """The checkpoint with its metadata text replaced by meta_bytes, resealed."""
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    return reseal(blob[:12] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                  + blob[20 + meta_len:-4])


def edit_meta(blob, edit):
    """The checkpoint with its metadata JSON replaced by edit(meta), resealed."""
    (meta_len,) = struct.unpack_from("<Q", blob, 12)
    return _put_meta(blob, json.dumps(edit(json.loads(blob[20:20 + meta_len]))).encode())


def _edit_flat(blob, edit):
    """The checkpoint re-saved with its payload replaced by edit(flat)."""
    ckpt = load_checkpoint(blob)
    return save_checkpoint(replace(ckpt, flat=edit(ckpt.flat)))


def _set_meta(key, edit_value):
    def edit(meta):
        meta[key] = edit_value(meta[key])
        return meta
    return edit


def _set_nan(flat):
    flat = flat.copy()
    flat[len(flat) // 2] = np.nan
    return flat


def _append_to_first_label(text):
    def edit(taxonomy_json):
        obj = json.loads(taxonomy_json)
        obj["labels"][0]["text"] += text
        return json.dumps(obj)      # a lone surrogate as its \u escape
    return edit


# rejected by load_checkpoint
LOAD_CASES = {
    "config_only": lambda b: edit_meta(b, lambda m: {"config": {}}),
    "meta_list": lambda b: edit_meta(b, lambda m: [m]),
    "no_taxonomy_hash": lambda b: edit_meta(
        b, lambda m: {k: v for k, v in m.items() if k != "taxonomy_hash"}),
    "trailing_bytes": lambda b: b + b"\x00" * 4,
    "meta_nested_too_deep": lambda b: _put_meta(b, b"[" * 100_000),
}

# loaded, then rejected by Checkpoint.build_model
BUILD_CASES = {
    "payload_float_short": lambda b: _edit_flat(b, lambda f: f[:-1]),
    "payload_float_long": lambda b: _edit_flat(b, lambda f: np.append(f, np.float32(0))),
    "label_order_cut": lambda b: edit_meta(
        b, _set_meta("label_order", lambda order: order[2::-1])),
    "token_repeated": lambda b: edit_meta(
        b, _set_meta("embedding_tokens", lambda toks: [toks[1]] + toks[1:])),
    "token_not_string": lambda b: edit_meta(
        b, _set_meta("embedding_tokens", lambda toks: [[toks[0]]] + toks[1:])),
    "token_lone_surrogate": lambda b: edit_meta(     # json.dumps writes its \u escape
        b, _set_meta("embedding_tokens", lambda toks: [toks[0] + "\ud800"] + toks[1:])),
    "nan_weight": lambda b: _edit_flat(b, _set_nan),
    "taxonomy_not_json": lambda b: edit_meta(b, _set_meta("taxonomy", lambda t: "not json")),
    "taxonomy_no_labels": lambda b: edit_meta(
        b, _set_meta("taxonomy", lambda t: '{"labels": []}')),
    "taxonomy_label_renamed": lambda b: edit_meta(
        b, _set_meta("taxonomy", _append_to_first_label(" renamed"))),
    "taxonomy_lone_surrogate": lambda b: edit_meta(
        b, _set_meta("taxonomy", _append_to_first_label(" \ud800"))),
}

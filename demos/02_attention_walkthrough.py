"""Walk one document through the attention stage by hand.

The encoder's hidden states are scored against each hierarchy level's
label texts spliced with the document's own keywords; each token keeps its
best match, and the (sum-normalized) weights pool the hidden states into
one document embedding per level.  Level 0 uses uniform weights and acts
as the "whole document" view.

Run: python3 demos/02_attention_walkthrough.py
"""

import numpy as np

from ahmca import Model, SynthSpec, TrainConfig, generate_synthetic
from ahmca.attention import attention_forward, splice_level, token_weights
from ahmca.encoder import bilstm_encode

spec = SynthSpec(level_sizes=(2, 4), docs_per_leaf=5, doc_length=10,
                 keywords_per_doc=2, leaf_vocab_size=8, noise_rate=0.0,
                 seed=1, embedding_dim=8)
tax, corpus, table = generate_synthetic(spec)
doc = corpus.documents[0]
print(f"document {doc.id}, leaf = {doc.leaf_labels[0]}")

# an untrained model owns the embedding lookup and the encoder weights
model = Model(tax, table, TrainConfig(k=table.dim, g=16, d_L=16), dtype=np.float64)

# embed and encode
X = model.embed(doc.tokens)
# the encoder takes a batch's token rows and its document lengths; this
# batch holds one document
(H_fwd, H_bwd), _ = bilstm_encode(X, [len(X)], model.params)
print(f"{len(doc.tokens)} tokens -> hidden states {H_fwd.shape} per direction")

# per-level contexts: label-text matrix spliced with the keyword vectors
label_mats = model.label_matrices()
Ke = model.embed(doc.keywords)
contexts = [splice_level(T, Ke) for T in label_mats]
for i, ctx in enumerate(contexts, start=1):
    print(f"level {i} context: {label_mats[i-1].shape[0]} labels "
          f"+ {Ke.shape[0]} keywords -> {ctx.shape}")

# raw weights: each token's best similarity against the context rows
w1 = token_weights(H_fwd, contexts[0])
top = np.argsort(-w1)[:3]
print("\nstrongest level-1 tokens (forward direction):")
for j in top:
    print(f"  {doc.tokens[j]:<14} raw weight {w1[j]: .4f}")

xs, _ = attention_forward(H_fwd, H_bwd, contexts, mode="sum_normalized")
print(f"\nlevel embeddings x^0..x^{tax.depth}, each of size {xs[0].shape[0]}:")
for i, x in enumerate(xs):
    print(f"  |x^{i}| = {np.linalg.norm(x):.4f}")

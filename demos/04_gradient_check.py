"""Verify the hand-written backward pass against finite differences.

Every gradient in this package is derived by hand (LSTM BPTT, the
winner-takes-gradient attention backward, the two-flow head), so the
whole pipeline is checked end to end: perturb each parameter, take a
central difference of the loss, and compare with the analytic gradient.

Run: python3 demos/04_gradient_check.py   (~10 s)
"""

import numpy as np

from ahmca import SynthSpec, generate_synthetic
from ahmca.model import Model
from ahmca.numerics import grad_check
from ahmca.training import TrainConfig

spec = SynthSpec(level_sizes=(2, 2), docs_per_leaf=2, doc_length=5,
                 keywords_per_doc=1, leaf_vocab_size=5, noise_rate=0.0,
                 seed=3, embedding_dim=4)
tax, corpus, table = generate_synthetic(spec)
doc = corpus.documents[0]
print(f"checking gradients on document {doc.id} ({len(doc.tokens)} tokens)")

model = Model(tax, table, TrainConfig(k=4, g=8, d_L=8, seed=0), dtype=np.float64)
# nudge every parameter off its init so no relu sits exactly on its kink
rng = np.random.default_rng(1)
point = {k: v + rng.normal(0, 0.01, v.shape) for k, v in model.params.items()}


def f(params):
    model.params = params
    (loss,), grads = model.loss_and_grads([doc])
    return loss, grads


report = grad_check(f, point, tolerance=1e-3)
print(f"\n{'parameter group':<24} max relative error")
for name in sorted(report.max_rel_error):
    print(f"{name:<24} {report.max_rel_error[name]:.3e}")
print(f"\nworst: {report.worst:.3e}  ->  {'PASS' if report.passed else 'FAIL'}")

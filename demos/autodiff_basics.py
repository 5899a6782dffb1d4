"""A tour of the reverse-mode autodiff engine that powers the classifier.

Each op result records its operation in a graph node: the op, its backward
closure and its inputs' nodes, but no values.  Calling
``backward`` on a scalar loss walks those nodes once, in a deterministic
order, letting go of each as it goes, and deposits gradients on every
reachable leaf.  Everything below runs the classifier's own ops: its output
layer and its class-weighted loss on the logits.
"""

import numpy as np

from emoconv import tensor as T
from emoconv import train as tr

# -- 1. the classifier's head -------------------------------------------------
# Two examples' 5-d features through the output layer (x @ w.T + b) to the
# four class logits, and the class-weighted cross-entropy on them.  The loss
# is one graph node over the output layer's node; it takes the log-softmax
# of the logits itself, through log-sum-exp.

rng = np.random.default_rng(0)
w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
x = T.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
b = T.Tensor(rng.normal(size=4), requires_grad=True)
labels = [2, 0]
weights = np.array([0.1, 0.2, 0.3, 0.4])

logits = T.linear_rows(x, w, b)
loss = tr.weighted_cross_entropy(logits, labels, weights)
print("loss value:", loss.item())
print("loss node:", loss.node, "over", loss.node.parents[0])

T.backward(loss)
print("dL/db:", b.grad)

# The loss is -mean(w_y * log p_y), with p the softmax of the logits, so its
# gradient wrt the logits is (p - onehot(y)) * w_y / B per row, and wrt b the
# sum of those rows.  softmax_rows gives p; it records no node.
probs = T.softmax_rows(logits)
onehot = np.eye(4)[labels]
expected = ((probs.values - onehot) * weights[labels][:, None] / 2).sum(axis=0)
print("matches (p - onehot) * w / B:", np.allclose(b.grad, expected))

# -- 2. gradients accumulate until reset ------------------------------------
# A graph's backward runs once: it lets go of each node as it walks, so the
# same loss cannot be walked again.  Build the loss a second time and its
# backward adds to the leaf gradients, which double; training loops call
# reset_grads between steps for exactly this reason.

try:
    T.backward(loss)
except RuntimeError as err:
    print("second backward through one graph:", err)
loss = tr.weighted_cross_entropy(T.linear_rows(x, w, b), labels, weights)
T.backward(loss)
print("after a second graph's backward, ratio:", b.grad[0] / expected[0])
T.reset_grads([w, x, b])

# -- 3. finite-difference checking ------------------------------------------
# Every operator in the engine is validated against central differences; the
# same helper is available for whole models.


def f(params):
    return tr.weighted_cross_entropy(T.linear_rows(x, params[0], b), labels, weights)


err = T.finite_diff_check(f, [w], eps=1e-6)
print(f"max relative error vs central differences: {err:.2e}")

# -- 4. clipping to a global norm -------------------------------------------
# The training loop scales every gradient so their global L2 norm is at most
# clip_norm; clip_gradients returns the factor it applied (1.0 when under).

T.reset_grads([w, x, b])
T.backward(f([w]))
named = {"w": w, "x": x, "b": b}
norm = np.sqrt(sum(float((T.grad_of(t) ** 2).sum()) for t in named.values()))
factor = tr.clip_gradients(named, max_norm=norm / 2)
print(f"global norm {norm:.4f}, clip factor {factor:.4f}")

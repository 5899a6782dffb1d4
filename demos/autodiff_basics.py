"""A tour of the reverse-mode autodiff engine that powers the classifier.

Tensors record the operation that produced them; calling ``backward`` on a
scalar loss walks that record once, in a deterministic order, and deposits
gradients on every reachable leaf.
"""

import numpy as np

from emoconv import tensor as T

# -- 1. a tiny expression ----------------------------------------------------
# loss = sum((x @ w.T + b)^2): the linear layer every model here is built on,
# applied to each of the two rows of x.

rng = np.random.default_rng(0)
w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
x = T.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
b = T.Tensor(rng.normal(size=3), requires_grad=True)

y = T.linear_rows(x, w, b)
loss = T.sum_all(T.mul(y, y))
print("loss value:", loss.item())

T.backward(loss)
print("dL/dw row 0:", w.grad[0])

# The analytic gradient of sum(y^2) wrt y is 2y, so wrt w it is 2 y^T @ x.
expected = 2.0 * y.values.T @ x.values
print("matches 2*y.T@x:", np.allclose(w.grad, expected))

# -- 2. gradients accumulate until reset ------------------------------------
# Backward twice without clearing and the leaf gradient doubles; training
# loops call reset_grads between steps for exactly this reason.

T.backward(loss)
print("after second backward, ratio:", w.grad[0, 0] / expected[0, 0])
T.reset_grads([w, x, b])

# -- 3. finite-difference checking ------------------------------------------
# Every operator in the engine is validated against central differences; the
# same helper is available for whole models.


def f(params):
    y = T.linear_rows(x, params[0], b)
    return T.sum_all(T.mul(y, y))


err = T.finite_diff_check(f, [w], eps=1e-6)
print(f"max relative error vs central differences: {err:.2e}")

# -- 4. a glance at the norms of everything ---------------------------------
report = T.grad_report({"w": w, "x": x, "b": b})
print(report)

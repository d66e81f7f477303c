"""Tape, backward, and a hand-rolled gradient-descent fit.

Everything the model stack does reduces to what this script shows:
record operations on a tape, pull gradients back, step the weights.
"""

import numpy as np

from tgsim import autodiff as ad
from tgsim.autodiff import Tape, Tensor, backward, grad_check, zero_grads

# A composite function and its gradient, checked against finite differences.
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
x = Tensor(rng.normal(size=(3, 3)))

def f(w, x):
    return ad.mean_all(ad.square(ad.tanh(ad.matmul(w, x))))

err = grad_check(f, [w, x], eps=1e-5)
print(f"gradient check on tanh(w @ x)^2: max relative error {err:.2e}")

# Fit a logistic curve y = sigmoid(a*t + b) to noisy draws of a known curve.
# The intercept rides along as a second weight on a constant row of ones,
# so one matmul computes a*t + b for all 40 points.
t = np.linspace(-3, 3, 40)
targets = 1.0 / (1.0 + np.exp(-(1.7 * t - 0.4))) + rng.normal(0, 0.02, t.size)

ab = Tensor([[0.0, 0.0]], requires_grad=True)
design = Tensor(np.vstack([t, np.ones_like(t)]))
y_row = Tensor(targets.reshape(1, -1))

for step in range(400):
    zero_grads([ab])
    with Tape():
        pred = ad.sigmoid(ad.matmul(ab, design))
        loss = ad.mean_all(ad.square(ad.subtract(pred, y_row)))
        backward(loss)
    ab.value -= 0.5 * ab.grad
    if step % 100 == 0:
        print(f"step {step:3d}  loss {loss.item():.5f}")

slope, intercept = ab.value[0]
print(f"fitted slope {slope:+.3f} (true +1.700), intercept {intercept:+.3f} (true -0.400)")

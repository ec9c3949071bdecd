"""Bias-corrected Adam; its moment decays and epsilon are Keras' defaults."""
from __future__ import annotations

import numpy as np


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-7

    def __init__(self, model, learning_rate=0.01):
        self.model = model
        self.lr = learning_rate
        self.step_count = 0
        self.m = {name: np.zeros_like(leaf.params[key])
                  for name, leaf, key in model.named_params()}
        self.v = {name: np.zeros_like(leaf.params[key])
                  for name, leaf, key in model.named_params()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, leaf, key in self.model.named_params():
            g = leaf.grads[key]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            leaf.params[key] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

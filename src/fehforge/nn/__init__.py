"""From-scratch differentiable layers, losses and the Adam optimizer.

A layer computes in its parameters' dtype: float32 as `zoo.build` makes a
model, float64 as a layer is constructed. Every layer implements an exact
backward pass, verified against central finite differences in float64 in
the test suite.
"""
from .layers import (BatchNorm1D, Conv1D, Dense, Dropout, GlobalAveragePool,
                     Layer, MaxPool1D, ReLU)
from .recurrent import GRU, LSTM
from .model import Add, Concat, Model, Sequential, iter_leaves
from .losses import weighted_mse
from .optim import Adam

__all__ = [
    "Layer", "Dense", "Conv1D", "BatchNorm1D", "ReLU", "Dropout",
    "MaxPool1D", "GlobalAveragePool", "GRU", "LSTM", "Sequential",
    "Concat", "Add", "Model", "iter_leaves",
    "weighted_mse", "Adam",
]

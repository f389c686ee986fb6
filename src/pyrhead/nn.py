"""Learnable linear maps and small MLPs on top of the autodiff engine."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .autodiff import Value, linear, relu


class Params:
    """Base of the parameter containers: each ``Value`` attribute is a
    parameter, named by its attribute path (``fusion.layers0.W``) through
    nested containers and lists of them, in attribute order."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Value]]:
        for attr, v in vars(self).items():
            if isinstance(v, Value):
                yield prefix + attr, v
            elif isinstance(v, Params):
                yield from v.named_parameters(f"{prefix}{attr}.")
            elif isinstance(v, list):
                for i, item in enumerate(v):
                    if isinstance(item, Params):
                        yield from item.named_parameters(f"{prefix}{attr}{i}.")

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()


@dataclass
class LinearParams(Params):
    """Weights of one affine map ``x @ W + b``."""

    W: Value
    b: Value

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @property
    def d_out(self) -> int:
        return self.W.shape[1]

    def __call__(self, x):
        return linear(x, self.W, self.b)


def init_linear(rng: np.random.Generator, d_in: int, d_out: int,
                zero: bool = False) -> LinearParams:
    if zero:
        W = np.zeros((d_in, d_out))
    else:
        # a map from no features (d_in = 0) draws an empty W without a 1/0
        W = rng.normal(0.0, 1.0 / np.sqrt(max(d_in, 1)), size=(d_in, d_out))
    return LinearParams(Value(W), Value(np.zeros(d_out)))


@dataclass
class MLPParams(Params):
    """Stack of affine layers, ReLU between them, identity on the output."""

    layers: list[LinearParams] = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.d_out != b.d_in:
                raise ValueError(
                    f"MLP layer widths do not chain: {a.d_out} -> {b.d_in}")

    @property
    def d_in(self) -> int:
        return self.layers[0].d_in

    @property
    def d_out(self) -> int:
        return self.layers[-1].d_out

    def __call__(self, x):
        for lyr in self.layers[:-1]:
            x = relu(lyr(x))
        return self.layers[-1](x)


def init_mlp(rng: np.random.Generator, widths: list[int],
             zero_last: bool = False) -> MLPParams:
    """Build an MLP with the given layer widths, e.g. [8, 64, 64]."""
    if len(widths) < 2:
        raise ValueError("an MLP needs at least one layer")
    layers = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        last = i == len(widths) - 2
        layers.append(init_linear(rng, a, b, zero=zero_last and last))
    return MLPParams(layers)

"""Named payoff library with hand-written derivatives.

Every payoff is total on R^d; at kinks the derivative callables return the
one-sided/zero convention so generator evaluations stay defined.  Each also
has an array form over the rows of an (n, d) array that equals its scalar
value bit for bit: `np.vecdot` sums a row's products the way `x @ x` does,
where `np.sum(X * X, 1)` can round differently for d = 2.
"""

from __future__ import annotations

import numpy as np

from .generator import TestFunction


def indicator_ge(c: float) -> TestFunction:
    """1 on {x^1 >= c}, 0 elsewhere; derivatives vanish a.e."""

    def value(x):
        return 1.0 if x[0] >= c else 0.0

    def gradient(x):
        return np.zeros_like(x)

    def hessian(x):
        d = x.shape[0]
        return np.zeros((d, d))

    def values(X):
        return np.where(X[:, 0] >= c, 1.0, 0.0)

    return TestFunction(f"indicator_ge({c!r})", value, gradient, hessian, values)


def min_cap(c: float) -> TestFunction:
    """min(x^1, c)."""

    def value(x):
        return min(float(x[0]), c)

    def gradient(x):
        g = np.zeros_like(x)
        g[0] = 1.0 if x[0] < c else 0.0
        return g

    def hessian(x):
        d = x.shape[0]
        return np.zeros((d, d))

    def values(X):
        return np.where(c < X[:, 0], c, X[:, 0])  # min's choice, NaN included

    return TestFunction(f"min_cap({c!r})", value, gradient, hessian, values)


def abs_payoff() -> TestFunction:
    """Euclidean norm of x; gradient/Hessian set to zero at the origin."""

    def value(x):
        return float(np.linalg.norm(x))

    def gradient(x):
        r = np.linalg.norm(x)
        if r == 0.0:
            return np.zeros_like(x)
        return x / r

    def hessian(x):
        d = x.shape[0]
        r = np.linalg.norm(x)
        if r == 0.0:
            return np.zeros((d, d))
        u = x / r
        return (np.eye(d) - np.outer(u, u)) / r

    def values(X):
        return np.sqrt(np.vecdot(X, X))

    return TestFunction("abs", value, gradient, hessian, values)


def square_payoff() -> TestFunction:
    """Squared Euclidean norm."""

    def value(x):
        return float(x @ x)

    def gradient(x):
        return 2.0 * x

    def hessian(x):
        return 2.0 * np.eye(x.shape[0])

    def values(X):
        return np.vecdot(X, X)

    return TestFunction("square", value, gradient, hessian, values)


def cos_payoff() -> TestFunction:
    """cos of the coordinate sum."""

    def value(x):
        return float(np.cos(np.sum(x)))

    def gradient(x):
        return -np.sin(np.sum(x)) * np.ones_like(x)

    def hessian(x):
        d = x.shape[0]
        return -np.cos(np.sum(x)) * np.ones((d, d))

    def values(X):
        return np.cos(np.sum(X, axis=1))

    return TestFunction("cos", value, gradient, hessian, values)


# name -> (builder, the parameters it takes, each a number)
_BUILDERS = {
    "indicator_ge": (indicator_ge, ("c",)),
    "min_cap": (min_cap, ("c",)),
    "abs": (abs_payoff, ()),
    "square": (square_payoff, ()),
    "cos": (cos_payoff, ()),
}


def make_payoff(name: str, **kwargs) -> TestFunction:
    if not isinstance(name, str) or name not in _BUILDERS:
        raise KeyError(f"unknown payoff {name!r}; available: {sorted(_BUILDERS)}")
    builder, params = _BUILDERS[name]
    for key in kwargs:
        if key not in params:
            raise ValueError(f"payoff {name!r} takes no parameter {key!r}")
    for key in params:
        if key not in kwargs:
            raise ValueError(f"payoff {name!r} needs the parameter {key!r}")
        if isinstance(kwargs[key], bool):
            raise ValueError(f"payoff {name!r} needs a number for {key!r}, got {kwargs[key]!r}")
    return builder(*(float(kwargs[key]) for key in params))

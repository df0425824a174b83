"""Named payoff library with hand-written derivatives.

Every payoff is total on R^d; at kinks the derivative callables return the
one-sided/zero convention so generator evaluations stay defined.  Each is
written once, as its array form over the rows of an (n, d) array, and its
scalar value is the one-row case of that form (see _payoff).  `np.vecdot`
sums a row's products the way `x @ x` does, where `np.sum(X * X, 1)` can
round differently for d = 2.
"""

from __future__ import annotations

import numpy as np

from .generator import TestFunction


def _payoff(name: str, values, gradient, hessian) -> TestFunction:
    """The payoff whose array form is `values`; its scalar value is
    values(x[None, :])[0], so the two agree bit for bit by construction."""
    return TestFunction(name, lambda x: float(values(x[None, :])[0]), gradient, hessian, values)


def _zero_hessian(x):
    d = x.shape[0]
    return np.zeros((d, d))


def indicator_ge(c: float) -> TestFunction:
    """1 on {x^1 >= c}, 0 elsewhere; derivatives vanish a.e."""

    def values(X):
        return np.where(X[:, 0] >= c, 1.0, 0.0)

    return _payoff(f"indicator_ge({c!r})", values, np.zeros_like, _zero_hessian)


def min_cap(c: float) -> TestFunction:
    """min(x^1, c)."""

    def values(X):
        return np.where(c < X[:, 0], c, X[:, 0])  # min's choice, NaN included

    def gradient(x):
        g = np.zeros_like(x)
        g[0] = 1.0 if x[0] < c else 0.0
        return g

    return _payoff(f"min_cap({c!r})", values, gradient, _zero_hessian)


def abs_payoff() -> TestFunction:
    """Euclidean norm of x; gradient/Hessian set to zero at the origin."""

    def values(X):
        return np.sqrt(np.vecdot(X, X))

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

    return _payoff("abs", values, gradient, hessian)


def square_payoff() -> TestFunction:
    """Squared Euclidean norm."""

    def values(X):
        return np.vecdot(X, X)

    def gradient(x):
        return 2.0 * x

    def hessian(x):
        return 2.0 * np.eye(x.shape[0])

    return _payoff("square", values, gradient, hessian)


def cos_payoff() -> TestFunction:
    """cos of the coordinate sum."""

    def values(X):
        return np.cos(np.sum(X, axis=1))

    def gradient(x):
        return -np.sin(np.sum(x)) * np.ones_like(x)

    def hessian(x):
        d = x.shape[0]
        return -np.cos(np.sum(x)) * np.ones((d, d))

    return _payoff("cos", values, gradient, hessian)


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

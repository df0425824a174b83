"""Named payoff library with hand-written derivatives.

Every payoff is total on R^d; at kinks the derivative callables return the
one-sided/zero convention so generator evaluations stay defined.
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

    return TestFunction(f"indicator_ge({c!r})", value, gradient, hessian)


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

    return TestFunction(f"min_cap({c!r})", value, gradient, hessian)


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

    return TestFunction("abs", value, gradient, hessian)


def square_payoff() -> TestFunction:
    """Squared Euclidean norm."""

    def value(x):
        return float(x @ x)

    def gradient(x):
        return 2.0 * x

    def hessian(x):
        return 2.0 * np.eye(x.shape[0])

    return TestFunction("square", value, gradient, hessian)


def cos_payoff() -> TestFunction:
    """cos of the coordinate sum."""

    def value(x):
        return float(np.cos(np.sum(x)))

    def gradient(x):
        return -np.sin(np.sum(x)) * np.ones_like(x)

    def hessian(x):
        d = x.shape[0]
        return -np.cos(np.sum(x)) * np.ones((d, d))

    return TestFunction("cos", value, gradient, hessian)


_BUILDERS = {
    "indicator_ge": lambda **kw: indicator_ge(float(kw["c"])),
    "min_cap": lambda **kw: min_cap(float(kw["c"])),
    "abs": lambda **kw: abs_payoff(),
    "square": lambda **kw: square_payoff(),
    "cos": lambda **kw: cos_payoff(),
}


def make_payoff(name: str, **kwargs) -> TestFunction:
    if name not in _BUILDERS:
        raise KeyError(f"unknown payoff {name!r}; available: {sorted(_BUILDERS)}")
    try:
        return _BUILDERS[name](**kwargs)
    except KeyError as exc:
        raise ValueError(f"payoff {name!r} needs the parameter {exc}") from exc

"""Smooth PL objectives with noisy gradient oracles for convergence studies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ProblemSpec", "quadratic_problem"]


@dataclass
class ProblemSpec:
    """A smooth, PL objective with known curvature constants.

    The stochastic gradient adds isotropic Gaussian noise scaled so that
    E||noise||^2 == noise_sigma**2.  `matrix`/`linear` are set for quadratic
    instances and let the lattice oracles use exact separable minimization.
    """

    dimension: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    pl_constant: float
    smoothness: float
    noise_sigma: float = 0.0
    minimizer: np.ndarray | None = None
    optimal_value: float | None = None
    matrix: np.ndarray | None = None
    linear: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.pl_constant <= self.smoothness:
            raise ValueError(
                f"need 0 < alpha <= beta, got alpha={self.pl_constant}, "
                f"beta={self.smoothness}"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    def stochastic_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        g = self.gradient(x)
        if self.noise_sigma > 0:
            g = g + (self.noise_sigma / math.sqrt(self.dimension)) * rng.standard_normal(
                self.dimension
            )
        return g

    def is_diagonal_quadratic(self) -> bool:
        if self.matrix is None:
            return False
        off = self.matrix - np.diag(np.diag(self.matrix))
        return not np.any(off)


def quadratic_problem(A, b=None, sigma: float = 0.0) -> ProblemSpec:
    """f(x) = x'Ax/2 - b'x for symmetric positive definite A.

    Curvature constants come from the extreme eigenvalues: the quadratic is
    beta-smooth with beta = lambda_max(A) and alpha-PL with
    alpha = lambda_min(A).  Non-SPD matrices are rejected via Cholesky.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if not np.allclose(A, A.T):
        raise ValueError("A must be symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("A must be positive definite") from exc
    n = A.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},), got {b.shape}")
    eigs = np.linalg.eigvalsh(A)
    alpha, beta = float(eigs[0]), float(eigs[-1])
    x_star = np.linalg.solve(A, b)
    f_star = float(0.5 * x_star @ A @ x_star - b @ x_star)
    return ProblemSpec(
        dimension=n,
        objective=lambda x: float(0.5 * x @ A @ x - b @ x),
        gradient=lambda x: A @ x - b,
        pl_constant=alpha,
        smoothness=beta,
        noise_sigma=sigma,
        minimizer=x_star,
        optimal_value=f_star,
        matrix=A,
        linear=b,
    )

"""Exact finite distributions on the unit interval.

A :class:`StepDistribution` is a finite list of (value, weight) atoms with
positive weights summing to one.  It is the common currency between the
hypercube layer (which produces laws of sign functions) and the symmetric
space layer (whose norms depend only on the law of a function).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

MERGE_TOL = 1e-12  # relative: atoms closer than MERGE_TOL * max |value| merge
WEIGHT_TOL = 1e-12


class StepDistribution:
    """Finite distribution with atoms sorted by value.

    Attributes
    ----------
    values : ndarray of float, strictly sorted ascending after merging
    weights : ndarray of float, positive, summing to 1 within 1e-12
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        values = np.asarray(values, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if values.size == 0:
            raise InvalidArgumentError("distribution needs at least one atom")
        if values.shape != weights.shape:
            raise InvalidArgumentError("values and weights must have equal length")
        if np.any(weights <= 0):
            raise InvalidArgumentError("atom weights must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidArgumentError(f"atom weights sum to {total!r}, not 1")
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        values, weights = _merge_close(values, weights)
        self.values = values
        self.values.setflags(write=False)
        self.weights = weights
        self.weights.setflags(write=False)

    @classmethod
    def from_atoms(cls, atoms):
        """Build from an iterable of (value, weight) pairs."""
        atoms = list(atoms)
        vals = [a[0] for a in atoms]
        wts = [a[1] for a in atoms]
        return cls(vals, wts)

    @classmethod
    def point_mass(cls, value):
        return cls([float(value)], [1.0])

    @classmethod
    def indicator(cls, t):
        """Law of the indicator of a set of measure ``t`` in [0, 1]."""
        if not 0.0 < t <= 1.0:
            raise InvalidArgumentError(f"measure must lie in (0, 1], got {t}")
        if t == 1.0:
            return cls.point_mass(1.0)
        return cls([0.0, 1.0], [1.0 - t, t])

    def atoms(self):
        return list(zip(self.values.tolist(), self.weights.tolist()))

    def __len__(self):
        return int(self.values.size)

    def __repr__(self):
        return f"StepDistribution({len(self)} atoms on [{self.values[0]:g}, {self.values[-1]:g}])"

    def moment(self, p):
        """E|X|^p exactly from the atoms."""
        return float(np.sum(np.abs(self.values) ** p * self.weights))

    def lp_norm(self, p):
        # scale by the largest atom so huge p cannot overflow
        top = self.max_abs()
        if top == 0.0:
            return 0.0
        ratios = np.abs(self.values) / top
        return top * float(np.sum(ratios**p * self.weights)) ** (1.0 / p)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def scaled(self, c):
        return StepDistribution(self.values * c, self.weights)

    def cdf(self):
        """Right-continuous CDF at the atoms: F(x_i) = P(X <= x_i)."""
        return np.cumsum(self.weights)

    def abs_distribution(self):
        return StepDistribution(np.abs(self.values), self.weights)


def _merge_close(values, weights):
    """Merge consecutive atoms whose values differ by at most
    ``MERGE_TOL * max(|v_first|, |v_last|)``, the largest |value| of the sorted atoms.

    The tolerance scales with the law, so merging commutes with scaling.
    The merged value is the weight-averaged representative, which keeps
    moments of the merged law within relative MERGE_TOL of the original.
    """
    top = max(abs(values[0]), abs(values[-1]))  # the atoms are sorted
    tol = MERGE_TOL * top if top < np.inf else MERGE_TOL  # absolute beside an infinite atom
    brk = np.nonzero(np.diff(values) > tol)[0] + 1
    starts = np.concatenate([[0], brk])
    if starts.size == values.size:
        return values, weights
    wsum = np.add.reduceat(weights, starts)
    vsum = np.add.reduceat(values * weights, starts)
    return vsum / wsum, wsum

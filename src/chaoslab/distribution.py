"""Exact finite distributions on the unit interval.

A :class:`StepDistribution` is a finite list of (value, weight) atoms with
positive weights summing to one.  It is the common currency between the
hypercube layer (which produces laws of sign functions) and the symmetric
space layer (whose norms depend only on the law of a function).
"""

from __future__ import annotations

import math

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

    __slots__ = ("values", "weights", "_abs")

    def __init__(self, values, weights):
        values = np.asarray(values, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if values.size == 0:
            raise InvalidArgumentError("distribution needs at least one atom")
        if values.shape != weights.shape:
            raise InvalidArgumentError("values and weights must have equal length")
        if np.isnan(values).any():
            raise InvalidArgumentError("atom values must not be NaN")
        if not (weights > 0).all():  # NaN too
            raise InvalidArgumentError("atom weights must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise InvalidArgumentError(f"atom weights sum to {total!r}, not 1")
        order = np.argsort(values, kind="stable")
        _settle(self, values[order], weights[order])

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
        """E|X|^p exactly from the signed atoms, summed in value order."""
        return float(np.sum(np.abs(self.values) ** p * self.weights))

    def lp_norm(self, p):
        if not p >= 1:  # NaN too
            raise InvalidArgumentError(f"L_p needs p >= 1, got {p}")
        # scale by the largest atom so huge p cannot overflow
        law = self.abs_distribution()
        top = float(law.values[-1])
        if top == 0.0:
            return 0.0
        return top * float(np.sum((law.values / top) ** p * law.weights)) ** (1.0 / p)

    def max_abs(self):
        return float(max(abs(self.values[0]), abs(self.values[-1])))  # the atoms are sorted

    def scaled(self, c):
        return StepDistribution(self.values * c, self.weights)

    def cdf(self):
        """Right-continuous CDF at the atoms: F(x_i) = P(X <= x_i)."""
        return np.cumsum(self.weights)

    def abs_distribution(self):
        """The law of |X| that every norm reads: |v| ascending, weighted w(v) + w(-v),
        a sum of two that does not depend on its order, so -X has this law bit for
        bit.  A law with no negative atom (and no -0.0) is its own; another law
        builds it on the first read and keeps it for the next."""
        if math.copysign(1.0, self.values[0]) > 0:  # no negative atom, and no -0.0
            return self
        if self._abs is None:
            values = np.abs(self.values)
            order = np.argsort(values, kind="stable")  # two sorted runs: -v reversed, then v
            values, weights = values[order], self.weights[order]
            starts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
            # the atoms of a checked law, sorted: only merging is left to do
            self._abs = _settle(object.__new__(StepDistribution), values[starts],
                                np.add.reduceat(weights, starts))
        return self._abs


def _settle(law, values, weights):
    """Give ``law`` the checked atoms, sorted by value: merged and read-only."""
    law._abs = None
    law.values, law.weights = _merge_close(values, weights)
    law.values.setflags(write=False)
    law.weights.setflags(write=False)
    return law


def _merge_close(values, weights):
    """Merge consecutive atoms whose values differ by at most
    ``MERGE_TOL * max(|v_first|, |v_last|)``, the largest |value| of the sorted atoms.

    The tolerance scales with the law, so merging commutes with scaling.
    The merged value is the weight-averaged representative, which keeps
    moments of the merged law within relative MERGE_TOL of the original.
    """
    top = max(abs(values[0]), abs(values[-1]))  # the atoms are sorted
    tol = MERGE_TOL * top if top < np.inf else MERGE_TOL  # absolute beside an infinite atom
    apart = values[1:] - values[:-1] > tol
    if apart.all():
        return values, weights
    starts = np.concatenate([[0], np.flatnonzero(apart) + 1])
    wsum = np.add.reduceat(weights, starts)
    vsum = np.add.reduceat(values * weights, starts)
    # a sum of three or more depends on its order, which negating the law reverses;
    # math.fsum rounds once, so -X merges to the negated atoms bit for bit
    ends = np.append(starts[1:], values.size)
    for g in np.flatnonzero(ends - starts > 2):
        group = slice(starts[g], ends[g])
        wsum[g], vsum[g] = math.fsum(weights[group]), math.fsum(values[group] * weights[group])
    return vsum / wsum, wsum

"""Kendall distribution functions and conditional tail measures.

The central object is the multivariate probability integral transform
W = F_X(X) of a conditioning vector X.  Its distribution function K
(the Kendall function) turns "X is jointly extreme" into a scalar
event {W <= t}, which lets a single number summarise how the tail of a
target variable Y reacts to joint extremes of several drivers:

* ``KendallFunction`` is K of a sample, the step CDF of the collapse
  values below.  The tail measures build it from their one count of the
  sample and read their thresholds off its ``inverse``.
* ``lambda_kendall`` estimates the conditional tail probabilities of Y
  given that X falls in a lower/upper Kendall region of mass alpha,
  along a grid of shrinking alphas, and extrapolates to the limit
  coefficient, both sides at once.
* ``scenario_tail_coefficient`` evaluates an hour's mixed high/low
  scenarios (e.g. high demand with low wind) as the upper measure on
  reflected coordinates of a sample, each scenario a
  ``(letters, target)`` pair such as ``("HL", "H")``.  Every scenario's
  strict count follows by inclusion-exclusion from one lower-orthant
  count per column subset, shared by all of the hour's patterns.

Both estimators take the target Y in column 0 and X in the columns
after it, and count every row they are given: the caller picks the rows.
Their Monte Carlo standard error is binomial, sqrt(q (1 - q) / n) on
the n conditioning rows, the error of i.i.d. rows.  On a
``vine.simulate`` draw, randomized quasi-Monte Carlo, it overstates the
spread of the estimate over seeds (by 1.3 to 2.5 times on fitted
hours), so it is conservative there.

Everything here is estimated by counting on finite samples; no
parametric form is assumed for the copula that links W and Y.  The
counting conventions are spelled out below because tests rely on exact
(not approximate) agreement with brute-force re-counts:

* the Kendall collapse uses strict dominance, W_i = #{j : x_j < x_i
  componentwise} / m, which keeps the bound K(t) >= t exact even for
  comonotone samples;
* the conditioning event compares the empirical joint CDF values
  (weak dominance, the row itself included) against the Kendall
  quantile t_alpha = inf{t : K(t) >= alpha};
* target ranks use the empirical CDF U_i = #{j : y_j <= y_i} / m, with
  the lower event {U_i <= beta} and the upper event {U_i > 1 - beta}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .counting import (
    cross_weak_counts,
    has_column_ties,
    strict_dominance_counts,
    weak_dominance_counts,
)
from .errors import DomainError, ResolutionError

# Measures conditioned on fewer sample points than this are flagged
# unreliable rather than silently returned.
RELIABILITY_FLOOR = 20

# Default alpha grid for coefficient extrapolation, decreasing in (0, 0.1].
DEFAULT_ALPHA_GRID = (0.10, 0.05, 0.02, 0.01)


class KendallFunction:
    """Empirical distribution function K(t) of the multivariate PIT W = F_X(X).

    A right-continuous step CDF over the sorted collapse values
    W_i = strict_counts[i] / m, built by the tail measures from one
    count of a sample.  ``evaluate`` is the CDF and ``inverse`` the
    generalized inverse, the smallest t with K(t) >= q.
    """

    def __init__(self, strict_counts, dim):
        self.n_obs = strict_counts.shape[0]
        self.dim = dim
        self._sorted_w = np.sort(strict_counts / self.n_obs)

    def evaluate(self, t):
        """K(t) for t in [0, 1]; scalar in, scalar out."""
        arr = _unit_interval(t, "Kendall function argument")
        out = np.searchsorted(self._sorted_w, arr, side="right") / self.n_obs
        return float(out) if arr.ndim == 0 else out

    def inverse(self, q):
        """Smallest t with K(t) >= q, for q in [0, 1]; scalar in, scalar out."""
        arr = _unit_interval(q, "Kendall quantile level")
        idx = np.ceil(arr * self.n_obs).astype(np.int64)
        out = self._sorted_w[np.clip(idx - 1, 0, self.n_obs - 1)]
        return float(out) if arr.ndim == 0 else out

    def __repr__(self):
        return f"KendallFunction(empirical, n_obs={self.n_obs}, dim={self.dim})"


def _unit_interval(value, what):
    arr = np.asarray(value, dtype=np.float64)
    if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0)):
        raise DomainError(f"{what} must lie in [0, 1]")
    return arr


def multivariate_pit(rows, reference):
    """Empirical joint CDF of ``reference`` evaluated at ``rows``.

    ``rows`` may be a single point (1-d) or a batch (2-d); the result is
    a float or a vector accordingly.  Reference points weakly below the
    row (<= in every coordinate) are counted, so evaluating the
    reference sample at itself includes each row in its own count.
    """
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2 or ref.shape[0] == 0:
        raise DomainError("reference must be a non-empty 2-d array")
    pts = np.asarray(rows, dtype=np.float64)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != ref.shape[1]:
        raise DomainError("rows and reference must share a column count")
    vals = cross_weak_counts(ref, pts) / ref.shape[0]
    if single:
        return float(vals[0])
    return vals


@dataclass(frozen=True)
class TailMeasureResult:
    """One estimated upper conditional tail measure, as a scenario reports it.

    ``ratio_vs_independence`` divides the value by beta, its value under
    independence, so 1 means "the Kendall scenario does nothing".
    """

    side: str
    value: float
    ratio_vs_independence: float
    alpha: float
    beta: float
    mc_stderr: float
    n_conditioning: int
    reliable: bool
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "side": self.side,
            "value": self.value,
            "ratio_vs_independence": self.ratio_vs_independence,
            "alpha": self.alpha,
            "beta": self.beta,
            "mc_stderr": self.mc_stderr,
            "n_conditioning": self.n_conditioning,
            "reliable": self.reliable,
            "metadata": dict(self.metadata),
        }


def _split_sample(sample):
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise DomainError("sample must be 2-d with a Y column and at least one X column")
    if arr.shape[0] < 2:
        raise DomainError("sample must contain at least two rows")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample must be finite")
    return arr[:, 1:], arr[:, 0]


class _Collapsed:
    """Shared counting state for one (X columns, Y column) sample.

    ``strict`` is the strict dominance count of the rows of ``x``.  The
    caller passes ``tied`` false only when no column of ``x`` holds a tie.
    """

    def __init__(self, x, y, strict, tied):
        m = x.shape[0]
        # Kendall collapse (strict); its inverse gives the thresholds.
        self.kendall = KendallFunction(strict, x.shape[1])
        # Conditioning values: empirical joint CDF (weak, self included);
        # without ties the weak count is the strict count plus the row itself.
        weak = weak_dominance_counts(x) if tied else strict + 1
        self.v = weak / m
        # Target ranks: empirical CDF of Y at the sample points.
        order = np.sort(y)
        self.u_y = np.searchsorted(order, y, side="right") / m

    def one_sided(self, alpha, beta, side):
        if side == "lower":
            cond = self.v <= self.kendall.inverse(alpha)
            hit = self.u_y <= beta
        else:
            cond = self.v >= self.kendall.inverse(1.0 - alpha)
            hit = self.u_y > 1.0 - beta
        n_cond = int(np.count_nonzero(cond))
        if n_cond == 0:
            raise ResolutionError("conditioning set is empty at this alpha")
        value = float(np.count_nonzero(cond & hit)) / n_cond
        stderr = math.sqrt(value * (1.0 - value) / n_cond)
        return value, stderr, n_cond


def _upper_measure(collapsed, alpha, beta, metadata):
    value, stderr, n_cond = collapsed.one_sided(alpha, beta, "upper")
    # The literal definition gives beta under independence; the published
    # remark normalises by 1 - beta instead.  Both are reported so
    # downstream consumers can pick their convention.
    return TailMeasureResult(
        side="upper",
        value=value,
        ratio_vs_independence=value / beta,
        alpha=float(alpha),
        beta=float(beta),
        mc_stderr=stderr,
        n_conditioning=n_cond,
        reliable=n_cond >= RELIABILITY_FLOOR,
        metadata={
            "remark_ratio": value / (1.0 - beta),
            "remark_note": (
                "ratio_vs_independence divides by beta (independence value of "
                "the literal definition); remark_ratio divides by 1 - beta"
            ),
            **metadata,
        },
    )


@dataclass(frozen=True)
class LambdaKendallResult:
    """Grid diagnostics and extrapolation for a tail coefficient.

    An alpha level whose conditioning set is empty holds NaN as its value
    and stderr; the JSON form writes ``null`` there, so a bundle stays
    strict JSON.
    """

    side: str
    alphas: tuple
    values: tuple
    stderrs: tuple
    n_conditioning: tuple
    reliable: tuple
    extrapolated: float
    point_estimate: float
    smallest_reliable_alpha: float

    def to_json_dict(self):
        return {
            "side": self.side,
            "alphas": list(self.alphas),
            "values": self._defined(self.values),
            "stderrs": self._defined(self.stderrs),
            "n_conditioning": list(self.n_conditioning),
            "reliable": list(self.reliable),
            "extrapolated": self.extrapolated,
            "point_estimate": self.point_estimate,
            "smallest_reliable_alpha": self.smallest_reliable_alpha,
        }

    def _defined(self, column):
        return [None if n == 0 else x for x, n in zip(column, self.n_conditioning)]


def lambda_kendall(sample, alpha_grid=DEFAULT_ALPHA_GRID):
    """Lower and upper tail coefficients of Y given joint extremes of X.

    Y is column 0 of ``sample``, X the columns after it, and every row
    counts.  Evaluates q^K(alpha, alpha) along a decreasing ``alpha_grid``
    in (0, 0.1], flags grid points whose conditioning set falls below the
    reliability floor, and extrapolates the reliable portion linearly
    in alpha to 0.  ``point_estimate`` is the measure at the smallest
    reliable alpha; ``extrapolated`` is the least-squares intercept.
    Both sides share one count of the sample and come back as
    ``{"lower": LambdaKendallResult, "upper": LambdaKendallResult}``.
    """
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise DomainError("alpha_grid must be non-empty")
    if any(not (0.0 < a <= 0.1) for a in alphas):
        raise DomainError("alpha_grid values must lie in (0, 0.1]")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alpha_grid must be strictly decreasing")
    x, y = _split_sample(sample)
    collapsed = _Collapsed(x, y, strict_dominance_counts(x), has_column_ties(x))
    return {side: _lambda_side(collapsed, alphas, side) for side in ("lower", "upper")}


def _lambda_side(collapsed, alphas, side):
    values, stderrs, counts, reliable = [], [], [], []
    for a in alphas:
        try:
            val, se, n_cond = collapsed.one_sided(a, a, side)
        except ResolutionError:
            val, se, n_cond = float("nan"), float("nan"), 0
        values.append(val)
        stderrs.append(se)
        counts.append(n_cond)
        reliable.append(n_cond >= RELIABILITY_FLOOR)

    good = [i for i, ok in enumerate(reliable) if ok]
    if not good:
        raise ResolutionError(
            f"no alpha in the grid leaves a reliable {side} conditioning set; "
            "enlarge the sample or the grid"
        )
    ga = np.array([alphas[i] for i in good])
    gv = np.array([values[i] for i in good])
    if len(good) == 1:
        intercept = float(gv[0])
    else:
        intercept = float(np.polyfit(ga, gv, 1)[1])
    intercept = min(max(intercept, 0.0), 1.0)
    smallest = alphas[good[-1]]
    return LambdaKendallResult(
        side=side,
        alphas=alphas,
        values=tuple(values),
        stderrs=tuple(stderrs),
        n_conditioning=tuple(counts),
        reliable=tuple(reliable),
        extrapolated=intercept,
        point_estimate=float(values[good[-1]]),
        smallest_reliable_alpha=smallest,
    )


def scenario_tail_coefficient(sample, patterns, alpha, beta):
    """Tail measures of a sample under an hour's mixed high/low scenarios.

    Each pattern is a ``(letters, target_direction)`` pair such as
    ``("HLL", "H")``: letter k, ``H`` or ``L``, is the direction of column
    k + 1, and the target is column 0; for another target or column
    order, permute the sample's columns.  All share ``alpha`` and ``beta``.

    Counts all m rows of ``sample`` (joint uniforms, such as a prefix of
    a ``vine.simulate`` draw; the results' ``n_mc`` is m) and returns one
    ``TailMeasureResult`` per pattern, in order.  Each is the upper Kendall
    measure of the pattern's working sample, in which every Low-direction
    coordinate is reflected (u -> 1 - u, target included), so the scenario
    always reads "target extreme in its direction given all conditioners
    extreme in theirs".  Reflection is driven entirely by the direction
    labels.

    The strict counts of the working samples come from lower-orthant
    counts of the unreflected sample.  With M_U(i) the number of rows
    strictly below row i on the columns U (M_empty = m), a pattern with
    conditioning columns C, Low among them S, has the strict count

        N_S(i) = sum over subsets T of S of (-1)^|T| M_{T | (C - S)}(i),

    less 1 when S = C: without ties, u_j > u_i is the complement of
    u_j < u_i for every row j != i.  Each M_U is counted once per call and
    shared by every pattern that needs it, and patterns with the same
    conditioning letters share N_S.  A tie in a conditioning column, or
    in a reflected column 1 - u (which merges values closer than about
    1.1e-16), breaks that complement, so then every pattern counts its
    reflected columns directly.  The sample's shape, the levels, alpha * m
    and every pattern are checked before the first count.
    """
    u = np.asarray(sample, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] < 2:
        raise DomainError("sample must be 2-d with a target and a conditioning column")
    m, d = u.shape
    if not (0.0 < alpha < 0.5) or not (0.0 < beta < 0.5):
        raise DomainError("alpha and beta must lie in (0, 0.5)")
    if alpha * m < RELIABILITY_FLOOR:
        raise ResolutionError(
            f"alpha*m = {alpha * m:.1f} leaves fewer than "
            f"{RELIABILITY_FLOOR} expected tail observations"
        )
    patterns = tuple(patterns)
    for letters, target in patterns:
        if not 0 < len(letters) < d or set(letters) - {"H", "L"}:
            raise DomainError(
                f"pattern {letters!r} needs 1 to {d - 1} letters, each H or L"
            )
        if target not in ("H", "L"):
            raise DomainError(f"target direction must be H or L, got {target!r}")
    width = max((len(letters) for letters, _ in patterns), default=0)
    if not np.all(np.isfinite(u[:, : width + 1])):
        raise DomainError("sample must be finite")

    low = sorted(
        {k + 1 for letters, _ in patterns for k, c in enumerate(letters) if c == "L"}
    )
    direct = has_column_ties(u[:, 1 : width + 1]) or has_column_ties(1.0 - u[:, low])
    lower_counts = {(): m}
    strict_counts = {}
    results = []
    for letters, target in patterns:
        x = np.column_stack(
            [
                1.0 - u[:, k + 1] if c == "L" else u[:, k + 1]
                for k, c in enumerate(letters)
            ]
        )
        y = 1.0 - u[:, 0] if target == "L" else u[:, 0]
        if letters not in strict_counts:
            strict_counts[letters] = (
                strict_dominance_counts(x)
                if direct
                else _orthant_counts(u, letters, lower_counts)
            )
        collapsed = _Collapsed(x, y, strict_counts[letters], direct)
        metadata = {
            "pattern": letters,
            "target": 0,
            "target_direction": target,
            "conditioning": [(k + 1, c) for k, c in enumerate(letters)],
            "n_mc": m,
        }
        results.append(_upper_measure(collapsed, alpha, beta, metadata))
    return tuple(results)


def _orthant_counts(u, letters, lower_counts):
    # N_S by inclusion-exclusion over the Low columns S; lower_counts caches
    # M_U by sorted column tuple and starts as {(): m}
    high = [k + 1 for k, c in enumerate(letters) if c == "H"]
    low = [k + 1 for k, c in enumerate(letters) if c == "L"]
    counts = np.zeros(u.shape[0], dtype=np.int64)
    for k in range(len(low) + 1):
        for t in combinations(low, k):
            key = tuple(sorted(high + list(t)))
            if key not in lower_counts:
                lower_counts[key] = strict_dominance_counts(u[:, list(key)])
            counts += (-1) ** k * lower_counts[key]
    if not high:
        counts -= 1
    return counts

"""R-vine copula models: structure selection, fitting, and simulation.

Tree 1 is the maximum spanning tree on the variables under the weight
|empirical Kendall tau|; deeper trees repeat the construction on
h-function transformed observations among edges allowed by the proximity
condition (the greedy sequential method of Dissmann et al.).  Each edge
carries one bivariate copula chosen by AIC among
``bicop.DEFAULT_CANDIDATES`` behind a Kendall tau independence pre-test
at ``INDEP_TEST_LEVEL``, with the simplifying assumption throughout.

Fitting and simulation read F(v | D), the conditional distribution of v
given the set D, from one memoised accessor: it applies
the h-function of the unique edge whose constraint set is D | {v} to the
streams of that edge's conditioned pair.  Simulation inverts the
Rosenblatt transform: variable 0 first, then each time the smallest
unsampled v for which {sampled} | {v}, shrunk by one variable per tree,
always names an edge with v in its conditioned pair; that chain of edges
is inverted deepest first.  These orders and chains are the columns of
the R-vine array of Dissmann et al. (2013), derived rather than stored.

``simulate`` pushes randomized quasi-Monte Carlo points through that
map: ``N_STREAMS`` independently, randomly digitally shifted copies of
one Sobol net, interleaved so that row i belongs to stream i mod
``N_STREAMS``.  Every stream is an unbiased sample of the vine, so the
measures read their Monte Carlo standard error from the spread over the
streams (Cambou, Hofert & Lemieux 2017; L'Ecuyer 2018).
``simulate_iid`` draws i.i.d. uniforms instead.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .bicop import DEFAULT_CANDIDATES, EPS, BivariateCopula, hfunc, hinv, select_family_aic
from .errors import (
    DegenerateSeriesError,
    DomainError,
    ResolutionError,
    StructureError,
    sample_size,
)
from .taildep import RELIABILITY_FLOOR


@dataclass(frozen=True, order=True)
class VineEdge:
    """One pair-copula edge: conditioned pair (a, b | conditioning set)."""

    conditioned: tuple
    conditioning: tuple = ()

    def __post_init__(self):
        pair = tuple(int(x) for x in self.conditioned)
        cond = tuple(sorted(int(x) for x in self.conditioning))
        if len(pair) != 2 or pair[0] == pair[1]:
            raise DomainError("conditioned must name two distinct variables")
        if pair[0] > pair[1]:
            pair = (pair[1], pair[0])
        if set(pair) & set(cond):
            raise DomainError("conditioned and conditioning sets must be disjoint")
        object.__setattr__(self, "conditioned", pair)
        object.__setattr__(self, "conditioning", cond)

    @property
    def constraint(self):
        return frozenset(self.conditioned) | frozenset(self.conditioning)

    def label(self):
        a, b = self.conditioned
        if self.conditioning:
            return f"{a},{b}|{','.join(str(c) for c in self.conditioning)}"
        return f"{a},{b}"


@dataclass(frozen=True)
class VineStructure:
    """Nested tree sequence of an R-vine on n_vars variables."""

    n_vars: int
    trees: tuple

    def __post_init__(self):
        trees = tuple(
            tuple(sorted(tree, key=lambda e: (e.conditioned, e.conditioning)))
            for tree in self.trees
        )
        object.__setattr__(self, "trees", trees)
        check_structure(self)

    def all_edges(self):
        return [edge for tree in self.trees for edge in tree]


def check_structure(structure):
    """Validate the R-vine tree sequence against the proximity condition.

    Independent of the selection code: checks spanning-tree shape at each
    level and, for every edge of tree k >= 2, the existence of two parent
    edges in tree k-1 that share k-2 constraint variables and combine to
    the edge's conditioned/conditioning sets.
    """
    n = structure.n_vars
    trees = structure.trees
    if n < 2:
        raise StructureError("need at least two variables")
    if len(trees) != n - 1:
        raise StructureError(f"expected {n - 1} trees, got {len(trees)}")
    total = sum(len(t) for t in trees)
    if total != n * (n - 1) // 2:
        raise StructureError(
            f"expected {n * (n - 1) // 2} edges in total, got {total}"
        )

    first = trees[0]
    if len(first) != n - 1:
        raise StructureError("tree 1 must have n - 1 edges")
    parent = list(range(n))
    for edge in first:
        if edge.conditioning:
            raise StructureError("tree 1 edges cannot have conditioning sets")
        a, b = edge.conditioned
        if not (0 <= a < n and 0 <= b < n):
            raise StructureError(f"edge {edge.label()} names unknown variables")
        if not _union(parent, a, b):
            raise StructureError("tree 1 contains a cycle")

    for level, tree in enumerate(trees[1:], start=2):
        prev = trees[level - 2]
        if len(tree) != len(prev) - 1:
            raise StructureError(
                f"tree {level} must have {len(prev) - 1} edges, got {len(tree)}"
            )
        parent = list(range(len(prev)))
        for edge in tree:
            if len(edge.conditioning) != level - 1:
                raise StructureError(
                    f"edge {edge.label()} has wrong conditioning size for tree {level}"
                )
            matches = [
                (i, j)
                for i, j in itertools.combinations(range(len(prev)), 2)
                if prev[i].constraint ^ prev[j].constraint
                == frozenset(edge.conditioned)
                and prev[i].constraint & prev[j].constraint
                == frozenset(edge.conditioning)
            ]
            if not matches:
                raise StructureError(
                    f"edge {edge.label()} violates the proximity condition"
                )
            if not _union(parent, *matches[0]):
                raise StructureError(f"tree {level} contains a cycle")


def _union(parent, i, j):
    """Join the union-find classes of i and j; False if already joined."""

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    ri, rj = find(i), find(j)
    if ri == rj:
        return False
    parent[ri] = rj
    return True


@dataclass
class VineModel:
    """Fitted R-vine: structure plus one bivariate copula per edge."""

    structure: VineStructure
    pair_copulas: dict
    fit_meta: dict
    n_obs: int
    loglik: float

    def to_json_dict(self):
        trees = []
        for tree in self.structure.trees:
            entries = []
            for edge in tree:
                meta = self.fit_meta[edge]
                entries.append(
                    {
                        "conditioned": list(edge.conditioned),
                        "conditioning": list(edge.conditioning),
                        "copula": self.pair_copulas[edge].to_json_dict(),
                        "loglik": float(meta["loglik"]),
                        "aic": float(meta["aic"]),
                        "warnings": list(meta.get("warnings", [])),
                    }
                )
            trees.append(entries)
        return {
            "n_vars": self.structure.n_vars,
            "n_obs": int(self.n_obs),
            "loglik": float(self.loglik),
            "trees": trees,
        }

    @classmethod
    def from_json_dict(cls, data):
        trees = []
        pair_copulas = {}
        fit_meta = {}
        for tree in data["trees"]:
            edges = []
            for entry in tree:
                edge = VineEdge(
                    tuple(entry["conditioned"]), tuple(entry["conditioning"])
                )
                edges.append(edge)
                pair_copulas[edge] = BivariateCopula.from_json_dict(entry["copula"])
                fit_meta[edge] = {
                    "loglik": float(entry["loglik"]),
                    "aic": float(entry["aic"]),
                    "warnings": list(entry.get("warnings", [])),
                }
            trees.append(tuple(edges))
        structure = VineStructure(n_vars=int(data["n_vars"]), trees=tuple(trees))
        return cls(
            structure=structure,
            pair_copulas=pair_copulas,
            fit_meta=fit_meta,
            n_obs=int(data["n_obs"]),
            loglik=float(data["loglik"]),
        )


def _check_columns(u):
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise DomainError("pseudo-observations must be a 2-d matrix")
    if u.shape[0] < 100:
        raise DomainError(f"need at least 100 rows, got {u.shape[0]}")
    if np.any(u <= 0.0) or np.any(u >= 1.0) or not np.all(np.isfinite(u)):
        raise DomainError("pseudo-observations must lie strictly inside (0, 1)")
    for col in range(u.shape[1]):
        if np.unique(u[:, col]).size < 2:
            raise DegenerateSeriesError(f"column {col} is rank-degenerate")
    return u


def _clip_stream(values):
    return np.clip(values, EPS, 1.0 - EPS)


class _Streams:
    """Memoised F(v | D) at the sample points, keyed by ``(v, D)``.

    ``memo`` holds the streams known up front; a missing F(v | D) comes
    from the edge of ``copulas`` whose constraint set is D | {v}.
    """

    def __init__(self, memo, copulas):
        self.memo = memo
        self.copulas = copulas
        self.edges = {edge.constraint: edge for edge in copulas}

    def add(self, edge, copula):
        self.copulas[edge] = copula
        self.edges[edge.constraint] = edge

    def __call__(self, v, cond):
        key = (v, cond)
        if key not in self.memo:
            edge = self.edges[cond | {v}]
            margin = 2 if v == edge.conditioned[0] else 1
            self.memo[key] = _clip_stream(
                hfunc(self.copulas[edge], *self.pair(edge), margin=margin)
            )
        return self.memo[key]

    def pair(self, edge):
        """F(x | D) and F(y | D) for the edge's conditioned pair (x, y) given D."""
        x, y = edge.conditioned
        cond = frozenset(edge.conditioning)
        return self(x, cond), self(y, cond)


#: level of the per-edge Kendall tau independence pre-test
INDEP_TEST_LEVEL = 0.01


def _fit_edge(u_x, u_y, test):
    """AIC family selection behind a Kendall tau independence pre-test.

    ``test`` is ``stats.kendalltau(u_x, u_y)``.  When it cannot reject
    independence at ``INDEP_TEST_LEVEL`` the independence copula is the
    one candidate, as in the standard sequential vine toolchain; else the
    candidates are ``bicop.DEFAULT_CANDIDATES``.
    """
    p_value = 1.0 if np.isnan(test.pvalue) else float(test.pvalue)
    independent = p_value > INDEP_TEST_LEVEL
    candidates = (("independence", 0),) if independent else DEFAULT_CANDIDATES
    # every candidate fit reads the test's tau
    sel = select_family_aic(
        np.column_stack([u_x, u_y]), candidates, tau=test.statistic
    )
    best = sel.best
    meta = {
        "loglik": best.loglik,
        "aic": best.aic,
        "family": best.copula.family,
        "rotation": best.copula.rotation,
        "warnings": list(sel.warnings),
        "boundary": best.boundary,
        "indep_test_p": p_value,
    }
    return best.copula, meta


def _run_vine(u):
    """Select the structure tree by tree and fit each tree's pair copulas.

    Each tree is the greedy maximum spanning tree under |Kendall tau| on
    the node pairs that the proximity condition allows; weight ties
    break lexicographically by edge.  The chosen edges' fits reuse the
    Kendall tau tests of the weights.
    """
    n = u.shape[1]
    stream = _Streams({(v, frozenset()): u[:, v] for v in range(n)}, {})
    fit_meta = {}
    trees = []
    # constraint sets of the previous tree, and the pairs of them that
    # share a node of the tree before it
    nodes = [frozenset({v}) for v in range(n)]
    allowed = list(itertools.combinations(range(n), 2))
    for level in range(1, n):
        weighted = []
        tests = {}
        for i, j in allowed:
            edge = VineEdge(tuple(nodes[i] ^ nodes[j]), tuple(nodes[i] & nodes[j]))
            tests[edge] = stats.kendalltau(*stream.pair(edge))
            tau = tests[edge].statistic
            weighted.append((0.0 if np.isnan(tau) else -abs(float(tau)), edge, i, j))
        weighted.sort(key=lambda t: t[:2])
        parent = list(range(len(nodes)))
        chosen = sorted(
            (edge, i, j) for _, edge, i, j in weighted if _union(parent, i, j)
        )
        if len(chosen) != len(nodes) - 1:
            raise StructureError(f"could not span tree {level}")
        tree = tuple(edge for edge, _, _ in chosen)
        nodes = [edge.constraint for edge in tree]
        allowed = [
            (p, q)
            for p, q in itertools.combinations(range(len(chosen)), 2)
            if set(chosen[p][1:]) & set(chosen[q][1:])
        ]
        for edge in tree:
            cop, meta = _fit_edge(*stream.pair(edge), tests[edge])
            stream.add(edge, cop)
            fit_meta[edge] = meta
        trees.append(tree)

    built = VineStructure(n_vars=n, trees=tuple(trees))
    loglik = float(sum(fit_meta[e]["loglik"] for e in built.all_edges()))
    return VineModel(
        structure=built,
        pair_copulas=stream.copulas,
        fit_meta=fit_meta,
        n_obs=u.shape[0],
        loglik=loglik,
    )


def fit_auto(pseudo_obs):
    """Select the structure and fit pair copulas in one pass."""
    u = _check_columns(pseudo_obs)
    if u.shape[1] not in (3, 4):
        raise DomainError(f"need 3 or 4 variables, got {u.shape[1]}")
    return _run_vine(u)


def _sampling_chain(edges, var, sampled):
    """Edges that invert F(var | sampled) down to F(var), deepest first.

    Step by step, cond | {var} must name an edge with ``var`` in its
    conditioned pair, else the result is None.
    """
    chain = []
    cond = sampled
    while cond:
        edge = edges.get(cond | {var})
        if edge is None or var not in edge.conditioned:
            return None
        chain.append(edge)
        cond = frozenset(edge.conditioning)
    return chain


def _simulate_from_uniforms(model, w):
    n = model.structure.n_vars
    stream = _Streams({}, model.pair_copulas)
    sampled = frozenset()
    for j in range(n):
        for var in range(n):
            if var not in sampled:
                chain = _sampling_chain(stream.edges, var, sampled)
                if chain is not None:
                    break
        else:
            raise StructureError("no admissible sampling order; structure is invalid")
        t = _clip_stream(w[:, j])
        stream.memo[(var, sampled)] = t
        # invert from the deepest conditioning level back to the marginal;
        # each intermediate t is a true conditional value, so memoize it
        for edge in chain:
            x, y = edge.conditioned
            cond = frozenset(edge.conditioning)
            f_other = stream(y if x == var else x, cond)
            margin = 2 if x == var else 1
            # hinv already returns values in [EPS, 1 - EPS]
            t = hinv(model.pair_copulas[edge], t, f_other, margin=margin)
            stream.memo[(var, cond)] = t
        sampled = sampled | {var}
    return np.column_stack([stream.memo[(v, frozenset())] for v in range(n)])


#: independently shifted copies of the Sobol net in a ``simulate`` draw;
#: row i of the draw belongs to stream i mod N_STREAMS
N_STREAMS = 16
#: bits of the net's integer coordinates, as ``qmc.Sobol`` gives them
_NET_BITS = 30
#: primitive polynomial (bit form) and initial direction numbers of each
#: Sobol dimension, the first rows of the Joe & Kuo (2008) table that
#: ``scipy.stats.qmc.Sobol`` reads; held here so a draw does not load the
#: whole 21201-dimension table into every process
_SOBOL_DIMENSIONS = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
)


def _direction_numbers(poly, initial):
    """The ``_NET_BITS`` direction numbers of one Sobol dimension, as integers."""
    degree = poly.bit_length() - 1
    m = list(initial) if degree else [1] * _NET_BITS
    for k in range(len(m), _NET_BITS):
        # m_k = m_{k-s} ^ (m_{k-s} << s) ^ XOR of (a_i m_{k-i} << i), 0 < i < s
        term = m[k - degree] ^ (m[k - degree] << degree)
        for i in range(1, degree):
            if poly >> (degree - i) & 1:
                term ^= m[k - i] << i
        m.append(term)
    return [m[k] << (_NET_BITS - 1 - k) for k in range(_NET_BITS)]


@functools.cache
def _sobol_net(d, k):
    """The first 2^k points of the unscrambled d-dimensional Sobol sequence.

    Integer coordinates of ``_NET_BITS`` bits in ``qmc.Sobol``'s Gray-code
    order, built once per (d, k) in each process and read-only.
    """
    if d > len(_SOBOL_DIMENSIONS):
        raise DomainError(
            f"the Sobol net covers at most {len(_SOBOL_DIMENSIONS)} variables, "
            f"got {d}; draw i.i.d. rows with simulate_iid"
        )
    directions = np.array(
        [_direction_numbers(*_SOBOL_DIMENSIONS[j]) for j in range(d)], dtype=np.uint32
    )
    net = np.zeros((1, d), dtype=np.uint32)
    for bit in range(k):
        # Gray-code order: the second half mirrors the first with this bit set
        net = np.concatenate([net, (net ^ directions[:, bit])[::-1]])
    net.flags.writeable = False
    return net


def _shifted_net_uniforms(n, d, seed):
    """n rows of ``N_STREAMS`` randomly digitally shifted copies of one net.

    Stream r shifts every net point by the random ``_NET_BITS``-bit digits
    ``high[r]`` (XOR) and adds random digits below them, ``low[r]``, so no
    two streams share a grid and no column repeats a value.  The net is
    the first ``ceil(n / N_STREAMS)`` points of the Sobol sequence, which
    extend, so a draw is the prefix of any longer draw with the same seed.
    """
    rng = np.random.default_rng(seed)
    high = rng.integers(0, 2**_NET_BITS, size=(N_STREAMS, d), dtype=np.uint32)
    low = rng.random((N_STREAMS, d))
    per_stream = -(-n // N_STREAMS)
    net = _sobol_net(d, (per_stream - 1).bit_length())
    w = np.empty((per_stream, N_STREAMS, d))
    for j in range(d):
        np.bitwise_xor(
            net[:per_stream, j, None], high[:, j], out=w[:, :, j], casting="unsafe"
        )
    w += low
    w *= 2.0**-_NET_BITS
    return w.reshape(-1, d)[:n]


def _draw_size(n):
    n = sample_size(n, "n")
    if n <= 0:
        raise DomainError("n must be positive")
    return n


def simulate(model, n, seed):
    """Draw n rows from the vine copula by inverse Rosenblatt transform.

    The uniforms are ``N_STREAMS`` interleaved, randomly shifted copies of
    one Sobol net (see ``_shifted_net_uniforms``): row i belongs to stream
    i mod ``N_STREAMS``, and each stream alone is an unbiased sample.  The
    net covers up to ``len(_SOBOL_DIMENSIONS)`` variables; a wider vine
    is refused, and ``simulate_iid`` draws it.
    """
    n = _draw_size(n)
    w = _shifted_net_uniforms(n, model.structure.n_vars, seed)
    return _simulate_from_uniforms(model, w)


def simulate_iid(model, n, seed):
    """Draw n i.i.d. rows from the vine copula by inverse Rosenblatt transform."""
    n = _draw_size(n)
    rng = np.random.default_rng(seed)
    w = rng.random((n, model.structure.n_vars))
    return _simulate_from_uniforms(model, w)


def _ranks(cols):
    """Ranks 1..n along the last axis of ``cols``, as ``stats.rankdata`` gives.

    When every row of the block sorts strictly increasing, the ranks are
    the positions of one argsort.  A repeated value (or a NaN, which no
    comparison orders) sends the whole block to ``stats.rankdata``, the
    exact reference.
    """
    srt = np.sort(cols, axis=-1)
    if not np.all(srt[..., 1:] > srt[..., :-1]):
        return stats.rankdata(cols, axis=-1)
    del srt
    order = np.argsort(cols, axis=-1)
    ranks = np.empty(cols.shape)
    positions = np.arange(1.0, cols.shape[-1] + 1.0)
    np.put_along_axis(ranks, order, np.broadcast_to(positions, cols.shape), axis=-1)
    return ranks


def _rank_corr(ranks):
    # Spearman matrix of the (d, n) rank rows, exactly symmetric with a unit
    # diagonal
    rho = np.corrcoef(ranks)
    upper = np.triu(rho, 1)
    return upper + upper.T + np.eye(ranks.shape[0])


def sample_prefix(sample, n_mc):
    """The first ``n_mc`` rows of a 2-d sample, e.g. a ``simulate`` draw."""
    u = np.asarray(sample, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < n_mc:
        raise DomainError(f"sample must be 2-d with at least n_mc = {n_mc} rows")
    return u[:n_mc]


def induced_spearman(sample, n_mc):
    """Model-implied Spearman matrix from the first ``n_mc`` rows of a vine sample.

    Returns the estimate matrix and its Monte Carlo standard error
    matrix, the spread of the estimate over the ``N_STREAMS`` streams of
    the draw: stream r is rows r, r + N_STREAMS, ... of the first
    ``N_STREAMS * (n_mc // N_STREAMS)`` rows.  Each column of the prefix,
    and of every stream, is ranked by one argsort: a vine sample is
    continuous, so its ranks are a permutation of 1..n.  A block in which
    any column repeats a value (a rounded sample, or clipped stream
    values) is ranked by ``stats.rankdata`` with average ranks instead, so
    the matrices equal those of ``stats.rankdata`` ranks whatever the
    input.
    """
    n_mc = sample_size(n_mc, "n_mc")
    if n_mc < 10_000:
        raise DomainError("n_mc must be at least 10000")
    u = sample_prefix(sample, n_mc)
    rho = _rank_corr(_ranks(np.ascontiguousarray(u.T)))
    size = n_mc // N_STREAMS
    streams = u[: N_STREAMS * size].reshape(size, N_STREAMS, u.shape[1])
    ranks = _ranks(np.ascontiguousarray(streams.transpose(1, 2, 0)))
    stderr = np.std([_rank_corr(r) for r in ranks], axis=0, ddof=1) / np.sqrt(N_STREAMS)
    return rho, stderr


def induced_pair_tdc(sample, pair, alpha_grid, n_mc):
    """Empirical tail-dependence curves of one pair of a vine sample.

    Counts on the first ``n_mc`` rows.  For each level t the lower
    estimate is C(t,t)/t and the upper estimate is the survival analogue
    (1-2s+C(s,s))/(1-s) at s = 1-t.  A linear extrapolation to t = 0 is
    reported alongside the per-level values.  Both coordinates are at
    most t exactly when their maximum is, and both exceed 1-t exactly
    when their minimum does, so each level counts on one array per side.
    Each standard error is the spread of the corner proportion over the
    ``N_STREAMS`` streams of the draw (stream r is rows r, r + N_STREAMS,
    ... of the prefix), divided by t.
    """
    grid = sorted(float(t) for t in alpha_grid)
    if not grid or grid[0] <= 0.0 or grid[-1] > 0.1:
        raise DomainError("alpha_grid must lie in (0, 0.1]")
    if len(set(grid)) != len(grid):
        raise DomainError("alpha_grid levels must be distinct")
    n_mc = sample_size(n_mc, "n_mc")
    if n_mc * grid[0] < RELIABILITY_FLOOR:
        raise ResolutionError(
            f"expected tail count {n_mc * grid[0]:.1f} below {RELIABILITY_FLOOR} "
            f"at t={grid[0]}; increase n_mc or raise the smallest level"
        )
    u = sample_prefix(sample, n_mc)
    ua, ub = u[:, pair[0]], u[:, pair[1]]
    hi, lo = np.maximum(ua, ub), np.minimum(ua, ub)
    # stream r holds rows r, r + N_STREAMS, ... below n_mc
    stream_rows = (n_mc - np.arange(N_STREAMS) + N_STREAMS - 1) // N_STREAMS

    def corner(mask):
        # the corner proportion and its stream-spread standard error
        counts = np.bincount(np.flatnonzero(mask) % N_STREAMS, minlength=N_STREAMS)
        spread = np.std(counts / stream_rows, ddof=1) / np.sqrt(N_STREAMS)
        return counts.sum() / n_mc, float(spread)

    levels = []
    for t in grid:
        p_low, se_low = corner(hi <= t)
        p_up, se_up = corner(lo > 1.0 - t)
        levels.append(
            {
                "t": t,
                "lower": p_low / t,
                "upper": p_up / t,
                "lower_stderr": se_low / t,
                "upper_stderr": se_up / t,
            }
        )
    result = {"levels": levels, "n_mc": n_mc}
    ts = np.array([lv["t"] for lv in levels])
    for side in ("lower", "upper"):
        vals = np.array([lv[side] for lv in levels])
        if len(grid) >= 2:
            slope, intercept = np.polyfit(ts, vals, 1)
            result[f"{side}_extrapolated"] = float(intercept)
        else:
            result[f"{side}_extrapolated"] = float(vals[0])
    return result

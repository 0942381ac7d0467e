"""Exact distinct-index U-statistics for the higher-order corrections.

The order-j correction term averages, over ordered j-tuples of distinct
estimation-sample indices, the chain kernel

    s * [eps_p z^T]_{i1} M ( prod_{s=3..j} [(R_{i_s} - W) M] ) [z eps_b]_{i2}

with M the inverted Gram, W its (un-inverted) matrix, R_i the |h1|-weighted
rank-one outer product of the i-th basis evaluation, and s the sign
(-1)**(j-1) * (-1)**I(h1 <= 0).

Fast path: each middle factor expands as R_i M - I, which turns every
expansion term into a weighted chain sum over sample indices.  Distinctness
is restored by Moebius inversion over set partitions of the chain
positions.  A plan, cached per chain length and basis size, lists each
partition's blocks and einsum path; one call builds every distinct block
tensor once and contracts every collapsed (partition-identified) chain
from that table, so no n-by-n kernel matrix is ever formed.
Exact in floating point up to accumulation error; an enumeration oracle
(`brute_force_ifjj`) checks it at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, perm

import numpy as np

from hoif.data import ValidationError

M_MAX_HARD = 6
PLAN_BYTES_MAX = 1 << 30  # block tensors plus one Khatri-Rao chunk; also a quadrature design


@dataclass(frozen=True)
class ChainInputs:
    """Residuals, weights and basis evaluations on the estimation sample."""

    eps_p: np.ndarray  # (n,)
    eps_b: np.ndarray  # (n,)
    abs_h1: np.ndarray  # (n,)
    zmat: np.ndarray  # (n, k)
    omega_inv: np.ndarray  # (k, k), symmetric
    sign_flag: bool

    def __post_init__(self):
        n, k = self.zmat.shape
        for name in ("eps_p", "eps_b", "abs_h1"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if self.omega_inv.shape != (k, k):
            raise ValueError("omega_inv shape mismatch")
        if not np.allclose(self.omega_inv, self.omega_inv.T, atol=1e-10):
            raise ValueError("omega_inv must be symmetric")

    @property
    def n(self) -> int:
        return self.zmat.shape[0]

    @property
    def k(self) -> int:
        return self.zmat.shape[1]


def set_partitions(items: list):
    """Yield all set partitions of ``items`` as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_KR_CHUNK = 1 << 22  # elements of one Khatri-Rao chunk in _weighted_outer_sum


@lru_cache(maxsize=64)
def _chain_plan(length: int, k: int) -> tuple:
    """Moebius inversion of a chain sum over ``length`` positions, basis size k.

    One entry per set partition of the positions: its coefficient
    prod_blocks (-1)^(|b|-1) (|b|-1)!, the einsum subscripts over its
    blocks' open edges (edge e joins positions e and e+1), numpy's greedy
    path for them, and each block's key.  A block's positions share one
    sample index; its tensor sums over it the product of the members'
    weights, a z^T M z per closed edge, and per open edge a ``zm`` (=
    zmat @ M) column at its left end or a ``zmat`` column at its right.
    The key records the weight roles in position order (p = eps_p,
    h = |h1|, b = eps_b), the closed-edge count and the open-edge kinds in
    edge order, so equal keys are equal tensors in every chain length.
    """
    plan = []
    for blocks in set_partitions(list(range(length))):
        mob, keys, letters = 1.0, [], []
        for b in blocks:
            if len(b) > 1:
                mob *= (-1.0) ** (len(b) - 1) * factorial(len(b) - 1)
            roles = "".join("p" if pos == 0 else "b" if pos == length - 1 else "h" for pos in b)
            edges = [e for e in range(length - 1) if (e in b) != (e + 1 in b)]
            closed = sum(e in b and e + 1 in b for e in range(length - 1))
            keys.append((roles, closed, tuple("zm" if e in b else "zmat" for e in edges)))
            letters.append("".join(_LETTERS[e] for e in edges))
        subs = ",".join(letters) + "->"
        stand_ins = [np.broadcast_to(0.0, (k,) * len(x)) for x in letters]
        path = np.einsum_path(subs, *stand_ins, optimize=True)[0]
        plan.append((mob, subs, tuple(path), tuple(keys)))
    return tuple(plan)


def _weighted_outer_sum(wv: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """sum_i wv_i mats[0][i] x mats[1][i] x ... as a dense tensor.

    One BLAS product of the first factor against the Khatri-Rao product of
    the rest, chunked over samples to bound the expansion memory.
    """
    if not mats:
        return np.array(float(np.sum(wv)))
    if len(mats) == 1:
        return mats[0].T @ wv
    n = wv.shape[0]
    sizes = tuple(m.shape[1] for m in mats)
    rest = int(np.prod(sizes[1:]))
    out = np.zeros((sizes[0], rest))
    chunk = max(1, _KR_CHUNK // rest)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        kr = mats[1][lo:hi]
        for m in mats[2:]:
            kr = (kr[:, :, None] * m[lo:hi, None, :]).reshape(hi - lo, -1)
        out += (wv[lo:hi, None] * mats[0][lo:hi]).T @ kr
    return out.reshape(sizes)


def _planned_bytes(keys, n: int, k: int) -> int:
    """Bytes of the block table plus the widest block's Khatri-Rao chunk."""
    widest = max(len(opens) for _, _, opens in keys)
    rest = k ** (widest - 1) if widest > 1 else 0
    chunk = min(n, max(1, _KR_CHUNK // rest)) * rest if rest else 0
    return 8 * (sum(k ** len(opens) for _, _, opens in keys) + chunk)


def correction_terms(inputs: ChainInputs, m: int) -> list[float]:
    """Correction terms IF_22, ..., IF_mm: means of the chain kernel over
    distinct tuples.

    Expanding the j-2 centered middle factors of order j leaves chains with
    t = 0..j-2 middle positions, so every order is a binomial combination
    of the same distinct-index chain sums d_0..d_{m-2}.  Each d_t contracts
    every set partition of its chain (``_chain_plan``) against one table
    that holds each distinct block tensor once.  Cost grows with Bell(m)
    partitions of the longest chain, so m is capped at ``M_MAX_HARD`` and
    the table at ``PLAN_BYTES_MAX``, checked before anything is built.
    """
    if m < 2:
        raise ValueError("order must be >= 2")
    if m > M_MAX_HARD:
        raise ValueError(f"order {m} exceeds the cap {M_MAX_HARD}")
    n, k = inputs.n, inputs.k
    if n < m:
        raise ValueError(f"need at least {m} records, got {n}")
    plans = [_chain_plan(t + 2, k) for t in range(m - 1)]
    keys = dict.fromkeys(key for plan in plans for *_, ks in plan for key in ks)
    planned = _planned_bytes(keys, n, k)
    if planned > PLAN_BYTES_MAX:
        raise ValidationError(f"order m={m} at k={k} plans {planned} bytes of block "
                              f"tensors, over the cap of {PLAN_BYTES_MAX}")
    zm = inputs.zmat @ inputs.omega_inv
    weight = {"p": inputs.eps_p, "h": inputs.abs_h1, "b": inputs.eps_b}
    column = {"zm": zm, "zmat": inputs.zmat}
    diag = np.sum(zm * inputs.zmat, axis=1)
    table = {}
    for key in keys:
        roles, closed, opens = key
        wv = weight[roles[0]].copy()
        for role in roles[1:]:
            wv *= weight[role]
        for _ in range(closed):
            wv *= diag
        table[key] = _weighted_outer_sum(wv, [column[o] for o in opens])
    d = [0.0] * (m - 1)
    for t, plan in enumerate(plans):
        for mob, subs, path, ks in plan:
            d[t] += mob * float(np.einsum(subs, *(table[b] for b in ks), optimize=path))
    flip = -1.0 if inputs.sign_flag else 1.0
    terms = []
    for j in range(2, m + 1):
        total = 0.0
        for t in range(j - 1):
            # the j-2-t identity factors leave dummy positions; count their
            # distinct assignments, then normalize by the tuple count
            coef = (-1.0) ** (j - 2 - t) * comb(j - 2, t)
            total += coef * d[t] / perm(n, t + 2)
        terms.append((-1.0) ** (j - 1) * flip * total)
    return terms


BRUTE_FORCE_N_CAP = 30
BRUTE_FORCE_TUPLE_CAP = 10**8


def brute_force_ifjj(j: int, inputs: ChainInputs) -> float:
    """Literal enumeration over ordered distinct j-tuples (testing oracle)."""
    n = inputs.n
    if n > BRUTE_FORCE_N_CAP or n**j > BRUTE_FORCE_TUPLE_CAP:
        raise ValueError("instance too large for brute-force enumeration")
    if n < j:
        raise ValueError(f"need at least {j} records, got {n}")
    m = inputs.omega_inv
    omega = np.linalg.inv(m)
    z = inputs.zmat
    sign = (-1.0) ** (j - 1) * (-1.0 if inputs.sign_flag else 1.0)
    total = 0.0
    for idx in permutations(range(n), j):
        i1, i2 = idx[0], idx[1]
        mat = m.copy()
        for s in idx[2:]:
            r = inputs.abs_h1[s] * np.outer(z[s], z[s])
            mat = mat @ (r - omega) @ m
        total += inputs.eps_p[i1] * inputs.eps_b[i2] * float(z[i1] @ mat @ z[i2])
    return sign * total / perm(n, j)

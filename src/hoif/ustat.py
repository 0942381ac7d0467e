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
positions, and every collapsed (partition-identified) chain is contracted
in factored form via einsum, so no n-by-n kernel matrix is ever formed.
Exact in floating point up to accumulation error; an enumeration oracle
(`brute_force_ifjj`) checks it at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial

import numpy as np

M_MAX_HARD = 6


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


def _falling(n: int, j: int) -> int:
    out = 1
    for r in range(j):
        out *= n - r
    return out


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _collapsed_chain_sum(zmat: np.ndarray, zm: np.ndarray,
                         weights: list[np.ndarray], blocks: list[list[int]]) -> float:
    """Chain sum with positions identified according to ``blocks``.

    Sums, over one free sample index per block, the product of the chain's
    vertex weights and the edge factors z_a^T M z_b; ``zm`` is zmat @ M.
    Each block is contracted over its sample index first, leaving small
    tensors indexed only by basis-sized edge axes, so no n-by-n
    intermediate is ever formed.
    """
    length = len(weights)
    block_of = {}
    for b, members in enumerate(blocks):
        for pos in members:
            block_of[pos] = b
    # edge e joins chain positions e and e+1: the left endpoint carries a
    # zm column, the right endpoint a zmat column, both on the same letter
    factors: list[list[tuple[np.ndarray, int]]] = [[] for _ in blocks]
    for e in range(length - 1):
        factors[block_of[e]].append((zm, e))
        factors[block_of[e + 1]].append((zmat, e))
    tensors = []
    out_subs = []
    for b, members in enumerate(blocks):
        wv = weights[members[0]].copy()
        for pos in members[1:]:
            wv *= weights[pos]
        # edges internal to the block (both endpoints identified) reduce to
        # per-sample row dot products; shared edges stay open
        internal: dict[int, list[np.ndarray]] = {}
        external: list[tuple[np.ndarray, int]] = []
        for mat, e in factors[b]:
            if block_of[e] == block_of[e + 1]:
                internal.setdefault(e, []).append(mat)
            else:
                external.append((mat, e))
        for left, right in internal.values():
            wv *= np.sum(left * right, axis=1)
        external.sort(key=lambda f: f[1])
        tensors.append(_weighted_outer_sum(wv, [mat for mat, _ in external]))
        out_subs.append("".join(_LETTERS[e] for _, e in external))
    return float(np.einsum(",".join(out_subs) + "->", *tensors, optimize=True))


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
    chunk = max(1, (1 << 22) // rest)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        kr = mats[1][lo:hi]
        for m in mats[2:]:
            kr = (kr[:, :, None] * m[lo:hi, None, :]).reshape(hi - lo, -1)
        out += (wv[lo:hi, None] * mats[0][lo:hi]).T @ kr
    return out.reshape(sizes)


def distinct_chain_sum(zmat: np.ndarray, zm: np.ndarray,
                       weights: list[np.ndarray]) -> float:
    """Sum of the weighted chain product over tuples of distinct indices.

    Moebius inversion on the partition lattice: the all-indices sum of each
    collapsed chain, weighted by prod_blocks (-1)^(|b|-1) (|b|-1)!, equals
    the distinct-index sum.
    """
    length = len(weights)
    total = 0.0
    for blocks in set_partitions(list(range(length))):
        mob = 1.0
        for b in blocks:
            sz = len(b)
            if sz > 1:
                mob *= (-1.0) ** (sz - 1) * factorial(sz - 1)
        total += mob * _collapsed_chain_sum(zmat, zm, weights, blocks)
    return total


def ifjj(j: int, inputs: ChainInputs) -> float:
    """Order-j correction: mean of the chain kernel over distinct tuples.

    Expands the j-2 centered middle factors into rank-one chains and sums
    each chain family exactly over distinct indices.  Cost grows with
    Bell(j) partitions of the active chain, so j is capped at
    ``M_MAX_HARD`` (the tuning rules never ask for more at desk scale).
    """
    if j < 2:
        raise ValueError("order must be >= 2")
    if j > M_MAX_HARD:
        raise ValueError(f"order {j} exceeds the cap {M_MAX_HARD}")
    n = inputs.n
    if n < j:
        raise ValueError(f"need at least {j} records, got {n}")
    zm = inputs.zmat @ inputs.omega_inv
    sign = (-1.0) ** (j - 1) * (-1.0 if inputs.sign_flag else 1.0)
    total = 0.0
    for t in range(j - 1):
        weights = [inputs.eps_p] + [inputs.abs_h1] * t + [inputs.eps_b]
        d_t = distinct_chain_sum(inputs.zmat, zm, weights)
        # the j-2-t identity factors leave dummy positions; count their
        # distinct assignments, then normalize by the tuple count
        coef = (-1.0) ** (j - 2 - t) * comb(j - 2, t)
        total += coef * d_t / _falling(n, t + 2)
    return sign * total


def if22(inputs: ChainInputs) -> float:
    """Second-order correction in O(nk + k^2).

    Uses sum_{i != i'} u_i v_{i'} = (sum u)(sum v) - sum u_i v_i on the
    front and back chain vectors.
    """
    n = inputs.n
    if n < 2:
        raise ValueError("need at least 2 records")
    a = inputs.zmat.T @ inputs.eps_p
    b = inputs.zmat.T @ inputs.eps_b
    cross = float(a @ inputs.omega_inv @ b)
    row_quad = np.einsum("ij,jk,ik->i", inputs.zmat, inputs.omega_inv, inputs.zmat)
    diag = float(np.sum(inputs.eps_p * inputs.eps_b * row_quad))
    sign = -1.0 * (-1.0 if inputs.sign_flag else 1.0)
    return sign * (cross - diag) / (n * (n - 1))


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
    return sign * total / _falling(n, j)


def _symmetrize(kernel: np.ndarray) -> np.ndarray:
    m = kernel.ndim
    out = np.zeros_like(kernel, dtype=float)
    for perm in permutations(range(m)):
        out += np.transpose(kernel, perm)
    return out / factorial(m)


def hoeffding_variance(kernel: np.ndarray, probs: np.ndarray, n: int) -> float:
    """Exact variance of the order-m U-statistic of ``kernel`` at sample
    size n, for i.i.d. draws from the discrete law ``probs``.

    ``kernel`` is an m-dimensional array over the support points.  The
    kernel is symmetrized, decomposed into degenerate components h_l, and
    the variance assembled as sum_l C(m,l)^2 / C(n,l) E[h_l^2].
    """
    kernel = np.asarray(kernel, dtype=float)
    probs = np.asarray(probs, dtype=float)
    m = kernel.ndim
    if n < m:
        raise ValueError("sample size below kernel order")
    if not np.isclose(probs.sum(), 1.0):
        raise ValueError("probs must sum to 1")
    f = _symmetrize(kernel)

    # conditional means g_l(x_1..x_l) = E[f | first l arguments]
    g = [None] * (m + 1)
    g[m] = f
    for l in range(m - 1, -1, -1):
        g[l] = np.tensordot(g[l + 1], probs, axes=([l], [0]))
    mean = float(g[0])

    # degenerate components by Moebius over subsets of the first l slots
    from itertools import combinations

    def degenerate(l):
        out = np.zeros_like(g[l])
        for size in range(l + 1):
            for subset in combinations(range(l), size):
                gl = g[size]
                # broadcast g_{|S|}(x_S) onto the l axes
                shape = [1] * l
                for axis_pos, axis in enumerate(subset):
                    shape[axis] = gl.shape[axis_pos] if gl.ndim else 1
                arr = gl
                if subset:
                    expand = np.reshape(arr, shape)
                else:
                    expand = np.full([1] * l, float(arr)) if l else np.asarray(arr)
                out = out + (-1.0) ** (l - size) * expand
        return out

    var = 0.0
    for l in range(1, m + 1):
        fl = degenerate(l)
        w = probs
        second = fl * fl
        for axis in range(l - 1, -1, -1):
            second = np.tensordot(second, w, axes=([axis], [0]))
        var += comb(m, l) ** 2 / comb(n, l) * float(second)
    return var


def u_statistic_mean(kernel: np.ndarray, probs: np.ndarray) -> float:
    """Population mean of the (symmetrized) kernel under the discrete law."""
    kernel = np.asarray(kernel, dtype=float)
    out = kernel
    for axis in range(kernel.ndim - 1, -1, -1):
        out = np.tensordot(out, probs, axes=([axis], [0]))
    return float(out)

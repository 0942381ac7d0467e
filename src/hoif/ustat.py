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

The kernel is whitened: M must be positive definite, M = L L^T, and with
y = zmat @ L every chain edge z_i M z_j^T is the dot product y_i . y_j.
Each block tensor is then the symmetric sum_i w_i y_i^(x r), and the
blocks of one rank r differ only in their weights w, so one build per
rank serves them all: a single Khatri-Rao factor over the sorted index
tuples of r-1 axes, C(k+r-2, r-1) columns instead of k^(r-1).

Cell route (``cell_terms``): when the basis spans the indicators of k
cells, as every order-0 basis does, its rows at the cells are sqrt(k)
times the identity, so its Gram is the diagonal matrix of k m_c, m_c each
cell's mass (the training mass under ``emp``, the integral of the density
estimate under ``ac``), and the kernel z_i M z_j is 1[c_i = c_j] / m_c,
every chain stays in one cell and each chain sum is a sum over cells of
in-cell weight sums, with the same Moebius coefficients and binomial
recombination: no Cholesky factor, tensor or einsum, and no k x k array.
``run_plan`` plans the arrays of a run on either route for the byte cap.

Exact in floating point up to accumulation error; an enumeration oracle
(`brute_force_ifjj`) checks both routes at small n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import permutations
from math import comb, factorial, perm

import numpy as np

from hoif.data import ValidationError

M_MAX = 6  # highest order: the chain plans grow with Bell(m) partitions
PLAN_BYTES_MAX = 1 << 30  # the cap on a run's planned peak (``run_plan``)
CELL_VECTORS = 32  # per cell, the arms' masses and eigenvalues and cell_terms' sums
CELL_FIT_VECTORS = 20  # per training record, a cellwise series fit's fold arrays
RECORD_VECTORS = 8  # per estimation record, the arms' nuisance and influence values


@dataclass(frozen=True)
class ChainInputs:
    """Residuals, weights and basis evaluations on the estimation sample."""

    eps_p: np.ndarray  # (n,)
    eps_b: np.ndarray  # (n,)
    abs_h1: np.ndarray  # (n,)
    zmat: np.ndarray  # (n, k)
    omega_inv: np.ndarray  # (k, k), symmetric positive definite
    sign_flag: bool
    cholesky: np.ndarray = field(init=False, repr=False, compare=False)  # omega_inv = L L^T

    def __post_init__(self):
        n, k = self.zmat.shape
        for name in ("eps_p", "eps_b", "abs_h1"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if self.omega_inv.shape != (k, k):
            raise ValueError("omega_inv shape mismatch")
        if not np.allclose(self.omega_inv, self.omega_inv.T, atol=1e-10):
            raise ValueError("omega_inv must be symmetric")
        try:
            object.__setattr__(self, "cholesky", np.linalg.cholesky(self.omega_inv))
        except np.linalg.LinAlgError:
            raise ValueError("omega_inv must be positive definite") from None

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


def _moebius(blocks: list) -> float:
    """The Moebius coefficient prod_blocks (-1)^(|b|-1) (|b|-1)! of a partition."""
    mob = 1.0
    for b in blocks:
        if len(b) > 1:
            mob *= (-1.0) ** (len(b) - 1) * factorial(len(b) - 1)
    return mob


def _roles(block: list, length: int) -> str:
    """The weight roles of a block's positions in a chain of ``length``, in
    position order: p = eps_p (position 0), b = eps_b (the last), h = |h1|."""
    return "".join("p" if pos == 0 else "b" if pos == length - 1 else "h" for pos in block)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_KR_CHUNK = 1 << 22  # elements of one Khatri-Rao chunk in _weighted_outer_sum
_BOOKKEEPING_BYTES = 1 << 18  # key tables, array headers, einsum parsing, ufunc buffers


@lru_cache(maxsize=64)
def _chain_plan(length: int, k: int) -> tuple:
    """Moebius inversion of a chain sum over ``length`` positions, basis size k.

    One entry per set partition of the positions: its coefficient
    prod_blocks (-1)^(|b|-1) (|b|-1)!, the einsum subscripts over its
    blocks' open edges (edge e joins positions e and e+1), numpy's greedy
    path for them, each block's key, and the elements the path allocates.
    A block's positions share one sample index; its tensor sums over it the
    product of the members' weights, a |y|^2 per closed edge, and a
    whitened row y per open edge.
    The key records the weight roles in position order (p = eps_p,
    h = |h1|, b = eps_b), the closed-edge count and the open-edge count
    (the tensor's rank), so equal keys are equal tensors in every chain
    length.
    """
    plan = []
    for blocks in set_partitions(list(range(length))):
        mob, keys, letters = _moebius(blocks), [], []
        for b in blocks:
            roles = _roles(b, length)
            edges = [e for e in range(length - 1) if (e in b) != (e + 1 in b)]
            closed = sum(e in b and e + 1 in b for e in range(length - 1))
            keys.append((roles, closed, len(edges)))
            letters.append("".join(_LETTERS[e] for e in edges))
        subs = ",".join(letters) + "->"
        stand_ins = [np.broadcast_to(0.0, (k,) * len(x)) for x in letters]
        path = np.einsum_path(subs, *stand_ins, optimize=True)[0]
        plan.append((mob, subs, tuple(path), tuple(keys), _path_elements(letters, path, k)))
    return tuple(plan)


def _path_elements(letters: list[str], path: list, k: int) -> int:
    """Bound on the elements einsum allocates along ``path``: every step may
    copy each input to reorder its axes, and writes its product and a
    reordered copy of it; nothing is counted as freed."""
    ops, total = [set(x) for x in letters], 0
    for step in path[1:]:
        ins = [ops.pop(i) for i in sorted(step, reverse=True)]
        ops.append(set().union(*ins) & set().union(*ops))  # the letters left open
        total += sum(k ** len(x) for x in ins) + 2 * k ** len(ops[-1])
    return total


@lru_cache(maxsize=16)
def _packing(k: int, q: int) -> np.ndarray:
    """Colex rank of the sorted q-tuple of every index tuple over range(k),
    in C order: where ``_weighted_outer_sum`` packs each tuple's column.

    A sorted s_0 <= ... <= s_{q-1} ranks sum_t C(s_t + t, t + 1).
    """
    tuples = np.sort(np.indices((k,) * q, dtype=np.int16).reshape(q, -1), axis=0)
    rank = np.zeros(k**q, dtype=np.intp)
    for t in range(q):
        rank += np.array([comb(s + t, t + 1) for s in range(k)])[tuples[t]]
    rank.setflags(write=False)  # cached: every caller shares it
    return rank


def _weighted_outer_sum(w: np.ndarray, y: np.ndarray, r: int) -> np.ndarray:
    """sum_i w[c, i] y_i^(x r) for every row c of ``w``, a (c,) + (k,)*r array.

    Ranks 1 and 2 are one BLAS product per row.  Above, each tensor is
    symmetric, so its last r-1 axes are summed only over sorted index
    tuples: one BLAS product of the stacked front w (x) y against a
    Khatri-Rao factor of C(k+r-2, r-1) columns in colex order, chunked over
    samples, then mirrored into the dense tensors through ``_packing``.
    """
    c, n = w.shape
    k = y.shape[1]
    if r == 0:
        return w.sum(axis=1)
    if r == 1:
        return np.stack([y.T @ wc for wc in w])
    if r == 2:
        return np.stack([(y * wc[:, None]).T @ y for wc in w])
    q = r - 1
    width = comb(k + q - 1, q)
    rows = min(n, max(1, _KR_CHUNK // width))
    levels = [np.empty((comb(k + lv - 1, lv), rows)) for lv in range(2, q + 1)]
    packed = np.zeros((c * k, width))
    for lo in range(0, n, rows):
        yc = np.ascontiguousarray(y[lo:lo + rows].T)
        h = yc.shape[1]
        kr = yc
        for level, grown in enumerate(levels, start=2):
            # in colex order the sorted (level-1)-tuples with entries <= a
            # are the first C(a+level-1, level-1) rows of kr
            grown, off = grown[:, :h], 0
            for a in range(k):
                cnt = comb(a + level - 1, level - 1)
                np.multiply(kr[:cnt], yc[a], out=grown[off:off + cnt])
                off += cnt
            kr = grown
        packed += (w[:, None, lo:lo + h] * yc).reshape(c * k, h) @ kr.T
    # np.take, unlike indexing, returns the tensors in C order: einsum
    # would copy strided operands before each contraction
    mirrored = np.take(packed.reshape(c, k, width), _packing(k, q), axis=2)
    return mirrored.reshape((c,) + (k,) * r)


def order_plan(n: int, k: int, m: int) -> tuple[dict, list, int]:
    """The block keys by rank and chain plans of orders 2..m at basis size k,
    and the bytes on n records of their block table and the largest working
    set beside it: a rank build's weight rows beside one key's products (at
    rank <= 2 a weighted copy of the whitened rows and the products; above,
    the front, one Khatri-Rao chunk with its levels, the packed output, its
    per-chunk product and the index map build), or a partition's einsum."""
    if 8 * k ** (m - 1) > np.iinfo(np.intp).max:  # numpy cannot even shape the largest block
        raise ValidationError(f"order m={m} at k={k} needs {k}**{m - 1} doubles, over the cap")
    plans = [_chain_plan(t + 2, k) for t in range(m - 1)]
    ranks = {}
    for key in dict.fromkeys(key for plan in plans for *_, ks, _ in plan for key in ks):
        ranks.setdefault(key[2], []).append(key)
    table = sum(len(keys) * k**r for r, keys in ranks.items())
    work = max(entry[-1] for plan in plans for entry in plan)
    for r, keys in ranks.items():
        c = len(keys)
        if r <= 2:
            build = n * k + c * k**r
        else:
            width = comb(k + r - 2, r - 1)
            rows = min(n, max(1, _KR_CHUNK // width))
            levels = sum(comb(k + lv - 1, lv) for lv in range(2, r))
            build = rows * ((c + 1) * k + levels) + 2 * c * k * width + 4 * k ** (r - 1)
        work = max(work, c * n + max(3 * n, build))
    return ranks, plans, 8 * (table + work) + _BOOKKEEPING_BYTES


@dataclass(frozen=True)
class RunPlan:
    route: str  # "cell" (``cell_terms``) or "tensor" (``correction_terms``)
    groups: dict  # bytes of each group of arrays the run holds
    peak: int  # bytes of the groups it holds at once


def run_plan(k: int, d: int = 1, m: int = 2, n_est: int = 0, design: int = 0,
             grid: bool = False, n_tr: int = 0, candidates: tuple = (),
             cells: bool = False, grams: int = 2, dense: bool = False) -> RunPlan:
    """The plan of a run at basis size k in d dimensions; a ValidationError
    naming its peak and largest group if the peak passes ``PLAN_BYTES_MAX``.
    While fitting, a run holds the candidate designs of sizes ``candidates``
    on n_tr records (and fold copies), the Gram's design of ``design`` records
    or ``grid`` nodes and the Grams; then the Grams, an inversion, the rows of
    n_est records and the block tensors; at m = 1 no Gram.  A design point
    holds its row, a weighted copy, its coordinates, cell and weight; on the
    cell route (``cells``) its cell, or at a node 3d + 1 doubles, and a
    ``dense`` view of the cell Gram is one k x k array.  The tensor route's
    Grams are ``grams`` k x k arrays (arms + folds: the fold's Grams, one kept
    per earlier fold, the inverse in use) and an inversion two more and a mask."""
    gram = m > 1
    if cells:
        fit = len(candidates) + CELL_FIT_VECTORS if candidates else 0
        square, inversion, row, tensors = CELL_VECTORS * k + dense * k * k, 0, 1, 0
        point = 3 * d + 1 if grid else 1
    else:
        fit = sum(candidates) + 2 * max(candidates) if candidates else 0
        square, inversion = grams * k * k, -(-17 * k * k // 8)  # 2 k x k doubles, a mask
        point, row = 2 * k + d + 2, 2 * k + 1  # rows: design, whitened, norms
        tensors = order_plan(n_est, k, m)[2] if gram and n_est else 0
    names = ("candidate designs", "node grid" if grid else "training design",
             "cell Gram" if cells else "Grams and an inverse", "inversion",
             "estimation cells" if cells else "whitened estimation rows", "block tensors")
    sizes = (n_tr * fit, design * point * gram, square * gram, inversion * gram,
             n_est * (row + RECORD_VECTORS) * gram)
    groups = dict(zip(names, [8 * size for size in sizes] + [tensors]))
    held = max((names[:3], names[2:]), key=lambda part: sum(map(groups.get, part)))
    plan = RunPlan("cell" if cells else "tensor", groups, sum(map(groups.get, held)))
    if plan.peak > PLAN_BYTES_MAX:
        largest, at = max(held, key=plan.groups.get), f", m={m}" if n_est and gram else ""
        raise ValidationError(f"the {plan.route} route at k={k}{at} plans a peak of {plan.peak} "
                              f"bytes, over the cap of {PLAN_BYTES_MAX}; its largest group, "
                              f"the {largest}, takes {plan.groups[largest]} bytes")
    return plan


def _check_order(m: int, n: int):
    if m < 2:
        raise ValueError("order must be >= 2")
    if m > M_MAX:
        raise ValueError(f"order {m} exceeds the cap {M_MAX}")
    if n < m:
        raise ValueError(f"need at least {m} records, got {n}")


def correction_terms(inputs: ChainInputs, m: int) -> list[float]:
    """Correction terms IF_22, ..., IF_mm: means of the chain kernel over
    distinct tuples.

    Expanding the j-2 centered middle factors of order j leaves chains with
    t = 0..j-2 middle positions, so every order is a binomial combination
    of the same distinct-index chain sums d_0..d_{m-2}.  Each d_t contracts
    every set partition of its chain (``_chain_plan``) against one table
    that holds each distinct block tensor once, built one rank at a time.
    Cost grows with Bell(m) partitions of the longest chain, so m is capped
    at ``M_MAX`` and the plan's bytes by ``run_plan`` before any build.
    """
    n, k = inputs.n, inputs.k
    _check_order(m, n)
    run_plan(k, m=m, n_est=n)
    ranks, plans, _ = order_plan(n, k, m)
    # omega_inv = L L^T, so every edge z_i omega_inv z_j^T is y_i . y_j
    y = inputs.zmat @ inputs.cholesky
    diag = np.sum(y * y, axis=1)
    weight = {"p": inputs.eps_p, "h": inputs.abs_h1, "b": inputs.eps_b}
    table = {}
    for r, keys in ranks.items():
        w = np.empty((len(keys), n))
        for wi, (roles, closed, _) in zip(w, keys):
            wi[:] = reduce(np.multiply, (weight[role] for role in roles))
            for _ in range(closed):
                wi *= diag
        table.update(zip(keys, _weighted_outer_sum(w, y, r)))
        del w  # freed before the next rank's weights and the contractions
    d = [0.0] * (m - 1)
    for t, plan in enumerate(plans):
        for mob, subs, path, ks, _ in plan:
            d[t] += mob * float(np.einsum(subs, *(table[b] for b in ks), optimize=path))
    return _orders(d, n, inputs.sign_flag)


def _orders(d: list[float], n: int, sign_flag: bool) -> list[float]:
    """IF_22..IF_mm from the distinct chain sums d_0..d_{m-2} on n records."""
    flip = -1.0 if sign_flag else 1.0
    terms = []
    for j in range(2, len(d) + 2):
        total = 0.0
        for t in range(j - 1):
            # the j-2-t identity factors leave dummy positions; count their
            # distinct assignments, then normalize by the tuple count
            coef = (-1.0) ** (j - 2 - t) * comb(j - 2, t)
            total += coef * d[t] / perm(n, t + 2)
        terms.append((-1.0) ** (j - 1) * flip * total)
    return terms


@dataclass(frozen=True)
class CellInputs:
    """The chain inputs of a basis whose span is the indicators of k cells
    (order 0): residuals, weights and cell of each estimation record, and each
    cell's mass m_c in the Gram (a cell Gram's eigenvalues over k).
    The projection kernel z_i Omega^-1 z_j is then 1[c_i = c_j] / m_c."""

    eps_p: np.ndarray  # (n,)
    eps_b: np.ndarray  # (n,)
    abs_h1: np.ndarray  # (n,)
    cells: np.ndarray  # (n,) integers in [0, k)
    mass: np.ndarray  # (k,), positive
    sign_flag: bool

    def __post_init__(self):
        n = self.cells.shape[0]
        for name in ("eps_p", "eps_b", "abs_h1"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have length {n}")
        if not np.all(self.mass > 0.0):
            raise ValueError("cell masses must be positive")


@lru_cache(maxsize=16)
def _cell_plan(length: int) -> tuple:
    """The Moebius inversion of one chain of ``length`` positions inside a
    cell: every partition's blocks reduce to their role strings
    (``_roles``), so partitions with the same multiset of role strings are
    summed into one coefficient.  Returns (coefficient, role strings) pairs."""
    coef = {}
    for blocks in set_partitions(list(range(length))):
        key = tuple(sorted(_roles(b, length) for b in blocks))
        coef[key] = coef.get(key, 0.0) + _moebius(blocks)
    return tuple((c, key) for key, c in coef.items() if c != 0.0)


def cell_terms(inputs: CellInputs, m: int) -> list[float]:
    """``correction_terms`` when the kernel is 1[c_i = c_j] / m_c.

    Every chain with a nonzero kernel stays in one cell, and a chain of
    t + 2 positions crosses t + 1 edges, so the distinct chain sum is
    d_t = sum_c m_c^-(t+1) sum_partitions mu prod_blocks S_c(block), with
    S_c the in-cell sum of the product of a block's weights (one
    ``np.bincount`` per role string) and the Moebius coefficients and the
    binomial recombination of ``correction_terms``.  No tensor is built, so
    the cost is O(n) per role string plus cells times partitions, at any k.
    """
    n, k = inputs.cells.shape[0], inputs.mass.shape[0]
    _check_order(m, n)
    plans = [_cell_plan(t + 2) for t in range(m - 1)]
    weight = {"p": inputs.eps_p, "h": inputs.abs_h1, "b": inputs.eps_b}
    sums = {roles: np.bincount(inputs.cells, reduce(np.multiply, (weight[r] for r in roles)), k)
            for roles in dict.fromkeys(r for plan in plans for _, key in plan for r in key)}
    d = []
    for t, plan in enumerate(plans):
        per_cell = sum(c * reduce(np.multiply, (sums[r] for r in key)) for c, key in plan)
        d.append(float(per_cell @ inputs.mass ** -(t + 1)))
    return _orders(d, n, inputs.sign_flag)


BRUTE_FORCE_N_CAP = 30
BRUTE_FORCE_TUPLE_CAP = 10**8


def brute_force_ifjj(j: int, inputs: ChainInputs) -> float:
    """Literal enumeration over ordered distinct j-tuples (testing oracle).

    With omega_inv = L L^T and y = zmat L, each middle factor
    M (R_s - W) M is L (h_s y_s y_s^T - I) L^T, so the kernel is applied to
    y_{i2} one factor at a time and never inverts omega_inv."""
    n = inputs.n
    if n > BRUTE_FORCE_N_CAP or n**j > BRUTE_FORCE_TUPLE_CAP:
        raise ValueError("instance too large for brute-force enumeration")
    if n < j:
        raise ValueError(f"need at least {j} records, got {n}")
    y = inputs.zmat @ np.linalg.cholesky(inputs.omega_inv)
    h = inputs.abs_h1
    sign = (-1.0) ** (j - 1) * (-1.0 if inputs.sign_flag else 1.0)
    total = 0.0
    for idx in permutations(range(n), j):
        v = y[idx[1]]
        for s in reversed(idx[2:]):
            v = h[s] * y[s] * float(y[s] @ v) - v
        total += inputs.eps_p[idx[0]] * inputs.eps_b[idx[1]] * float(y[idx[0]] @ v)
    return sign * total / perm(n, j)

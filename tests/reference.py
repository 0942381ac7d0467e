"""Reference computations that only the tests use.

Exact Hoeffding variance and mean of a U-statistic under a discrete law,
the unnormalized B-spline partition of unity, the best L2
approximation error of a basis span, the correction terms of
``ustat.correction_terms`` by its plan without the distinct-row grouping
(float64) or over exactly distinct rows (long double), those of
``ustat.cell_terms`` partition by partition (long double), the series
fit of ``nuisance.series_fit`` on dense designs by ``np.linalg.lstsq`` and
with a cross-validation loop over the folds, and the midpoint integral of ``quadrature.integrate`` with each strip's nodes
gathered from their flat indices.
"""

from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial, perm

import numpy as np
from scipy.interpolate import BSpline

from hoif import ustat
from hoif.nuisance import _fitted, _least_squares
from hoif.basis import BasisSpec, _bspline_knots
from hoif.quadrature import STRIP_NODES, QuadratureSpec


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


def bspline_partition_values(q: int, s: int, xs: np.ndarray) -> np.ndarray:
    """Sum of the unnormalized univariate B-splines at each point."""
    dm = BSpline.design_matrix(np.clip(xs, 0.0, 1.0), _bspline_knots(q, s), s).toarray()
    return dm.sum(axis=1)


def l2_approximation_error(basis: BasisSpec, f, quad: QuadratureSpec) -> float:
    """Best-approximation L2(dx) error of ``f`` over the basis span.

    Projects f onto the span using the quadrature Gram under the uniform
    density and returns the squared-norm residual.  ``f`` takes an (n, d)
    array of points.
    """
    if quad.nodes_per_dim < basis.per_dim_size:
        raise ValueError("quadrature resolution below basis resolution")
    nodes, w = quad.grid(basis.d)
    z = basis.evaluate_many(nodes)
    fv = np.asarray(f(nodes), dtype=float)
    gram = (z.T @ z) * w
    rhs = (z.T @ fv) * w
    coef = np.linalg.solve(gram, rhs)
    total = float(np.sum(fv * fv) * w)
    resid = total - float(coef @ rhs)
    return max(resid, 0.0)


def _block_keys(m: int, k: int) -> tuple[list, dict]:
    """The chain plans of IF_22..IF_mm and their block keys by rank."""
    plans = [ustat._chain_plan(t + 2, k) for t in range(m - 1)]
    ranks = {}
    for key in dict.fromkeys(key for plan in plans for *_, ks, _ in plan for key in ks):
        ranks.setdefault(key[2], []).append(key)
    return plans, ranks


def _orders(d: list, n: int, m: int, sign_flag: bool) -> list:
    """IF_22..IF_mm as binomial combinations of the distinct chain sums d_t."""
    flip = -1.0 if sign_flag else 1.0
    terms = []
    for j in range(2, m + 1):
        total = 0.0
        for t in range(j - 1):
            coef = (-1.0) ** (j - 2 - t) * comb(j - 2, t)
            total += coef * d[t] / perm(n, t + 2)
        terms.append((-1.0) ** (j - 1) * flip * total)
    return terms


def ungrouped_terms(inputs: ustat.ChainInputs, m: int) -> list[float]:
    """The correction terms with every sample's row whitened and every block
    summed over all n samples, in the order of operations of
    ``ustat.correction_terms``, so equal to it in every bit."""
    n = inputs.n
    plans, ranks = _block_keys(m, inputs.k)
    y = inputs.zmat @ inputs.cholesky
    diag = np.sum(y * y, axis=1)
    weight = {"p": inputs.eps_p, "h": inputs.abs_h1, "b": inputs.eps_b}
    table = {}
    for r, keys in ranks.items():
        w = np.empty((len(keys), n))
        for i, (roles, closed, _) in enumerate(keys):
            w[i] = weight[roles[0]]
            for role in roles[1:]:
                w[i] *= weight[role]
            for _ in range(closed):
                w[i] *= diag
        table.update(zip(keys, ustat._weighted_outer_sum(w, y, r)))
    d = [0.0] * (m - 1)
    for t, plan in enumerate(plans):
        for mob, subs, path, ks, _ in plan:
            d[t] += mob * float(np.einsum(subs, *(table[b] for b in ks), optimize=path))
    return _orders(d, n, m, inputs.sign_flag)


def longdouble_terms(inputs: ustat.ChainInputs, m: int) -> list:
    """The correction terms over the exactly distinct rows of ``zmat`` (found
    by ``np.unique``), each sample's weight product summed per row and every
    block a dense einsum, all in ``np.longdouble`` from the float64 inputs
    and Cholesky factor."""
    ld = np.longdouble
    rows, inverse = np.unique(inputs.zmat, axis=0, return_inverse=True)
    plans, ranks = _block_keys(m, inputs.k)
    y = rows.astype(ld) @ inputs.cholesky.astype(ld)
    diag = np.sum(y * y, axis=1)
    weight = {"p": inputs.eps_p.astype(ld), "h": inputs.abs_h1.astype(ld),
              "b": inputs.eps_b.astype(ld)}
    table = {}
    for roles, closed, r in (key for keys in ranks.values() for key in keys):
        w = np.zeros(len(rows), dtype=ld)
        np.add.at(w, inverse.ravel(), reduce(np.multiply, (weight[role] for role in roles)))
        axes = "pqrstu"[:r]
        subs = ",".join(["i"] + [f"i{a}" for a in axes]) + "->" + axes
        table[roles, closed, r] = np.einsum(subs, w * diag**closed, *[y] * r)
    d = [ld(0)] * (m - 1)
    for t, plan in enumerate(plans):
        for mob, subs, path, ks, _ in plan:
            d[t] += ld(mob) * np.einsum(subs, *(table[b] for b in ks), optimize=path)
    return _orders(d, inputs.n, m, inputs.sign_flag)


def longdouble_cell_terms(inputs: ustat.CellInputs, m: int) -> list:
    """The terms of ``ustat.cell_terms`` in ``np.longdouble``, every set
    partition of every chain summed on its own (no partitions merged by their
    role strings), each block's in-cell sum taken by ``np.add.at``: d_t =
    sum_c m_c^-(t+1) sum_partitions mu prod_blocks S_c(block)."""
    ld = np.longdouble
    k = len(inputs.mass)
    weight = {"p": inputs.eps_p.astype(ld), "h": inputs.abs_h1.astype(ld),
              "b": inputs.eps_b.astype(ld)}
    d = []
    for t in range(m - 1):
        length = t + 2
        total = np.zeros(k, dtype=ld)
        for blocks in ustat.set_partitions(list(range(length))):
            term = np.full(k, ld(1))
            for b in blocks:
                w = reduce(np.multiply, (weight["p" if pos == 0 else "b" if pos == length - 1
                                                else "h"] for pos in b))
                s = np.zeros(k, dtype=ld)
                np.add.at(s, inputs.cells, w)
                term *= ld((-1) ** (len(b) - 1) * factorial(len(b) - 1)) * s
            total += term
        d.append(np.sum(total / inputs.mass.astype(ld) ** (t + 1)))
    return _orders(d, len(inputs.cells), m, inputs.sign_flag)


def lstsq_series_fit(x: np.ndarray, basis: BasisSpec, k_grid: list, response: np.ndarray,
                     folds: int, seed: int, rows=slice(None)):
    """``nuisance.series_fit`` on ``nuisance.series_designs``' candidates as
    dense designs: each candidate basis evaluated on x, every fit by
    ``np.linalg.lstsq`` and a candidate skipped when a training fold's design
    has rank below its size.  Returns (predict, k_chosen)."""
    designs = {}
    for k in k_grid:
        q = round(k ** (1.0 / basis.d))
        if k <= max(x.shape[0] // 2, 1) and q**basis.d == k:
            sub = BasisSpec(basis.family, basis.d, q, order=min(basis.order, max(q - 1, 0)))
            designs[k] = (sub, sub.evaluate_many(x)[rows])
    response = response[rows]
    n = response.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    fold_id = np.arange(n) % folds
    scores = {}
    for k, (_, z) in designs.items():
        if k > max(n // 2, 1):
            continue
        if folds >= 2 and n >= 2 * folds:
            err = 0.0
            for f in range(folds):
                test, train = order[fold_id == f], order[fold_id != f]
                coef, _, rank, _ = np.linalg.lstsq(z[train], response[train], rcond=None)
                if rank < k:
                    break
                err += float(np.sum((response[test] - z[test] @ coef) ** 2))
            else:
                scores[k] = err / n
        else:
            coef = np.linalg.lstsq(z, response, rcond=None)[0]
            scores[k] = float(np.sum((response - z @ coef) ** 2)) / n
    k_best = min(scores, key=lambda k: (scores[k], k))
    sub, z = designs[k_best]
    coef = np.linalg.lstsq(z, response, rcond=None)[0]
    return (lambda pts: sub.evaluate_many(pts) @ coef), k_best


def loop_series_fit(designs: dict, response: np.ndarray, folds: int, seed: int,
                    rows=slice(None)):
    """``nuisance.series_fit`` with every candidate scored by a loop over the
    folds, each fold fitted from its own training records.  Returns
    (predict, k_chosen, scores)."""
    response = response[rows]
    n = response.shape[0]
    usable = [k for k in designs if k <= max(n // 2, 1)]
    order = np.random.default_rng(seed).permutation(n)
    fold_id = np.arange(n) % folds
    scores = {}
    for k in usable:
        sub, z = designs[k]
        z = z[rows]
        if folds >= 2 and n >= 2 * folds:
            err = 0.0
            for f in range(folds):
                test = order[fold_id == f]
                train = order[fold_id != f]
                coef, full_rank = _least_squares(sub, z[train], response[train])
                if not full_rank:
                    break
                resid = response[test] - _fitted(sub, z[test], coef)
                err += float(resid @ resid)
            else:
                scores[k] = err / n
        else:
            coef, _ = _least_squares(sub, z, response)
            resid = response - _fitted(sub, z, coef)
            scores[k] = float(resid @ resid) / n
    k_best = min(scores, key=lambda k: (scores[k], k))
    sub, z = designs[k_best]
    coef, _ = _least_squares(sub, z[rows], response)
    return (lambda pts: _fitted(sub, sub.design(pts), coef)), k_best, scores


def unravel_integrate(f, d: int, quad: QuadratureSpec) -> float:
    """``quadrature.integrate`` with the same strips, each strip's nodes
    gathered from the midpoints by ``np.unravel_index`` of its flat indices
    (row-major, C-ordered nodes)."""
    n = quad.nodes_per_dim
    x1 = (np.arange(n) + 0.5) / n
    total = 0.0
    for lo in range(0, n**d, STRIP_NODES):
        flat = np.arange(lo, min(lo + STRIP_NODES, n**d))
        nodes = x1[np.stack(np.unravel_index(flat, (n,) * d), axis=1)]
        total += float(np.sum(f(nodes)))
    return total * n ** (-d)

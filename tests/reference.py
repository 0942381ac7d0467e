"""Reference computations that only the tests use.

Exact Hoeffding variance and mean of a U-statistic under a discrete law,
the unnormalized B-spline partition of unity, and the best L2
approximation error of a basis span.
"""

from itertools import combinations, permutations
from math import comb, factorial

import numpy as np
from scipy.interpolate import BSpline

from hoif.basis import Basis, _bspline_knots
from hoif.quadrature import QuadratureSpec


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


def l2_approximation_error(basis: Basis, f, quad: QuadratureSpec) -> float:
    """Best-approximation L2(dx) error of ``f`` over the basis span.

    Projects f onto the span using the quadrature Gram under the uniform
    density and returns the squared-norm residual.  ``f`` takes an (n, d)
    array of points.
    """
    if quad.nodes_per_dim < basis.spec.per_dim_size:
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

from itertools import permutations, product

import numpy as np
import pytest

from hoif.ustat import (
    ChainInputs,
    brute_force_ifjj,
    hoeffding_variance,
    if22,
    ifjj,
    u_statistic_mean,
)


def random_inputs(rng, n, k, sign_flag=False):
    z = rng.normal(size=(n, k))
    m = np.linalg.inv(z.T @ z / n + 0.5 * np.eye(k))
    return ChainInputs(
        eps_p=rng.normal(size=n),
        eps_b=rng.normal(size=n),
        abs_h1=rng.random(n),
        zmat=z,
        omega_inv=0.5 * (m + m.T),
        sign_flag=sign_flag,
    )


def test_if22_zero_when_residual_vanishes():
    rng = np.random.default_rng(1)
    inp = random_inputs(rng, 8, 3)
    zeroed = ChainInputs(np.zeros(8), inp.eps_b, inp.abs_h1, inp.zmat,
                         inp.omega_inv, inp.sign_flag)
    assert if22(zeroed) == 0.0
    for j in (3, 4):
        assert ifjj(j, zeroed) == pytest.approx(0.0, abs=1e-14)


def test_if22_hand_example():
    # two ordered pairs with kernel -(eps_p eps_b): -(1*4) and -(2*3);
    # averaged over the 2 ordered distinct pairs gives -5
    inp = ChainInputs(
        eps_p=np.array([1.0, 2.0]),
        eps_b=np.array([3.0, 4.0]),
        abs_h1=np.ones(2),
        zmat=np.ones((2, 1)),
        omega_inv=np.ones((1, 1)),
        sign_flag=False,
    )
    assert if22(inp) == pytest.approx(-5.0)
    assert brute_force_ifjj(2, inp) == pytest.approx(-5.0)


def test_centered_middle_factor_vanishes():
    # |h1| z^2 constant across records and Omega-hat equal to its sample
    # average: every middle factor is exactly zero, so ifjj = 0 for j >= 3
    z = np.array([[1.0], [-1.0], [1.0]])
    abs_h1 = np.ones(3)
    omega = np.array([[1.0]])  # mean of |h1| z z^T
    inp = ChainInputs(
        eps_p=np.array([0.5, -1.0, 2.0]),
        eps_b=np.array([1.0, 1.0, -3.0]),
        abs_h1=abs_h1,
        zmat=z,
        omega_inv=np.linalg.inv(omega),
        sign_flag=True,
    )
    assert ifjj(3, inp) == pytest.approx(0.0, abs=1e-12)
    assert brute_force_ifjj(3, inp) == pytest.approx(0.0, abs=1e-12)


def test_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(8, 13))
        k = int(rng.integers(2, 4))
        inp = random_inputs(rng, n, k, sign_flag=bool(trial % 2))
        for j in (2, 3, 4):
            fast = if22(inp) if j == 2 else ifjj(j, inp)
            ref = brute_force_ifjj(j, inp)
            assert abs(fast - ref) <= 1e-10 * (1.0 + abs(ref))


def test_matches_brute_force_high_orders():
    # orders 5 and 6, the rest of what ifjj accepts, on tiny instances
    rng = np.random.default_rng(11)
    for trial in range(4):
        inp = random_inputs(rng, 7, 2, sign_flag=bool(trial % 2))
        for j in (5, 6):
            ref = brute_force_ifjj(j, inp)
            assert abs(ifjj(j, inp) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_order_limits():
    rng = np.random.default_rng(2)
    inp = random_inputs(rng, 10, 2)
    with pytest.raises(ValueError):
        ifjj(7, inp)
    with pytest.raises(ValueError):
        ifjj(1, inp)
    small = random_inputs(rng, 3, 2)
    with pytest.raises(ValueError):
        ifjj(4, small)


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    inp = random_inputs(rng, 9, 3)
    perm = rng.permutation(9)
    shuffled = ChainInputs(inp.eps_p[perm], inp.eps_b[perm], inp.abs_h1[perm],
                           inp.zmat[perm], inp.omega_inv, inp.sign_flag)
    for j in (2, 3, 4):
        a = if22(inp) if j == 2 else ifjj(j, inp)
        b = if22(shuffled) if j == 2 else ifjj(j, shuffled)
        assert a == pytest.approx(b, rel=1e-12)


def test_scaling_linearity_in_front_residual():
    rng = np.random.default_rng(4)
    inp = random_inputs(rng, 8, 2)
    scaled = ChainInputs(3.5 * inp.eps_p, inp.eps_b, inp.abs_h1, inp.zmat,
                         inp.omega_inv, inp.sign_flag)
    for j in (2, 3, 4):
        a = if22(inp) if j == 2 else ifjj(j, inp)
        b = if22(scaled) if j == 2 else ifjj(j, scaled)
        assert b == pytest.approx(3.5 * a, rel=1e-12)


def test_sign_flag_flips_sign():
    rng = np.random.default_rng(6)
    inp = random_inputs(rng, 8, 2, sign_flag=False)
    flipped = ChainInputs(inp.eps_p, inp.eps_b, inp.abs_h1, inp.zmat,
                          inp.omega_inv, True)
    for j in (2, 3):
        a = if22(inp) if j == 2 else ifjj(j, inp)
        b = if22(flipped) if j == 2 else ifjj(j, flipped)
        assert b == pytest.approx(-a, rel=1e-12)


def test_brute_force_tuple_count():
    # j=3, n=3: exactly 3! ordered tuples contribute
    inp = ChainInputs(
        eps_p=np.ones(3), eps_b=np.ones(3), abs_h1=np.zeros(3),
        zmat=np.ones((3, 1)), omega_inv=np.ones((1, 1)), sign_flag=False,
    )
    # middle factor reduces to -Omega M = -1, kernel is +1*(-1)*1 => each
    # tuple contributes -1; the mean over 6 tuples is -1, with the ifjj
    # sign (+1 for j=3, sign_flag=False) giving +... check both engines
    assert brute_force_ifjj(3, inp) == pytest.approx(ifjj(3, inp), rel=1e-12)


# ---------------------------------------------------------------------------
# Hoeffding variance oracle


def exact_u_variance(kernel, probs, n):
    """Exact Var(U_n) by full enumeration of the discrete sample space."""
    kernel = np.asarray(kernel, dtype=float)
    probs = np.asarray(probs, dtype=float)
    m = kernel.ndim
    support = len(probs)
    mean = 0.0
    second = 0.0
    for draw in product(range(support), repeat=n):
        p = np.prod([probs[i] for i in draw])
        vals = [kernel[idx] for idx in permutations(draw, m)]
        u = float(np.mean(vals))
        mean += p * u
        second += p * u * u
    return second - mean * mean


def test_hoeffding_constant_kernel():
    kernel = np.full((2, 2), 3.7)
    assert hoeffding_variance(kernel, [0.4, 0.6], 10) == pytest.approx(0.0, abs=1e-14)


def test_hoeffding_order_one_is_classical():
    kernel = np.array([1.0, 4.0, -2.0])
    probs = np.array([0.2, 0.5, 0.3])
    mean = kernel @ probs
    var = (kernel - mean) ** 2 @ probs
    assert hoeffding_variance(kernel, probs, 25) == pytest.approx(var / 25.0)


def test_hoeffding_degenerate_product_kernel():
    # mean-zero u, v: Var(U) = (2/(n(n-1))) E[symmetrized kernel^2]
    u = np.array([1.0, -1.0])
    v = np.array([2.0, -2.0])
    probs = np.array([0.5, 0.5])
    kernel = np.outer(u, v)
    n = 7
    got = hoeffding_variance(kernel, probs, n)
    e_f2 = 0.5 * ((u**2 @ probs) * (v**2 @ probs) + (u * v @ probs) ** 2)
    assert got == pytest.approx(2.0 / (n * (n - 1)) * e_f2)


@pytest.mark.parametrize("m,n", [(2, 6), (3, 5)])
def test_hoeffding_matches_enumeration(m, n):
    rng = np.random.default_rng(13 + m)
    kernel = rng.normal(size=(2,) * m)
    probs = np.array([0.3, 0.7])
    got = hoeffding_variance(kernel, probs, n)
    ref = exact_u_variance(kernel, probs, n)
    assert got == pytest.approx(ref, rel=1e-10)
    mean_got = u_statistic_mean(kernel, probs)
    mean_ref = sum(
        np.prod([probs[i] for i in draw]) * np.mean([kernel[idx] for idx in permutations(draw, m)])
        for draw in product(range(2), repeat=n)
    )
    assert mean_got == pytest.approx(float(mean_ref), rel=1e-10)


# ---------------------------------------------------------------------------
# degenerate-structure bias oracle (EB formula of the conditional bias)


def test_mc_mean_matches_eb_formula():
    # two-point design: X uniform on cell midpoints, MAR data, fixed
    # nuisance errors and a fixed perturbed Gram; the exact mean of ifjj is
    # sign (-1)^(j-1) u' M (D M)^(j-2) v with u, v, D population moments
    rng = np.random.default_rng(17)
    zx = np.array([[1.0, 1.0], [1.0, -1.0]])  # haar q=2 at the midpoints
    pi = np.array([0.7, 0.4])
    b = np.array([0.3, 0.6])
    db, dp = 0.5, 1.0
    b_hat = b - db
    p_hat = 1.0 / pi - dp

    u = 0.5 * ((1.0 - pi * p_hat)[:, None] * zx).sum(axis=0)  # E[eps_p z]
    v = 0.5 * ((pi * db)[:, None] * zx).sum(axis=0)  # E[z eps_b]
    d_mat = 0.5 * sum(pi[i] * np.outer(zx[i], zx[i]) for i in range(2))
    omega_hat = d_mat + np.array([[0.05, 0.02], [0.02, -0.03]])
    m_inv = np.linalg.inv(omega_hat)

    def exact_mean(j):
        # middle factors average to (D - Omega_hat) M across distinct indices
        mid = np.linalg.matrix_power((d_mat - omega_hat) @ m_inv, j - 2)
        return (-1.0) ** (j - 1) * (-1.0) * (u @ m_inv @ mid @ v)

    reps = 2000
    n = 30
    sums = {2: [], 3: [], 4: []}
    for _ in range(reps):
        xi = rng.integers(0, 2, size=n)
        a = (rng.random(n) < pi[xi]).astype(float)
        y = a * (rng.random(n) < b[xi]).astype(float)
        eps_b = a * (y - b_hat[xi])  # = b_hat*h1 + h3 with h1 = -A
        eps_p = 1.0 - a * p_hat[xi]
        inp = ChainInputs(eps_p=eps_p, eps_b=eps_b, abs_h1=a, zmat=zx[xi],
                          omega_inv=m_inv, sign_flag=True)
        sums[2].append(if22(inp))
        sums[3].append(ifjj(3, inp))
        sums[4].append(ifjj(4, inp))
    for j in (2, 3, 4):
        vals = np.asarray(sums[j])
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(vals) - exact_mean(j)) <= 3.0 * se

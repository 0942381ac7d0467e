from itertools import permutations, product

import numpy as np
import pytest

from hoif import ustat
from hoif.ustat import (
    ChainInputs,
    brute_force_ifjj,
    correction_terms,
    hoeffding_variance,
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
    if22, *higher = correction_terms(zeroed, 4)
    assert if22 == 0.0
    for term in higher:
        assert term == pytest.approx(0.0, abs=1e-14)


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
    assert correction_terms(inp, 2) == [pytest.approx(-5.0)]
    assert brute_force_ifjj(2, inp) == pytest.approx(-5.0)


def test_centered_middle_factor_vanishes():
    # |h1| z^2 constant across records and Omega-hat equal to its sample
    # average: every middle factor is exactly zero, so IFjj = 0 for j >= 3
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
    assert correction_terms(inp, 3)[-1] == pytest.approx(0.0, abs=1e-12)
    assert brute_force_ifjj(3, inp) == pytest.approx(0.0, abs=1e-12)


def test_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(8, 13))
        k = int(rng.integers(2, 4))
        inp = random_inputs(rng, n, k, sign_flag=bool(trial % 2))
        for j in (2, 3, 4):
            fast = correction_terms(inp, j)[-1]
            ref = brute_force_ifjj(j, inp)
            assert abs(fast - ref) <= 1e-10 * (1.0 + abs(ref))


def test_matches_brute_force_high_orders():
    # orders 5 and 6, the rest of what correction_terms accepts, on tiny
    # instances; then every order 2..6 from one call
    rng = np.random.default_rng(11)
    for trial in range(4):
        inp = random_inputs(rng, 7, 2, sign_flag=bool(trial % 2))
        all_orders = correction_terms(inp, 6)
        for j in range(2, 7):
            ref = brute_force_ifjj(j, inp)
            if j >= 5:
                assert abs(correction_terms(inp, j)[-1] - ref) <= 1e-10 * (1.0 + abs(ref))
            assert abs(all_orders[j - 2] - ref) <= 1e-10 * (1.0 + abs(ref))


def test_lower_orders_are_a_prefix():
    # IF22..IFm'm' do not depend on how many higher orders one call adds
    rng = np.random.default_rng(12)
    inp = random_inputs(rng, 9, 3, sign_flag=True)
    full = correction_terms(inp, 6)
    assert len(full) == 5
    for m in range(2, 6):
        assert correction_terms(inp, m) == full[: m - 1]


def test_one_chain_sum_per_chain_length(monkeypatch):
    # order m needs the chains with 0..m-2 middle positions, each once
    calls = []
    original = ustat.distinct_chain_sum
    monkeypatch.setattr(ustat, "distinct_chain_sum",
                        lambda *args: calls.append(len(args[2])) or original(*args))
    inp = random_inputs(np.random.default_rng(13), 8, 2)
    for m in range(2, 7):
        calls.clear()
        correction_terms(inp, m)
        assert calls == list(range(2, m + 1))


def test_one_tensor_per_distinct_block(monkeypatch):
    # a chain of length L has 2^L - 1 distinct blocks (nonempty position
    # subsets); each is summed over samples once, not once per partition
    calls = []
    original = ustat._weighted_outer_sum
    monkeypatch.setattr(ustat, "_weighted_outer_sum",
                        lambda wv, mats: calls.append(len(mats)) or original(wv, mats))
    inp = random_inputs(np.random.default_rng(14), 8, 2)
    zm = inp.zmat @ inp.omega_inv
    for length in range(2, 7):
        calls.clear()
        ustat.distinct_chain_sum(inp.zmat, zm, [inp.abs_h1] * length)
        assert len(calls) == 2**length - 1
    calls.clear()
    correction_terms(inp, 4)
    assert len(calls) == 3 + 7 + 15


def test_order_limits():
    rng = np.random.default_rng(2)
    inp = random_inputs(rng, 10, 2)
    with pytest.raises(ValueError):
        correction_terms(inp, 7)
    with pytest.raises(ValueError):
        correction_terms(inp, 1)
    small = random_inputs(rng, 3, 2)
    with pytest.raises(ValueError):
        correction_terms(small, 4)


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    inp = random_inputs(rng, 9, 3)
    perm = rng.permutation(9)
    shuffled = ChainInputs(inp.eps_p[perm], inp.eps_b[perm], inp.abs_h1[perm],
                           inp.zmat[perm], inp.omega_inv, inp.sign_flag)
    for j in (2, 3, 4):
        a = correction_terms(inp, j)[-1]
        b = correction_terms(shuffled, j)[-1]
        assert a == pytest.approx(b, rel=1e-12)


def test_scaling_linearity_in_front_residual():
    rng = np.random.default_rng(4)
    inp = random_inputs(rng, 8, 2)
    scaled = ChainInputs(3.5 * inp.eps_p, inp.eps_b, inp.abs_h1, inp.zmat,
                         inp.omega_inv, inp.sign_flag)
    for j in (2, 3, 4):
        a = correction_terms(inp, j)[-1]
        b = correction_terms(scaled, j)[-1]
        assert b == pytest.approx(3.5 * a, rel=1e-12)


def test_sign_flag_flips_sign():
    rng = np.random.default_rng(6)
    inp = random_inputs(rng, 8, 2, sign_flag=False)
    flipped = ChainInputs(inp.eps_p, inp.eps_b, inp.abs_h1, inp.zmat,
                          inp.omega_inv, True)
    for j in (2, 3):
        a = correction_terms(inp, j)[-1]
        b = correction_terms(flipped, j)[-1]
        assert b == pytest.approx(-a, rel=1e-12)


def test_brute_force_tuple_count():
    # j=3, n=3: exactly 3! ordered tuples contribute
    inp = ChainInputs(
        eps_p=np.ones(3), eps_b=np.ones(3), abs_h1=np.zeros(3),
        zmat=np.ones((3, 1)), omega_inv=np.ones((1, 1)), sign_flag=False,
    )
    # middle factor reduces to -Omega M = -1, kernel is +1*(-1)*1 => each
    # tuple contributes -1; the mean over 6 tuples is -1, with the IF33
    # sign (+1 for j=3, sign_flag=False) giving +... check both engines
    assert brute_force_ifjj(3, inp) == pytest.approx(correction_terms(inp, 3)[-1], rel=1e-12)


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
    # nuisance errors and a fixed perturbed Gram; the exact mean of IFjj is
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
        for j, term in enumerate(correction_terms(inp, 4), start=2):
            sums[j].append(term)
    for j in (2, 3, 4):
        vals = np.asarray(sums[j])
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(vals) - exact_mean(j)) <= 3.0 * se

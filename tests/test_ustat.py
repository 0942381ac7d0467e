import tracemalloc
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoif import ustat
from hoif.basis import BasisSpec, build_basis
from hoif.data import ValidationError
from hoif.gram import cell_gram, invert_checked
from hoif.ustat import (
    CellInputs,
    ChainInputs,
    brute_force_ifjj,
    cell_terms,
    correction_terms,
)
from reference import (
    hoeffding_variance,
    longdouble_cell_terms,
    longdouble_terms,
    u_statistic_mean,
    ungrouped_terms,
)


def random_inputs(rng, n, k, sign_flag=False, pool=None):
    # pool: the basis rows repeat that many distinct rows, as a
    # piecewise-constant basis or a discrete X gives
    z = rng.normal(size=(n, k))
    if pool is not None:
        z = z[rng.integers(pool, size=n)]
    m = np.linalg.inv(z.T @ z / n + 0.5 * np.eye(k))
    return ChainInputs(
        eps_p=rng.normal(size=n),
        eps_b=rng.normal(size=n),
        abs_h1=rng.random(n),
        zmat=z,
        omega_inv=0.5 * (m + m.T),
        sign_flag=sign_flag,
    )


def haar_inputs(rng, n, k):
    # two-dimensional Haar rows at k = q^2, constant on each of the k finest
    # cells, with the inverse of a Gram from an independent training draw
    basis = build_basis(BasisSpec("haar", 2, int(round(np.sqrt(k)))))
    z, z_tr = (basis.evaluate_many(rng.random((n, 2))) for _ in range(2))
    m = np.linalg.inv((z_tr * rng.random((n, 1))).T @ z_tr / n)
    return ChainInputs(rng.normal(size=n), rng.normal(size=n), rng.random(n), z,
                       0.5 * (m + m.T), False)


def build_widths(inp, m):
    # correction_terms' terms and the row count of every rank build
    widths = []
    original = ustat._weighted_outer_sum
    with mock.patch.object(ustat, "_weighted_outer_sum",
                           lambda w, y, r: widths.append(w.shape[1]) or original(w, y, r)):
        terms = correction_terms(inp, m)
    return terms, widths


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


def test_one_tensor_per_block_key(monkeypatch):
    # every partition of every chain length reads one table that holds each
    # distinct block tensor once: m^2 - 1 tensors for order m, where one
    # table per chain length would build 3, 10, 25, 56, 119; the tensors of
    # one rank come from one build, so order m makes m builds
    calls = []
    original = ustat._weighted_outer_sum
    monkeypatch.setattr(ustat, "_weighted_outer_sum",
                        lambda w, y, r: calls.append((r, len(w))) or original(w, y, r))
    inp = random_inputs(np.random.default_rng(14), 8, 2)
    for m, tensors in zip(range(2, 7), (3, 8, 15, 24, 35)):
        calls.clear()
        correction_terms(inp, m)
        assert sum(c for _, c in calls) == tensors
        assert sorted(r for r, _ in calls) == list(range(m))


def test_plan_enumerates_partitions_once(monkeypatch):
    inp = random_inputs(np.random.default_rng(13), 8, 3)
    first = correction_terms(inp, 6)
    calls = []
    original = ustat.set_partitions
    monkeypatch.setattr(ustat, "set_partitions",
                        lambda items: calls.append(items) or original(items))
    assert correction_terms(inp, 6) == first
    assert calls == []


def test_over_budget_plan_refused_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(ustat, "_weighted_outer_sum", lambda wv, mats: calls.append(wv))
    monkeypatch.setattr(ustat, "PLAN_BYTES_MAX", 1000)
    inp = random_inputs(np.random.default_rng(16), 8, 3)
    with pytest.raises(ValidationError, match=r"order m=4 at k=3 plans \d+ bytes"):
        correction_terms(inp, 4)
    assert calls == []
    monkeypatch.undo()
    assert len(correction_terms(inp, 2)) == 1  # 7 doubles fit any cap


def test_over_budget_rank_refused_before_packing(monkeypatch):
    # m=6 at k=64 needs two 8 GB rank-5 tensors: refused before any index
    # map or block tensor is built
    calls = []
    monkeypatch.setattr(ustat, "_packing", lambda k, q: calls.append((k, q)))
    monkeypatch.setattr(ustat, "_weighted_outer_sum", lambda w, y, r: calls.append(r))
    inp = random_inputs(np.random.default_rng(18), 8, 64)
    with pytest.raises(ValidationError, match=r"order m=6 at k=64 plans \d+ bytes"):
        correction_terms(inp, 6)
    assert calls == []


@pytest.mark.parametrize("n,k,m", [(60, 12, 6), (64, 32, 5), (1000, 3, 6), (100, 64, 3),
                                   (8, 3, 6), (200, 16, 4), (10_000, 64, 4), (1000, 16, 5)])
def test_traced_peak_within_planned_bytes(monkeypatch, n, k, m):
    # the plan bounds the whole call: the whitened rows, the block table,
    # each rank's build and every partition's einsum working set (its operand
    # copies and products); the last two shapes repeat rows, as Haar rows and
    # with one repeated row
    planned = []
    original = ustat._planned_bytes
    monkeypatch.setattr(ustat, "_planned_bytes",
                        lambda *args: planned.append(original(*args)) or planned[-1])
    rng = np.random.default_rng(23)
    inp = (haar_inputs(rng, n, k) if (n, k, m) == (10_000, 64, 4)
           else random_inputs(rng, n, k, pool=n - 1 if (n, k, m) == (1000, 16, 5) else None))
    correction_terms(inp, m)  # plans and index maps are cached from here on
    tracemalloc.start()
    try:
        correction_terms(inp, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planned[-1]


def test_rejects_indefinite_omega_inv():
    rng = np.random.default_rng(19)
    inp = random_inputs(rng, 8, 3)
    indefinite = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(ValueError, match="omega_inv must be positive definite"):
        ChainInputs(inp.eps_p, inp.eps_b, inp.abs_h1, inp.zmat, indefinite, False)


@pytest.mark.parametrize("change,message", [
    ({"eps_b": np.zeros(7)}, "eps_b must have length 8"),
    ({"abs_h1": np.zeros(9)}, "abs_h1 must have length 8"),
    ({"omega_inv": np.eye(4)}, "omega_inv shape mismatch"),
    ({"omega_inv": np.eye(3) + np.diag([0.1, 0.1], k=1)}, "omega_inv must be symmetric"),
])
def test_chain_inputs_reject_malformed_arrays(change, message):
    # the estimator builds these arrays itself: a mismatch is a fault in the
    # program (ValueError, exit 4), not bad input
    inp = random_inputs(np.random.default_rng(19), 8, 3)
    fields = {name: getattr(inp, name) for name in
              ("eps_p", "eps_b", "abs_h1", "zmat", "omega_inv", "sign_flag")}
    with pytest.raises(ValueError, match=message) as err:
        ChainInputs(**{**fields, **change})
    assert not isinstance(err.value, ValidationError)


@settings(max_examples=80, deadline=None)
@given(r=st.integers(0, 5), c=st.integers(1, 3), n=st.integers(1, 9), k=st.integers(1, 4),
       chunk=st.sampled_from([1, 5, 1 << 22]), seed=st.integers(0, 2**32 - 1))
def test_rank_build_matches_dense_sum(r, c, n, k, chunk, seed):
    # the packed, mirrored build of every stacked weight row against the
    # dense sum_i w_ci y_i^(x r), with Khatri-Rao chunks of 1 row and up
    rng = np.random.default_rng(seed)
    w, y = rng.normal(size=(c, n)), rng.normal(size=(n, k))
    axes = "pqrst"[:r]
    subs = ",".join(["ci"] + [f"i{a}" for a in axes]) + "->c" + axes
    dense = np.einsum(subs, w, *[y] * r)
    with mock.patch.object(ustat, "_KR_CHUNK", chunk):
        built = ustat._weighted_outer_sum(w, y, r)
    assert built.shape == (c,) + (k,) * r
    assert np.max(np.abs(built - dense), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(dense)))


def test_block_tensors_are_c_contiguous(monkeypatch):
    # einsum copies a strided operand before every contraction it enters, so
    # each rank's stacked tensors, and each tensor in the table, is in C order
    built = []
    original = ustat._weighted_outer_sum
    monkeypatch.setattr(ustat, "_weighted_outer_sum",
                        lambda w, y, r: built.append(original(w, y, r)) or built[-1])
    rng = np.random.default_rng(21)
    for inp in (random_inputs(rng, 9, 3), random_inputs(rng, 40, 5, pool=6)):
        built.clear()
        correction_terms(inp, 6)
        assert [t.ndim for t in built] == [1, 2, 3, 4, 5, 6]
        assert all(t.flags.c_contiguous and all(ti.flags.c_contiguous for ti in t)
                   for t in built)


def test_matches_brute_force_ill_conditioned():
    # Gram eigenvalues spread over eight decades: the whitened kernel keeps
    # the brute-force agreement at the usual tolerance, for basis rows drawn
    # independently of the Gram and for rows drawn from it; the last six
    # trials repeat 2-4 distinct rows
    rng = np.random.default_rng(21)
    for trial in range(18):
        n, k = 8, 4
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        eig = np.logspace(0, -8, k)
        gram = (q * eig) @ q.T
        m = np.linalg.inv(gram)
        inp = random_inputs(rng, n, k, sign_flag=bool(trial % 2))
        z = inp.zmat if trial < 6 else inp.zmat @ (q * np.sqrt(eig)).T
        if trial >= 12:
            z = z[rng.integers(2 + trial % 3, size=n)]
        inp = ChainInputs(inp.eps_p, inp.eps_b, inp.abs_h1, z, 0.5 * (m + m.T),
                          inp.sign_flag)
        for j, fast in enumerate(correction_terms(inp, 5), start=2):
            ref = brute_force_ifjj(j, inp)
            assert abs(fast - ref) <= 1e-10 * (1.0 + abs(ref))


@st.composite
def chain_instances(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m, 8))
    k = draw(st.integers(1, 4))
    pool = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return m, random_inputs(rng, n, k, sign_flag=draw(st.booleans()), pool=pool)


@settings(max_examples=80, deadline=None)
@given(chain_instances())
def test_every_order_matches_brute_force(case):
    # shapes come in random order, so plans cached for one (length, k) are
    # reused by later instances of other n; rows drawn from a pool smaller
    # than n repeat, as a discrete X gives
    m, inp = case
    for j, fast in enumerate(correction_terms(inp, m), start=2):
        ref = brute_force_ifjj(j, inp)
        assert abs(fast - ref) <= 1e-10 * (1.0 + abs(ref))


@pytest.mark.parametrize("n,k,m", [(9, 3, 6), (40, 5, 5), (500, 64, 4), (2500, 16, 3)])
def test_distinct_rows_keep_the_ungrouped_arithmetic(n, k, m):
    # every rank is built over all n rows, and every term is the reference
    # formula's to the last bit
    inp = random_inputs(np.random.default_rng(31), n, k, sign_flag=True)
    terms, widths = build_widths(inp, m)
    assert set(widths) == {n}
    assert terms == ungrouped_terms(inp, m)


@pytest.mark.parametrize("n,k,m,bound", [(2000, 64, 4, 1e-13), (2000, 16, 5, 1e-10)])
def test_haar_rows_match_long_double(n, k, m, bound):
    # Haar rows take at most k distinct values; the float64 terms, summed over
    # all n rows, against the same sums in long double over the distinct
    # rows, per order, relative.  The worst errors seen on four draws of this
    # shape were 4.3e-15 at m=4 and 1.1e-11 at m=5, and on the draws of seeds
    # 37-40 1.4e-14 and 4.7e-13: the binomial recombination of the chain sums
    # cancels more at each order
    inp = haar_inputs(np.random.default_rng(37), n, k)
    for fast, ref in zip(correction_terms(inp, m), longdouble_terms(inp, m), strict=True):
        assert abs(fast - ref) <= bound * abs(ref)


def haar_cell_inputs(rng, n, k):
    # two-dimensional Haar at k = q^2: the estimation records' cells and a
    # training draw's cell masses, and the same data as tensor-route inputs,
    # the basis rows of those cells and the inverse of the Gram of the masses
    basis = build_basis(BasisSpec("haar", 2, int(round(np.sqrt(k)))))
    cells = basis.cells(rng.random((n, 2)))
    mass = np.bincount(basis.cells(rng.random((n, 2))), rng.random(n), k) / n
    rows = basis.cell_rows()
    inverse = invert_checked(cell_gram(rows, mass, "empirical", n)).inverse
    eps_p, eps_b, abs_h1 = rng.normal(size=n), rng.normal(size=n), rng.random(n)
    return (CellInputs(eps_p, eps_b, abs_h1, cells, mass, False),
            ChainInputs(eps_p, eps_b, abs_h1, rows[cells], inverse, False))


@pytest.mark.parametrize("n,k,m,bound", [(10_000, 64, 5, 1e-11), (2000, 16, 6, 1e-10)])
def test_cell_terms_match_the_tensor_route_and_long_double(n, k, m, bound):
    # per order, relative: cell_terms against correction_terms on the same
    # Haar data, and against long double, partition by partition
    # (longdouble_cell_terms) and, where its k^(m-1) tensors are small, the
    # tensor route's (longdouble_terms).  Each bound is ten times or more the
    # worst error seen on four draws of this shape (9.3e-13 against long
    # double and 1.0e-12 against the tensor route at m=5; 6.2e-12 and 9.8e-12
    # at m=6, where the tensor route itself is 3.6e-12 from long double):
    # the binomial recombination of the chain sums cancels more at each order
    cell, chain = haar_cell_inputs(np.random.default_rng(43), n, k)
    terms = cell_terms(cell, m)
    refs = [correction_terms(chain, m), longdouble_cell_terms(cell, m)]
    if k ** (m - 1) <= 16**5:
        refs.append(longdouble_terms(chain, m))
    for ref in refs:
        for fast, want in zip(terms, ref, strict=True):
            assert abs(fast - want) <= bound * abs(want)


@st.composite
def cell_instances(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m, 8))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = CellInputs(rng.normal(size=n), rng.normal(size=n), rng.random(n),
                      rng.integers(k, size=n), 0.1 + rng.random(k), draw(st.booleans()))
    return m, cell


@settings(max_examples=80, deadline=None)
@given(cell_instances())
def test_cell_terms_match_brute_force(case):
    # the kernel 1[c_i = c_j] / m_c is the chain kernel of indicator rows
    # with the inverse Gram diag(1 / m_c): every order against the enumeration
    m, cell = case
    k = len(cell.mass)
    chain = ChainInputs(cell.eps_p, cell.eps_b, cell.abs_h1, np.eye(k)[cell.cells],
                        np.diag(1.0 / cell.mass), cell.sign_flag)
    for j, fast in enumerate(cell_terms(cell, m), start=2):
        ref = brute_force_ifjj(j, chain)
        assert abs(fast - ref) <= 1e-10 * (1.0 + abs(ref))


def test_cell_inputs_and_orders_refused():
    rng = np.random.default_rng(3)
    args = (rng.normal(size=5), rng.normal(size=5), rng.random(5), np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="cell masses must be positive"):
        CellInputs(*args, np.array([1.0, 0.0]), False)
    with pytest.raises(ValueError, match="eps_b must have length 5"):
        CellInputs(args[0], args[1][:4], *args[2:], np.ones(2), False)
    cell = CellInputs(*args, np.ones(2), False)
    for m in (1, 7):
        with pytest.raises(ValueError):
            cell_terms(cell, m)
    with pytest.raises(ValueError, match="need at least 6 records"):
        cell_terms(cell, 6)


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

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoif.data import Dataset, ValidationError, dataset_from_csv, dataset_to_csv
from hoif.basis import BasisSpec
from hoif import quadrature
from hoif.quadrature import QuadratureSpec, basis_quadrature, default_nodes_per_dim, integrate
from hoif.sim import SCENARIOS, generate
from reference import unravel_integrate


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_read_basic(tmp_path):
    path = write(tmp_path, "# comment line\nA,Y,X1\n1,0.5,0.25\n0,,0.75\n")
    data = dataset_from_csv(path)
    assert data.n == 2 and data.d == 1
    np.testing.assert_allclose(data.a, [1.0, 0.0])
    np.testing.assert_allclose(data.y, [0.5, 0.0])
    np.testing.assert_allclose(data.x[:, 0], [0.25, 0.75])


def test_read_multidim_column_selection(tmp_path):
    path = write(tmp_path, "A,Y,X1,X2\n1,1,0.1,0.9\n")
    data = dataset_from_csv(path, d=2)
    assert data.d == 2
    np.testing.assert_allclose(data.x[0], [0.1, 0.9])


def test_columns_in_any_order_and_extra_columns(tmp_path):
    # the fast parse reads every column and selects A, Y and X by name; a
    # non-numeric extra column sends the file to the row-by-row parse
    for text in ("Y,X1,A,w\n0.5,0.25,1,3\n0,0.75,0,4\n",
                 "Y,X1,A,note\n0.5,0.25,1,first\n,0.75,0,second\n"):
        data = dataset_from_csv(write(tmp_path, text))
        np.testing.assert_array_equal(data.a, [1.0, 0.0])
        np.testing.assert_array_equal(data.y, [0.5, 0.0])
        np.testing.assert_array_equal(data.x[:, 0], [0.25, 0.75])


def test_rows_wider_than_the_header(tmp_path):
    # rows of one width parse in one pass; a width other than the header's
    # is still reported at the first row
    with pytest.raises(ValidationError, match="^row 2: expected 3 fields$"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0,0.5,0.1\n0,0,0.2,0.3\n"))


def test_missing_columns(tmp_path):
    with pytest.raises(ValidationError, match="column Y absent"):
        dataset_from_csv(write(tmp_path, "A,X1\n1,0.5\n"))
    with pytest.raises(ValidationError, match="column X1 absent"):
        dataset_from_csv(write(tmp_path, "A,Y\n1,0.5\n"))
    with pytest.raises(ValidationError, match="column X2 absent"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0.5,0.5\n"), d=2)


def test_covariates_are_x1_to_xd_whatever_the_dimension_key(tmp_path):
    # d counts the columns named X<j>; the covariates are X1..Xd in index
    # order, as when d is given
    path = write(tmp_path, "A,Y,X2,X1\n1,1,0.9,0.1\n")
    for d in (None, 2):
        np.testing.assert_array_equal(dataset_from_csv(path, d=d).x, [[0.1, 0.9]])
    gap = write(tmp_path, "A,Y,X1,X3\n1,1,0.1,0.9\n")
    for d in (None, 2):
        with pytest.raises(ValidationError, match="column X2 absent"):
            dataset_from_csv(gap, d=d)
    # a text column whose name starts with X is no covariate
    data = dataset_from_csv(write(tmp_path, "A,Y,X1,Xnote,X01\n1,1,0.1,first,0.5\n"))
    np.testing.assert_array_equal(data.x, [[0.1]])


def test_row_errors_localized(tmp_path):
    with pytest.raises(ValidationError, match="row 3"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0.5,0.5\n1,oops,0.5\n"))
    with pytest.raises(ValidationError, match="row 2: expected 3 fields"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0.5\n"))
    with pytest.raises(ValidationError, match="row 2"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0.5,1.5\n"))


def test_blank_y_only_when_missing(tmp_path):
    with pytest.raises(ValidationError, match="Y empty with A=1"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,,0.5\n"))


def test_a_must_be_binary(tmp_path):
    with pytest.raises(ValidationError, match="A must be 0/1"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n0.5,0.1,0.5\n"))


def test_empty_file(tmp_path):
    with pytest.raises(ValidationError, match="empty input"):
        dataset_from_csv(write(tmp_path, "# nothing here\n"))


def test_roundtrip(tmp_path):
    data = generate(SCENARIOS["s2-smooth-d2"], 50, 11)
    path = tmp_path / "round.csv"
    dataset_to_csv(data, path, header_lines=["generated for test"])
    back = dataset_from_csv(path)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.a, data.a)
    np.testing.assert_array_equal(back.y, data.y)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    real = st.one_of(st.sampled_from([0.0, 1.0, -0.0]),
                     st.floats(allow_nan=False, allow_infinity=False))
    x = np.array(draw(st.lists(unit, min_size=n * d, max_size=n * d))).reshape(n, d)
    a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(real, min_size=n, max_size=n)))
    return Dataset(x, a, y)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_csv_roundtrip_bit_for_bit(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        dataset_to_csv(data, path, header_lines=["round trip"])
        back = dataset_from_csv(path)
    for got, want in ((back.x, data.x), (back.a, data.a), (back.y, data.y)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# the bad line is the fourth of the file that is neither blank nor a comment
MALFORMED = "# made by hand\nA,Y,X1,X2\n0,0,0.5,0.5\n\n# mid\n1,1,0.25,0.75\n  \n{bad}\n0,,0,1\n"


@pytest.mark.parametrize("bad,message", [
    ("1,0,0.5", "row 4: expected 4 fields"),
    ("1,0,0.5,0.5,0.5", "row 4: expected 4 fields"),
    ("1,0,0.5,abc", "row 4: could not convert string to float: 'abc'"),
    ("1,0, abc ,0.5", "row 4: could not convert string to float: 'abc'"),
    ("one,0,0.5,0.5", "row 4: could not convert string to float: 'one'"),
    ("1,,0.5,0.5", "row 4: column Y empty with A=1"),
    ("1,0,0.5,1.5", "row 4: X coordinate outside [0,1]"),
    ("1,0,-0.5,0.5", "row 4: X coordinate outside [0,1]"),
    ("2,0,0.5,0.5", "column A must be 0/1"),
    ("1,1,nan,0.5", "row 4: X coordinate outside [0,1]"),
    ("1,0,0.5,nan", "row 4: X coordinate outside [0,1]"),
    ("1,nan,0.3,0.5", "row 4: column Y not finite"),
    ("1,inf,0.3,0.5", "row 4: column Y not finite"),
    ("0,-inf,0.3,0.5", "row 4: column Y not finite"),
])
def test_malformed_row_reported(tmp_path, bad, message):
    path = write(tmp_path, MALFORMED.format(bad=bad))
    with pytest.raises(ValidationError) as err:
        dataset_from_csv(path)
    assert str(err.value) == message


def test_first_bad_row_wins(tmp_path):
    # a parse fault is reported before any later row, and range checks run
    # only once every row has parsed
    text = "A,Y,X1\n1,0,1.5\n1,0,x\n1,0\n"
    with pytest.raises(ValidationError, match="^row 3: could not convert"):
        dataset_from_csv(write(tmp_path, text))
    with pytest.raises(ValidationError, match="^column A must be 0/1"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0,1.5\n2,0,0.5\n"))
    with pytest.raises(ValidationError, match="^row 2: X coordinate"):
        dataset_from_csv(write(tmp_path, "A,Y,X1\n1,0,1.5\n1,0,0.5\n0,0,-1\n"))


def test_unreadable_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read .*absent.csv"):
        dataset_from_csv(tmp_path / "absent.csv")
    (tmp_path / "latin1.csv").write_bytes(b"A,Y,X1\n1,0,0.5\xff\n")
    with pytest.raises(ValidationError, match="cannot read"):
        dataset_from_csv(tmp_path / "latin1.csv")


def test_byte_order_mark_is_not_part_of_the_header(tmp_path):
    # a UTF-8 byte-order mark before the header reads as the plain file
    text = "A,Y,X1,X2\n1,0.5,0.25,0.5\n0,,0.75,0.125\n"
    plain = dataset_from_csv(write(tmp_path, text))
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    marked = dataset_from_csv(tmp_path / "bom.csv")
    for name in ("a", "y", "x"):
        np.testing.assert_array_equal(getattr(marked, name), getattr(plain, name))


def test_dataset_shape_validation():
    with pytest.raises(ValidationError):
        Dataset(np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        Dataset(np.zeros((3, 1)), np.zeros(2), np.zeros(3))


def test_subset():
    data = generate(SCENARIOS["s1-smooth-d1"], 10, 12)
    sub = data.subset(np.array([1, 3, 5]))
    assert sub.n == 3
    np.testing.assert_array_equal(sub.x[:, 0], data.x[[1, 3, 5], 0])


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_polynomial_exact_rates():
    quad = QuadratureSpec(256)
    assert integrate(lambda x: np.ones(x.shape[0]), 1, quad) == pytest.approx(1.0)
    # midpoint rule is exact for linears
    assert integrate(lambda x: x[:, 0], 1, quad) == pytest.approx(0.5, abs=1e-14)
    got = integrate(lambda x: x[:, 0] ** 2, 1, quad)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_integrate_product_2d():
    quad = QuadratureSpec(128)
    got = integrate(lambda x: x[:, 0] * x[:, 1], 2, quad)
    assert got == pytest.approx(0.25, abs=1e-6)


def test_integrate_in_strips(monkeypatch):
    # a 1024^2 grid is evaluated in strips of at most STRIP_NODES nodes that
    # cover every node once; a grid of one strip matches the whole-grid sum
    sizes = []

    def f(x):
        sizes.append(len(x))
        return x[:, 0] * x[:, 1] ** 2

    got = integrate(f, 2, QuadratureSpec(1024))
    assert max(sizes) <= quadrature.STRIP_NODES and sum(sizes) == 1024**2
    assert got == pytest.approx(1.0 / 6.0 - 0.5 / (12 * 1024**2), rel=1e-12)
    nodes, w = QuadratureSpec(64).grid(2)
    assert integrate(f, 2, QuadratureSpec(64)) == float(np.sum(f(nodes)) * w)


@pytest.mark.parametrize("d,n", [(1, 3), (1, 96), (1, 300), (2, 3), (2, 96), (2, 300),
                                 (2, 1024), (3, 3), (3, 96), (3, 70)])
def test_integrate_matches_the_unravel_construction(d, n):
    # integrate gathers each strip's nodes at its flat indices; the strips,
    # and so every sum, stay bit-identical to that construction as written
    # out in the reference, also where STRIP_NODES is not a multiple of the
    # grid (300^2, 96^3 and 70^3 nodes), so no second one creeps back in
    seen = {"new": [], "old": []}

    def recorder(key):
        def f(x):
            seen[key].append(x.copy())
            return x[:, 0] * np.sin(x[:, -1]) + x.sum(axis=1) ** 2
        return f

    quad = QuadratureSpec(n)
    assert integrate(recorder("new"), d, quad) == unravel_integrate(
        recorder("old"), d, quad)
    assert len(seen["new"]) == len(seen["old"]) == -(-n**d // quadrature.STRIP_NODES)
    for new, old in zip(seen["new"], seen["old"]):
        np.testing.assert_array_equal(new, old)
    # an integrand that returns a view of the nodes sums the same too
    column = lambda x: x[:, 0]  # noqa: E731
    assert integrate(column, d, quad) == unravel_integrate(column, d, quad)


def test_default_nodes_shrink_with_dimension():
    assert default_nodes_per_dim(1) >= default_nodes_per_dim(2) >= default_nodes_per_dim(3)
    with pytest.raises(ValueError):
        QuadratureSpec(0)


@pytest.mark.parametrize("spec,nodes", [
    (BasisSpec("haar", 1, 4), 256),
    (BasisSpec("haar", 2, 256), 256),
    (BasisSpec("haar", 3, 64), 64),
    (BasisSpec("haar", 1, 512), 512),
    (BasisSpec("haar", 2, 512), 512),
    (BasisSpec("haar", 3, 128), 128),
    (BasisSpec("bspline", 1, 300, order=2), 300),
])
def test_basis_grid_is_the_finer_of_default_and_basis(spec, nodes):
    # unchanged up to the default; a finer basis gets one node per cell
    assert basis_quadrature(spec) == QuadratureSpec(nodes)

"""Unit tests for the degree-2 polynomial basis."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.predict.basis import PolynomialBasis


class TestExpansion:
    def test_dimension_formula(self):
        # the paper: w in R^{1 + 2n + C(n,2)}
        for n in (1, 2, 5, 20):
            basis = PolynomialBasis(n)
            assert basis.dim == 1 + 2 * n + n * (n - 1) // 2

    def test_small_example(self):
        basis = PolynomialBasis(2)
        phi = basis.expand(np.array([2.0, 3.0]))
        assert phi.tolist() == [1.0, 2.0, 3.0, 4.0, 9.0, 6.0]

    def test_constant_term_first(self):
        basis = PolynomialBasis(4)
        phi = basis.expand(np.zeros(4))
        assert phi[0] == 1.0
        assert np.all(phi[1:] == 0.0)

    def test_wrong_shape_rejected(self):
        basis = PolynomialBasis(3)
        with pytest.raises(ValueError):
            basis.expand(np.ones(4))

    def test_nonfinite_rejected(self):
        basis = PolynomialBasis(2)
        with pytest.raises(ValueError):
            basis.expand(np.array([1.0, np.nan]))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            PolynomialBasis(0)


@given(
    x=st.lists(
        st.floats(min_value=-100.0, max_value=100.0), min_size=3, max_size=3
    )
)
def test_expansion_contains_all_products(x):
    """Property: every pairwise product x_i x_j appears exactly once."""
    basis = PolynomialBasis(3)
    phi = basis.expand(np.array(x))
    expected = [
        1.0,
        x[0], x[1], x[2],
        x[0] ** 2, x[1] ** 2, x[2] ** 2,
        x[0] * x[1], x[0] * x[2], x[1] * x[2],
    ]
    assert np.allclose(phi, expected)


class TestRowConstruction:
    @staticmethod
    def reference(x: np.ndarray) -> np.ndarray:
        """The textbook layout: 1, x, x*x, then the strict upper triangle."""
        iu, ju = np.triu_indices(len(x), k=1)
        return np.concatenate(([1.0], x, x * x, x[iu] * x[ju]))

    @given(
        x=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1, max_size=20,
        )
    )
    def test_bit_identical_to_triu_formula(self, x):
        x = np.array(x)
        with np.errstate(over="ignore", under="ignore"):
            phi = PolynomialBasis(len(x)).expand(x)
            expected = self.reference(x)
        assert phi.shape == expected.shape
        assert np.array_equal(phi, expected, equal_nan=True)
        # signed zeros survive the multiplication by one as well
        assert np.array_equal(np.signbit(phi), np.signbit(expected))

    def test_returns_a_fresh_row_each_call(self):
        """Rows are kept (``MLPredictor._pending``): a later expansion must
        not show through an earlier one."""
        basis = PolynomialBasis(3)
        first = basis.expand(np.array([1.0, 2.0, 3.0]))
        kept = first.copy()
        second = basis.expand(np.array([4.0, 5.0, 6.0]))
        assert first is not second
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, basis._one_x)
        assert np.array_equal(first, kept)

    def test_accepts_a_plain_sequence(self):
        assert PolynomialBasis(2).expand([2.0, 3.0]).tolist() == [
            1.0, 2.0, 3.0, 4.0, 9.0, 6.0,
        ]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_nonfinite_value_rejected(self, bad):
        basis = PolynomialBasis(3)
        with pytest.raises(ValueError, match="finite"):
            basis.expand(np.array([1.0, bad, 2.0]))
        # the scratch row is not poisoned for the next caller
        assert np.isfinite(basis.expand(np.array([1.0, 2.0, 3.0]))).all()

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_every_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected shape"):
            PolynomialBasis(3).expand(np.ones(shape))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtc.errors import DimensionMismatch, NonRealResult
from mvtc.tensor_ops import (
    fft_mode3,
    ifft_mode3,
    t_product,
    t_svd,
    t_transpose,
)

from oracles import block_circulant_product, dft_mode3, identity_tensor


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# forward / inverse transform


def test_fft_constant_signal_has_only_dc_energy():
    spectrum = fft_mode3(np.ones((2, 2, 4)))
    np.testing.assert_allclose(spectrum[:, :, 0], 4.0 * np.ones((2, 2)))
    np.testing.assert_allclose(spectrum[:, :, 1:], 0.0, atol=1e-14)


def test_fft_two_point_tube():
    t = np.zeros((1, 1, 2))
    a, b = 1.7, -0.3
    t[0, 0, :] = [a, b]
    spectrum = fft_mode3(t)
    np.testing.assert_allclose(spectrum[0, 0, :], [a + b, a - b])


def test_fft_matches_summation_dft_oracle():
    t = random_tensor((3, 2, 5), seed=11)
    expected = dft_mode3(t)
    got = fft_mode3(t)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_ifft_of_constant_spectrum_round_trips():
    t = np.ones((2, 2, 4))
    np.testing.assert_allclose(ifft_mode3(fft_mode3(t)), t, atol=1e-14)


def test_ifft_dc_only_spectrum_reconstructs_constant():
    s0 = np.array([[2.0, -1.0], [0.5, 3.0]])
    spectrum = np.zeros((2, 2, 5), dtype=complex)
    spectrum[:, :, 0] = s0
    out = ifft_mode3(spectrum)
    for k in range(5):
        np.testing.assert_allclose(out[:, :, k], s0 / 5.0, atol=1e-14)


def test_fft_ifft_round_trip():
    t = random_tensor((4, 3, 7), seed=3)
    back = ifft_mode3(fft_mode3(t))
    np.testing.assert_allclose(back, t, rtol=1e-12, atol=1e-12)


def test_ifft_rejects_asymmetric_spectrum():
    spectrum = np.zeros((2, 2, 4), dtype=complex)
    spectrum[0, 0, 1] = 1.0  # no conjugate partner in slice 3
    with pytest.raises(NonRealResult):
        ifft_mode3(spectrum)


@settings(max_examples=25, deadline=None)
@given(
    i1=st.integers(1, 5),
    i2=st.integers(1, 5),
    i3=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_conjugate_symmetry_and_parseval(i1, i2, i3, seed):
    t = random_tensor((i1, i2, i3), seed)
    spectrum = fft_mode3(t)
    for n in range(1, i3):
        np.testing.assert_allclose(
            spectrum[:, :, n], np.conj(spectrum[:, :, i3 - n]), atol=1e-12 * max(1, i3)
        )
    energy = np.sum(t * t)
    spectral = np.sum(np.abs(spectrum) ** 2) / i3
    assert abs(energy - spectral) <= 1e-10 * max(1.0, energy)


# ---------------------------------------------------------------------------
# slice-wise product and transpose


def test_t_product_identity():
    x = random_tensor((3, 4, 6), seed=0)
    np.testing.assert_allclose(t_product(x, identity_tensor(4, 6)), x, atol=1e-12)
    np.testing.assert_allclose(t_product(identity_tensor(3, 6), x), x, atol=1e-12)


def test_t_product_depth_one_is_matrix_product():
    a = random_tensor((2, 2, 1), seed=1)
    b = random_tensor((2, 2, 1), seed=2)
    got = t_product(a, b)
    np.testing.assert_allclose(got[:, :, 0], a[:, :, 0] @ b[:, :, 0], rtol=1e-12)


def test_t_product_matches_block_circulant_oracle():
    x = random_tensor((3, 4, 5), seed=5)
    y = random_tensor((4, 2, 5), seed=6)
    expected = block_circulant_product(x, y)
    np.testing.assert_allclose(t_product(x, y), expected, rtol=1e-10, atol=1e-10)


def test_t_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        t_product(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        t_product(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))


def test_t_product_associative():
    a = random_tensor((2, 3, 4), seed=7)
    b = random_tensor((3, 4, 4), seed=8)
    c = random_tensor((4, 2, 4), seed=9)
    left = t_product(t_product(a, b), c)
    right = t_product(a, t_product(b, c))
    np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)


def test_t_transpose_depth_one_is_matrix_transpose():
    x = random_tensor((3, 5, 1), seed=4)
    np.testing.assert_allclose(t_transpose(x)[:, :, 0], x[:, :, 0].T)


def test_t_transpose_slice_rule():
    x = random_tensor((2, 3, 6), seed=12)
    xt = t_transpose(x)
    np.testing.assert_array_equal(xt[:, :, 0], x[:, :, 0].T)
    for i3 in range(2, 7):  # 1-based slices 2..6 map to 8-i3
        np.testing.assert_array_equal(xt[:, :, i3 - 1], x[:, :, 6 + 2 - i3 - 1].T)


@settings(max_examples=25, deadline=None)
@given(
    i1=st.integers(1, 5),
    i2=st.integers(1, 5),
    i3=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_t_transpose_involution(i1, i2, i3, seed):
    x = random_tensor((i1, i2, i3), seed)
    np.testing.assert_array_equal(t_transpose(t_transpose(x)), x)


# ---------------------------------------------------------------------------
# slice-wise SVD


def test_t_svd_zero_tensor():
    u, s, v = t_svd(np.zeros((3, 4, 5)))
    assert np.all(s == 0)
    rec = t_product(t_product(u, s), t_transpose(v))
    np.testing.assert_allclose(rec, 0.0, atol=1e-12)


def test_t_svd_rejects_a_matrix():
    with pytest.raises(DimensionMismatch, match=r"expected a 3-d array, got shape \(3, 4\)"):
        t_svd(np.zeros((3, 4)))


def test_t_svd_depth_one_matches_matrix_svd():
    x = random_tensor((4, 3, 1), seed=21)
    u, s, v = t_svd(x)
    singular = np.linalg.svd(x[:, :, 0], compute_uv=False)
    np.testing.assert_allclose(np.diagonal(s[:, :, 0])[: len(singular)], singular, rtol=1e-12)
    rec = t_product(t_product(u, s), t_transpose(v))
    np.testing.assert_allclose(rec, x, rtol=1e-12, atol=1e-12)


def test_t_svd_reconstruction_and_spectrum_singular_values():
    x = random_tensor((5, 4, 6), seed=22)
    u, s, v = t_svd(x)
    rec = t_product(t_product(u, s), t_transpose(v))
    rel = np.linalg.norm(rec - x) / np.linalg.norm(x)
    assert rel <= 1e-10
    # slice-wise singular values in the spectrum must match a per-slice oracle
    spectrum = dft_mode3(x)
    s_hat = fft_mode3(s)
    for n in range(6):
        expected = np.linalg.svd(spectrum[:, :, n], compute_uv=False)
        got = np.sort(np.abs(np.diagonal(s_hat[:, :, n])))[::-1]
        np.testing.assert_allclose(got[: len(expected)], expected, rtol=1e-9, atol=1e-9)


def test_t_svd_factors_orthogonal_and_f_diagonal():
    x = random_tensor((4, 5, 7), seed=23)
    u, s, v = t_svd(x)
    for factor, side in ((u, 4), (v, 5)):
        gram = t_product(factor, t_transpose(factor))
        np.testing.assert_allclose(gram, identity_tensor(side, 7), atol=1e-10)
    for n in range(7):
        off = s[:, :, n].copy()
        np.fill_diagonal(off, 0.0)
        np.testing.assert_allclose(off, 0.0, atol=1e-10)

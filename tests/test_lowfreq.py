import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtc.errors import InvalidLowFrequencyParameter
from mvtc.tensor_ops import (
    DFT_BLOCK,
    DFT_MAX_KEEP,
    _truncate_dft,
    _truncate_fft,
    fft_mode3,
    lowfreq_truncate,
)

from oracles import kept_slice_indices, lowfreq_truncate_bruteforce


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def test_keep_one_reconstructs_the_mean_slice():
    b = random_tensor((3, 2, 7), seed=0)
    out = lowfreq_truncate(b, 1)
    mean_slice = b.mean(axis=2)
    for k in range(7):
        np.testing.assert_allclose(out[:, :, k], mean_slice, atol=1e-12)


def test_full_band_is_identity_odd_depth():
    b = random_tensor((2, 2, 9), seed=1)
    np.testing.assert_allclose(lowfreq_truncate(b, 5), b, atol=1e-12)


def test_full_band_is_identity_even_depth():
    # keep == N/2 + 1 covers the self-paired Nyquist slice
    b = random_tensor((2, 3, 8), seed=2)
    np.testing.assert_allclose(lowfreq_truncate(b, 5), b, atol=1e-12)


def test_matches_bruteforce_truncation_oracle():
    b = random_tensor((3, 2, 8), seed=3)
    expected = lowfreq_truncate_bruteforce(b, 3)  # zeroes 0-based slices {3, 4, 5}
    np.testing.assert_allclose(lowfreq_truncate(b, 3), expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("keep", [0, -1, 6, 100])
def test_invalid_band_rejected(keep):
    with pytest.raises(InvalidLowFrequencyParameter):
        lowfreq_truncate(np.zeros((2, 2, 9)), keep)


@settings(max_examples=30, deadline=None)
@given(
    i1=st.integers(1, 4),
    i2=st.integers(1, 4),
    depth=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    keep_frac=st.floats(0.0, 1.0),
)
def test_projection_laws(i1, i2, depth, seed, keep_frac):
    b = random_tensor((i1, i2, depth), seed)
    keep = 1 + round(keep_frac * (depth // 2))
    keep = min(keep, depth // 2 + 1)
    once = lowfreq_truncate(b, keep)
    # idempotence
    np.testing.assert_allclose(lowfreq_truncate(once, keep), once, atol=1e-12)
    # norm never grows
    assert np.linalg.norm(once) <= np.linalg.norm(b) + 1e-12
    # linearity
    c = random_tensor((i1, i2, depth), seed + 1)
    combined = lowfreq_truncate(2.5 * b - 0.75 * c, keep)
    np.testing.assert_allclose(
        combined, 2.5 * once - 0.75 * lowfreq_truncate(c, keep), atol=1e-10
    )


def test_projection_is_closest_feasible_point():
    rng = np.random.default_rng(9)
    for _ in range(20):
        b = rng.standard_normal((3, 2, 10))
        keep = int(rng.integers(1, 6))
        projected = lowfreq_truncate(b, keep)
        gap = np.linalg.norm(b - projected)
        for _ in range(5):
            member = lowfreq_truncate(rng.standard_normal((3, 2, 10)), keep)
            assert gap <= np.linalg.norm(b - member) + 1e-10


def test_result_spectrum_supported_on_kept_slices():
    b = random_tensor((4, 3, 11), seed=5)
    keep = 3
    spectrum = fft_mode3(lowfreq_truncate(b, keep))
    kept = set(kept_slice_indices(11, keep).tolist())
    for k in range(11):
        magnitude = np.abs(spectrum[:, :, k]).max()
        if k in kept:
            continue
        assert magnitude <= 1e-10


def test_kept_slice_indices_layout():
    np.testing.assert_array_equal(kept_slice_indices(8, 3), [0, 1, 2, 6, 7])
    np.testing.assert_array_equal(kept_slice_indices(8, 5), np.arange(8))
    np.testing.assert_array_equal(kept_slice_indices(9, 5), np.arange(9))
    np.testing.assert_array_equal(kept_slice_indices(9, 1), [0])


def zeroed_spectrum_truncation(b, keep):
    spectrum = np.fft.rfft(b, axis=2)
    spectrum[:, :, keep:] = 0.0
    return np.fft.irfft(spectrum, n=b.shape[2], axis=2)


@pytest.mark.parametrize("depth", [120, 121])
@pytest.mark.parametrize("keep", [1, 2, 17, 60, 61])
def test_inverting_only_the_kept_bins_matches_zeroing_the_rest(depth, keep):
    b = random_tensor((3, 2, depth), seed=depth + keep)
    expected = zeroed_spectrum_truncation(b, keep)
    np.testing.assert_array_equal(_truncate_fft(b, keep), expected)


@pytest.mark.parametrize(
    "depth, keep",
    [
        (120, 17),                 # even N
        (121, 17),                 # odd N
        (2 * DFT_BLOCK + 5, 16),   # prime N, not a multiple of the block
        (2 * DFT_BLOCK + 5, 1),    # the DC bin alone
        (3 * DFT_BLOCK, 9),        # whole blocks only
        (8, 5),                    # the Nyquist bin, its own partner
        (2 * (DFT_MAX_KEEP - 1), DFT_MAX_KEEP),  # the Nyquist bin at the threshold
        (5000, DFT_MAX_KEEP),      # the largest keep the DFT route takes
    ],
)
def test_dft_route_matches_zeroing_the_rest(depth, keep):
    b = random_tensor((3, 2, depth), seed=depth + keep)
    expected = zeroed_spectrum_truncation(b, keep)
    scale = np.abs(expected).max()
    np.testing.assert_allclose(_truncate_dft(b, keep), expected, rtol=1e-12, atol=1e-12 * scale)


def test_route_follows_the_kept_count():
    b = random_tensor((2, 2, 600), seed=11)
    for keep, route in ((DFT_MAX_KEEP, _truncate_dft), (DFT_MAX_KEEP + 1, _truncate_fft)):
        np.testing.assert_array_equal(lowfreq_truncate(b, keep), route(b, keep))


def test_truncation_holds_little_beyond_its_input_and_output():
    # only the kept bins of the spectrum outlive the forward transform
    b = random_tensor((4, 3, 20_000), seed=9)
    tracemalloc.start()
    try:
        out = lowfreq_truncate(b, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - out.nbytes) < 0.25 * b.nbytes, f"{peak / b.nbytes:.2f} input sizes"

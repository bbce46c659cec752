"""Dense third-order tensor algebra in the mode-3 Fourier domain.

Tensors are real numpy arrays of shape (I1, I2, I3); the "frontal slices"
are the I1 x I2 matrices ``t[:, :, i]``.  Products, transposes, and the
slice-wise SVD all operate on the mode-3 spectrum (an unnormalized forward
DFT along the last axis, 1/I3 on the inverse).  ``lowfreq_truncate`` keeps
the lowest spectrum slices and reconstructs, which is an orthogonal
projection onto that band.  It has two routes, chosen by the kept count
alone:

* up to ``DFT_MAX_KEEP`` kept slices, a real DFT over only the kept
  frequencies, computed in column blocks of ``DFT_BLOCK`` against one shared
  cos/sin basis: two GEMMs per block, O(I1 I2 I3 keep) work whatever the
  prime factors of I3, and no spectrum beyond I1 x I2 x keep;
* above it, a real-input FFT (``rfft``/``irfft``, which hold only the
  non-negative half of a conjugate-symmetric spectrum), O(I1 I2 I3 log I3).

The DFT's work grows with ``keep`` and the FFT's does not, so the
threshold sits below the kept count at which the two cost the same on a
length of few small prime factors; on a prime length the FFT is several
times slower still.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidLowFrequencyParameter, NonRealResult

# Imaginary residue above this fraction of the largest magnitude means the
# spectrum handed to the inverse transform was not conjugate-symmetric.
_IMAG_TOL = 1e-8

# ``lowfreq_truncate`` takes the blocked DFT up to this many kept slices and
# the FFT above it.  On one BLAS thread at 30 tubes of 120,000 samples the
# DFT took 43 ms per call at keep = 32 against the FFT's 78 ms, and about
# matched it between keep = 64 and 96; at 120 tubes of 10,000 samples the
# two matched near keep = 48.  Below a few thousand samples the FFT is the
# faster one at any keep, but a call there costs a few milliseconds at most.
DFT_MAX_KEEP = 32

# Columns per block of the DFT route: its basis is DFT_BLOCK x 2*keep values
# (256 kB at keep = 16), shared by every block.
DFT_BLOCK = 1024


def fft_mode3(t: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of every mode-3 tube; returns a complex array."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {t.shape}")
    return np.fft.fft(t, axis=2)


def ifft_mode3(s: np.ndarray) -> np.ndarray:
    """Inverse DFT (1/I3 per tube) of a conjugate-symmetric spectrum.

    The rounding-level imaginary residue of a symmetric spectrum is
    discarded; a residue above ``_IMAG_TOL`` times the largest magnitude
    raises :class:`NonRealResult` instead of silently returning garbage.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {s.shape}")
    out = np.fft.ifft(s, axis=2)
    scale = np.abs(out).max() if out.size else 0.0
    imag = np.abs(out.imag).max() if out.size else 0.0
    if imag > _IMAG_TOL * scale:
        raise NonRealResult(
            f"imaginary residue {imag:.3e} exceeds {_IMAG_TOL:.0e} * {scale:.3e}; "
            "spectrum is not conjugate-symmetric along mode 3"
        )
    return np.ascontiguousarray(out.real)


def t_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slice-wise product in the spectrum: (I1,I2,D) * (I2,J,D) -> (I1,J,D)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or y.ndim != 3:
        raise DimensionMismatch("t_product needs two 3-d arrays")
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise DimensionMismatch(f"cannot multiply {x.shape} with {y.shape}")
    zh = np.einsum("ijn,jkn->ikn", fft_mode3(x), fft_mode3(y))
    return ifft_mode3(zh)


def t_transpose(x: np.ndarray) -> np.ndarray:
    """Transpose slice 1 in place and slice i against slice I3+2-i; involutive."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {x.shape}")
    reordered = np.concatenate([x[:, :, :1], x[:, :, :0:-1]], axis=2)
    return np.ascontiguousarray(reordered.transpose(1, 0, 2))


def t_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice-wise SVD in the spectrum: x == u * s * t_transpose(v).

    Only the first ``floor(I3/2) + 1`` spectrum slices are factorized; the
    remaining slices are their complex conjugates, which keeps the three
    factors exactly conjugate-symmetric (hence real after inversion) and
    halves the work.  ``u`` (I1,I1,I3) and ``v`` (I2,I2,I3) are orthogonal
    under the slice-wise product, ``s`` (I1,I2,I3) has diagonal slices.
    """
    xh = fft_mode3(x)
    i1, i2, i3 = xh.shape
    uh = np.empty((i1, i1, i3), dtype=complex)
    sh = np.zeros((i1, i2, i3), dtype=complex)
    vh = np.empty((i2, i2, i3), dtype=complex)
    r = min(i1, i2)
    half = i3 // 2 + 1
    for n in range(half):
        u, sig, vt = np.linalg.svd(xh[:, :, n], full_matrices=True)
        uh[:, :, n] = u
        sh[np.arange(r), np.arange(r), n] = sig
        vh[:, :, n] = vt.conj().T
    for n in range(half, i3):
        uh[:, :, n] = uh[:, :, i3 - n].conj()
        sh[:, :, n] = sh[:, :, i3 - n].conj()
        vh[:, :, n] = vh[:, :, i3 - n].conj()
    return ifft_mode3(uh), ifft_mode3(sh), ifft_mode3(vh)


def check_low_freq(depth: int, keep: int) -> None:
    """Raise :class:`InvalidLowFrequencyParameter` unless 1 <= keep <= depth//2 + 1."""
    if not 1 <= keep <= depth // 2 + 1:
        raise InvalidLowFrequencyParameter(
            f"kept low-frequency slices {keep} outside 1..{depth // 2 + 1} for depth {depth}"
        )


def lowfreq_truncate(b: np.ndarray, keep: int) -> np.ndarray:
    """Orthogonal projection onto the lowest ``keep`` mode-3 frequencies.

    Keeps the DC slice plus spectrum slices 2..keep together with their
    conjugate partners (slices N+2-keep..N, 1-based), drops everything
    else, and inverts.  Only slices 1..keep are carried to the inverse; the
    partners follow by symmetry and the result is real by construction.  Up to
    ``DFT_MAX_KEEP`` kept slices the blocked DFT computes them, above it the
    real FFT (see the module docstring); the two routes agree to rounding.

    Idempotent, linear, and Frobenius-norm non-increasing; among all
    tensors supported on the kept slices it is the closest one to ``b``.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {b.shape}")
    check_low_freq(b.shape[2], keep)
    if keep <= DFT_MAX_KEEP:
        return _truncate_dft(b, keep)
    return _truncate_fft(b, keep)


def _truncate_fft(b: np.ndarray, keep: int) -> np.ndarray:
    """The FFT route: ``rfft``, the first ``keep`` bins, ``irfft``."""
    # irfft zero-pads the kept bins to the full half-spectrum, which gives
    # the bits of zeroing bins keep: in place; the full spectrum is released
    # before the inverse allocates its output
    n = b.shape[2]
    return np.fft.irfft(np.fft.rfft(b, axis=2)[:, :, :keep].copy(), n=n, axis=2)


def _truncate_dft(b: np.ndarray, keep: int) -> np.ndarray:
    """The DFT route: kept bins f < keep of every tube, block by block.

    A block of columns t0..t0+w-1 against the basis [cos | sin](2 pi f j / N),
    j < w, gives its spectrum relative to t0; the rotation e^{-2 pi i f t0 / N}
    (angles reduced mod N in integers) moves it to sample 0, and the blocks
    add up to the kept bins.  The inverse runs the same basis backwards, one
    block straight into its slice of the output, with weight 1 on the DC bin
    and on the self-partnered Nyquist bin (keep - 1 == N / 2), 2 on the rest.
    """
    n = b.shape[2]
    x = b.reshape(-1, n)
    width = min(n, DFT_BLOCK)
    starts = range(0, n, width)
    freqs = np.arange(keep)
    angles = (2 * np.pi / n) * (np.outer(np.arange(width), freqs) % n)
    basis = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    rotation = np.exp((-2j * np.pi / n) * (np.outer(starts, freqs) % n))
    products = np.empty((len(starts), x.shape[0], 2 * keep))
    for i, t0 in enumerate(starts):
        block = x[:, t0:t0 + width]
        np.matmul(block, basis[:block.shape[1]], out=products[i])
    spectrum = np.einsum(
        "brf,bf->rf", products[:, :, :keep] - 1j * products[:, :, keep:], rotation
    )
    weights = np.full(keep, 2.0 / n)
    weights[0] = 1.0 / n
    if 2 * (keep - 1) == n:
        weights[-1] = 1.0 / n
    spectrum *= weights
    out = np.empty(b.shape)
    flat = out.reshape(-1, n)
    for i, t0 in enumerate(starts):
        local = spectrum * rotation[i].conj()
        cols = flat[:, t0:t0 + width]
        np.matmul(
            np.concatenate([local.real, -local.imag], axis=1),
            basis[:cols.shape[1]].T,
            out=cols,
        )
    return out

"""Dense third-order tensor algebra in the mode-3 Fourier domain.

Tensors are real numpy arrays of shape (I1, I2, I3); the "frontal slices"
are the I1 x I2 matrices ``t[:, :, i]``.  Products, transposes, and the
slice-wise SVD all operate on the mode-3 spectrum (an unnormalized forward
DFT along the last axis, 1/I3 on the inverse).  ``lowfreq_truncate`` keeps
the lowest spectrum slices through a real-input FFT (``rfft``/``irfft``,
which hold only the non-negative half of a conjugate-symmetric spectrum)
and reconstructs, which is an orthogonal projection onto that band.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidLowFrequencyParameter, NonRealResult

# Imaginary residue above this fraction of the largest magnitude means the
# spectrum handed to the inverse transform was not conjugate-symmetric.
_IMAG_TOL = 1e-8


def frontal_slice(t: np.ndarray, i3: int) -> np.ndarray:
    """Frontal slice ``t[:, :, i3 - 1]`` using the 1-based depth convention."""
    t = np.asarray(t)
    if not 1 <= i3 <= t.shape[2]:
        raise DimensionMismatch(f"slice index {i3} outside 1..{t.shape[2]}")
    return t[:, :, i3 - 1]


def identity_tensor(n: int, depth: int) -> np.ndarray:
    """n x n x depth tensor acting as the unit of the slice-wise product."""
    out = np.zeros((n, n, depth))
    out[:, :, 0] = np.eye(n)
    return out


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
    zh = np.einsum("ijn,jkn->ikn", np.fft.fft(x, axis=2), np.fft.fft(y, axis=2))
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
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {x.shape}")
    i1, i2, i3 = x.shape
    xh = np.fft.fft(x, axis=2)
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
    conjugate partners (slices N+2-keep..N, 1-based), zeroes everything
    else, and inverts.  The real-input transform stores only slices
    1..floor(N/2)+1, so the partners follow by symmetry and the result is
    real by construction.

    Idempotent, linear, and Frobenius-norm non-increasing; among all
    tensors supported on the kept slices it is the closest one to ``b``.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {b.shape}")
    n = b.shape[2]
    check_low_freq(n, keep)
    bh = np.fft.rfft(b, axis=2)
    bh[:, :, keep:] = 0.0
    return np.fft.irfft(bh, n=n, axis=2)


def kept_slice_indices(depth: int, keep: int) -> np.ndarray:
    """0-based spectrum slice indices retained by ``lowfreq_truncate``."""
    check_low_freq(depth, keep)
    low = np.arange(keep)
    high = depth - np.arange(1, keep)
    return np.unique(np.concatenate([low, high]))

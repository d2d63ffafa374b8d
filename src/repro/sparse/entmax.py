"""α-entmax, sparsemax and softmax with exact forward and backward passes.

Definitions follow Peters et al. (2019) and the SAGDFN paper (Eq. 7–8):

.. math::

    \\alpha\\text{-entmax}(z) = [(\\alpha - 1) z - \\tau \\mathbf{1}]_+^{1/(\\alpha-1)}

where the threshold :math:`\\tau(z)` is the unique value making the output sum
to one.  α = 1 recovers softmax, α = 2 recovers sparsemax; intermediate
values interpolate, producing sparse probability vectors for α > 1.

Two interfaces are offered:

* ``*_np`` functions operating on plain NumPy arrays (used inside tests and
  wherever no gradient is needed);
* :func:`alpha_entmax`, :func:`sparsemax`, :func:`softmax` operating on
  :class:`repro.tensor.Tensor` with autodiff support.  The backward pass uses
  the analytic Jacobian-vector product
  ``dz = s * (dp - (s . dp) / (s . 1))`` with ``s_i = p_i^{2-α}`` on the
  support, which holds for every α ≥ 1; at α = 1.5 it is ``s = sqrt(p)``, exact
  because ``p`` is 0 off the support.  Both passes run fastest along a
  contiguous last axis.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, get_default_dtype

_EPS = 1e-12


def _as_float(z: np.ndarray) -> np.ndarray:
    """Coerce to a floating array, preserving float32/float64 inputs.

    Non-floating inputs (ints, lists) follow the engine's precision policy;
    floating inputs keep their dtype so a float32 model never silently pays
    for float64 intermediates inside the normalisers.
    """
    z = np.asarray(z)
    if not np.issubdtype(z.dtype, np.floating):
        z = z.astype(get_default_dtype())
    return z


# --------------------------------------------------------------------------- #
# Plain NumPy forward implementations
# --------------------------------------------------------------------------- #
def softmax_np(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a plain array."""
    z = _as_float(z)
    shifted = z - z.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def sparsemax_np(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact sparsemax (Martins & Astudillo, 2016) via the sort-based solver."""
    z = _as_float(z)
    z = np.moveaxis(z, axis, -1)
    shape = z.shape
    flat = z.reshape(-1, shape[-1])
    sorted_z = -np.sort(-flat, axis=-1)
    cumsum = np.cumsum(sorted_z, axis=-1)
    k_range = np.arange(1, shape[-1] + 1, dtype=z.dtype)
    support = sorted_z * k_range > (cumsum - 1.0)
    k = support.sum(axis=-1)
    tau = (np.take_along_axis(cumsum, k[:, None] - 1, axis=-1).squeeze(-1) - 1.0) / k.astype(z.dtype)
    out = np.maximum(flat - tau[:, None], 0.0)
    return np.moveaxis(out.reshape(shape), -1, axis)


def entmax15_np(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact 1.5-entmax via the sort-based solver of Peters et al. (2019),
    run in place on a ``(rows, k)`` copy of ``z / 2`` and three row buffers."""
    z = np.moveaxis(_as_float(z), axis, -1)
    shape = z.shape
    flat = z.reshape(-1, shape[-1]) / 2.0
    sorted_z = np.negative(flat)
    sorted_z.sort(axis=-1)
    np.negative(sorted_z, out=sorted_z)  # descending
    top = sorted_z[:, :1].copy()  # the row max: shifting keeps the sort order
    flat -= top
    sorted_z -= top
    k_range = np.arange(1, shape[-1] + 1, dtype=flat.dtype)
    tau = np.cumsum(sorted_z, axis=-1)
    tau /= k_range  # running mean
    delta = np.square(sorted_z)
    np.cumsum(delta, axis=-1, out=delta)
    delta /= k_range  # running mean of squares
    delta -= np.square(tau)
    delta *= k_range
    np.subtract(1.0, delta, out=delta)
    delta /= k_range
    np.maximum(delta, 0.0, out=delta)
    tau -= np.sqrt(delta, out=delta)
    k = np.count_nonzero(tau <= sorted_z, axis=-1)
    flat -= np.take_along_axis(tau, k[:, None] - 1, axis=-1)
    np.maximum(flat, 0.0, out=flat)
    np.square(flat, out=flat)
    flat /= np.maximum(flat.sum(axis=-1, keepdims=True), _EPS)
    return np.moveaxis(flat.reshape(shape), -1, axis)


def _entmax_bisect_np(z: np.ndarray, alpha: float, n_iter: int = 60) -> np.ndarray:
    """General α-entmax (α > 1) along the last axis via bisection on τ."""
    z = _as_float(z)
    scaled = (alpha - 1.0) * z
    max_val = scaled.max(axis=-1, keepdims=True)
    # τ lies in [max - 1, max): at τ = max - 1 the sum is ≥ 1, at τ = max it is 0.
    tau_lo = max_val - 1.0
    tau_hi = max_val
    exponent = 1.0 / (alpha - 1.0)
    for _ in range(n_iter):
        tau = 0.5 * (tau_lo + tau_hi)
        p = np.maximum(scaled - tau, 0.0) ** exponent
        mass = p.sum(axis=-1, keepdims=True)
        too_heavy = mass >= 1.0
        tau_lo = np.where(too_heavy, tau, tau_lo)
        tau_hi = np.where(too_heavy, tau_hi, tau)
    tau = 0.5 * (tau_lo + tau_hi)
    p = np.maximum(scaled - tau, 0.0) ** exponent
    p = p / np.maximum(p.sum(axis=-1, keepdims=True), _EPS)
    return p


def alpha_entmax_np(z: np.ndarray, alpha: float = 1.5, axis: int = -1) -> np.ndarray:
    """General α-entmax on a plain array (α ≥ 1).

    α = 1 dispatches to softmax, α = 2 to the exact sparsemax solver,
    α = 1.5 to the exact entmax-1.5 solver, anything else to bisection.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1.0, got {alpha}")
    if abs(alpha - 1.0) < 1e-8:
        return softmax_np(z, axis=axis)
    if abs(alpha - 2.0) < 1e-8:
        return sparsemax_np(z, axis=axis)
    if abs(alpha - 1.5) < 1e-8:
        return entmax15_np(z, axis=axis)
    z = np.moveaxis(_as_float(z), axis, -1)
    out = _entmax_bisect_np(z, alpha)
    return np.moveaxis(out, -1, axis)


def entmax_support_size(p: np.ndarray, axis: int = -1, tol: float = 1e-9) -> np.ndarray:
    """Number of strictly positive entries of a probability array along ``axis``."""
    return (np.asarray(p) > tol).sum(axis=axis)


# --------------------------------------------------------------------------- #
# Autodiff-aware wrappers
# --------------------------------------------------------------------------- #
def _entmax_jvp(p: np.ndarray, grad: np.ndarray, alpha: float, axis: int) -> np.ndarray:
    """Jacobian-vector product of α-entmax evaluated at output ``p``."""
    if abs(alpha - 1.0) < 1e-8:
        s = p
    elif abs(alpha - 1.5) < 1e-8:
        s = np.sqrt(p)  # exact: p is 0 off the support
    else:
        s = np.where(p > 0.0, np.power(np.maximum(p, _EPS), 2.0 - alpha), 0.0)
    out = grad * s
    correction = out.sum(axis=axis, keepdims=True)
    correction /= np.maximum(s.sum(axis=axis, keepdims=True), _EPS)
    np.subtract(grad, correction, out=out)
    out *= s
    return out


def alpha_entmax(z: Tensor, alpha: float = 1.5, axis: int = -1) -> Tensor:
    """Differentiable α-entmax over a :class:`~repro.tensor.Tensor`."""
    if not isinstance(z, Tensor):
        z = Tensor(z)
    p = alpha_entmax_np(z.data, alpha=alpha, axis=axis)

    def backward(grad):
        return (_entmax_jvp(p, grad, alpha, axis),)

    return Tensor._make(p, (z,), backward)


def softmax(z: Tensor, axis: int = -1) -> Tensor:
    """Differentiable softmax (α-entmax with α = 1)."""
    return alpha_entmax(z, alpha=1.0, axis=axis)


def sparsemax(z: Tensor, axis: int = -1) -> Tensor:
    """Differentiable sparsemax (α-entmax with α = 2)."""
    return alpha_entmax(z, alpha=2.0, axis=axis)

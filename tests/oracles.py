"""Independent slow-path oracles used to pin expected values.

Everything here deliberately avoids the FFT/eigenbasis machinery of the
package: direct Riemann sums, explicit loops, and dense linear algebra
only, so tests compare two genuinely different computational routes.
The package stores symbols only; the dense n x n circulants they stand
for (:func:`model_views`, :func:`filter_views`) and the direct plane-wave
sums of the amplitude Grams (:func:`amplitude_grams`) live here, as the
reference for the chirp-z oracles of ``qnoise.verification``.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def slow_kernel(values, grid, eps, lag):
    """Direct quadrature sum step * sum_k values_k exp(2 pi i nu_k eps j)."""
    total = 0.0 + 0.0j
    for k in range(grid.n_points):
        total += values[k] * np.exp(2j * np.pi * grid.points[k] * eps * lag)
    return grid.step * total


def slow_kernel_all(values, grid, eps):
    half = (grid.n_points - 1) // 2
    return np.array([slow_kernel(values, grid, eps, j) for j in range(-half, half + 1)])


def slow_convolve(a, b, eps):
    """Direct eps-weighted cyclic convolution on centered lags."""
    n = len(a)
    half = (n - 1) // 2
    out = np.zeros(n, dtype=complex)
    for j in range(-half, half + 1):
        total = 0.0 + 0.0j
        for r in range(-half, half + 1):
            d = (j - r + half) % n - half
            total += a[r + half] * b[d + half]
        out[j + half] = eps * total
    return out


def richardson_limit(func, h0=1e-2, levels=4):
    """Extrapolate func(h) -> h = 0 assuming a power series in h."""
    rows = [[func(h0 / 2**i) for i in range(levels)]]
    for level in range(1, levels):
        prev = rows[-1]
        factor = 2.0**level
        rows.append(
            [(factor * prev[i + 1] - prev[i]) / (factor - 1.0) for i in range(len(prev) - 1)]
        )
    return rows[-1][0]


def _turns(rows, lags, n):
    """rows[:, None] * lags mod n, reduced to [-(n-1)/2, (n-1)/2] in integers.

    Under the duality nu_k eps j = (k - (n-1)/2) j / n, so the phase
    2 pi turns / n is exact, and a row of the opposite sign gets the
    opposite turns: its plane wave is the conjugate bit for bit.
    """
    half = (n - 1) // 2
    return (np.multiply.outer(rows, lags) + half) % n - half


def plane_wave_matrix(grid, eps):
    """u_j(nu_k) = sqrt(eps) exp(-2 pi i nu_k eps j) as an (n, n) array."""
    n = grid.n_points
    half = (n - 1) // 2
    lags = np.arange(-half, half + 1)
    return np.sqrt(eps) * np.exp(-2j * np.pi / n * _turns(lags, lags, n))


def amplitude_roots(model):
    """Roots of the noise and reverse amplitudes: sqrt(kappa) and its star involution."""
    root = np.sqrt(model.eigenvalues)
    return root, np.conj(root[::-1])


#: Rows nu_k >= 0 of the plane-wave sums of :func:`amplitude_grams` taken at a time.
PLANE_WAVE_ROWS = 256


def amplitude_grams(model):
    """First columns of N†N and N†R by direct plane-wave sums, a block of rows at a time.

    Entry d of each column is eps * sum_k w_k exp(2 pi i nu_k eps d), with
    the weights w = |a|^2 and conj(a) * b of the roots a, b of
    :func:`amplitude_roots`.  As nu_-k = -nu_k, each pair k, -k folds onto
    nu_k >= 0 as (w_k + w_-k) cos + i (w_k - w_-k) sin, nu = 0 counted once.
    """
    n = model.n_points
    mid = (n - 1) // 2
    a, b = amplitude_roots(model)
    weights = model.eps * np.array([np.conj(a) * a, np.conj(a) * b])
    plus = weights[:, mid:] + weights[:, mid::-1]
    minus = weights[:, mid:] - weights[:, mid::-1]
    plus[:, 0] = weights[:, mid]  # nu = 0 is its own partner
    lags = np.arange(n)
    sums = 0.0
    for start in range(0, mid + 1, PLANE_WAVE_ROWS):
        rows = slice(start, min(start + PLANE_WAVE_ROWS, mid + 1))
        theta = 2 * np.pi / n * _turns(np.arange(rows.start, rows.stop), lags, n)
        sums = sums + plus[:, rows] @ np.cos(theta) + 1j * (minus[:, rows] @ np.sin(theta))
    return sums[0], sums[1]


def amplitude_matrices(model, grid):
    """Dense spectral amplitudes N = sqrt(kappa)[:, None] * u and their star
    involution R = conj(N[::-1]), each an (n, n) array."""
    noise = np.sqrt(model.eigenvalues)[:, None] * plane_wave_matrix(grid, model.eps)
    return noise, np.conj(noise[::-1])


def column_circulant(column):
    """Read-only circulant with first column c, as a view over b = (c[1:], c):
    entry (i, j) is b[n - 1 + i - j] = c[(i - j) mod n], over 2n - 1 entries."""
    n = column.size
    base = np.concatenate((column[1:], column))
    stride = base.strides[0]
    return as_strided(base[n - 1:], (n, n), (stride, -stride), writeable=False)


def circulant(symbol):
    """Dense circulant of a per-frequency symbol on the centered grid, with
    first column ifft(ifftshift(symbol)), as a :func:`column_circulant` view."""
    return column_circulant(np.fft.ifft(np.fft.ifftshift(symbol)))


def model_views(model):
    """The dense circulants a model stands for: K, K_rev, X, X_rev and G,
    with K_rev and X_rev over the conjugated first columns of K and X."""
    k, x = circulant(model.eigenvalues), circulant(np.sqrt(model.eigenvalues))
    return {
        "K": k,
        "K_rev": column_circulant(np.conj(k[:, 0])),
        "X": x,
        "X_rev": column_circulant(np.conj(x[:, 0])),
        "G": circulant(model.gamma),
    }


def filter_views(filt):
    """The dense modular matrix L and its root L_half of a modular filter."""
    return {"L": circulant(filt.symbol), "L_half": circulant(np.sqrt(filt.symbol))}


def gather_circulant(column):
    """Circulant with this first column, filled entry by entry as an n x n array."""
    column = np.asarray(column)
    idx = np.arange(column.size)
    return column[np.subtract.outer(idx, idx) % column.size]


def dense_symbol_matrix(symbol, grid, eps):
    """Dense assembly sum_k symbol_k conj(u_i) u_j step, by explicit loops."""
    waves = plane_wave_matrix(grid, eps)
    n = grid.n_points
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out += symbol[k] * grid.step * np.outer(np.conj(waves[k]), waves[k])
    return out


def riemann_moment(density, grid, mask1, mask2):
    """step * sum of a density over the intersection of two cell sets."""
    total = 0.0
    for k in range(grid.n_points):
        if mask1[k] and mask2[k]:
            total += density[k]
    return grid.step * total


def mixed_kappa(grid):
    """Reference mixed spectrum: a vacuum band at the most negative
    frequencies plus a tilted (non-flip-symmetric) positive part."""
    nu_max = grid.nu_max
    return np.where(grid.points < -nu_max / 2, 0.0, 1.0 + grid.points / (2 * nu_max))


def gram_quadratic_form(model, zeta, xi):
    """<y_dag y> of y = sum zeta_j x_j + sum xi_j x_rev_j via dense blocks."""
    views = model_views(model)
    value = (
        zeta.conj() @ (views["K"] @ zeta)
        + zeta.conj() @ (views["G"] @ xi)
        + xi.conj() @ (views["G"] @ zeta)
        + xi.conj() @ (views["K_rev"] @ xi)
    )
    return float(value.real)


def direct_dft(weights, sign=-1):
    """sum_k w_k exp(sign * 2 pi i k d / n) for d = 0 .. n-1 along the last
    axis, by the n x n matrix of plane waves; k d is reduced mod n in
    integers, so each phase is below 2 pi."""
    n = np.shape(weights)[-1]
    k = np.arange(n)
    return weights @ np.exp(sign * 2j * np.pi / n * (np.outer(k, k) % n))


def _maxabs(values):
    values = np.asarray(values)
    return float(np.max(np.abs(values))) if values.size else 0.0


def circulant_defect(matrix):
    """Largest violation of circulant form, read from all n^2 entries."""
    matrix = np.asarray(matrix)
    return max(
        _maxabs(matrix[1:, 1:] - matrix[:-1, :-1]),
        _maxabs(matrix[0, 1:] - matrix[-1, :-1]),
    )


def dense_elementwise_residuals(pipe):
    """The residuals of the verify checks that read a circulant entry by entry
    (conjugation, cross_cov_imag, cross_cov_symmetric), each computed from
    every entry of the dense view."""
    model = pipe.model
    norm = max(float(model.eigenvalues.max(initial=0.0)), 1e-150)
    views = model_views(model)
    return {
        "stationary/conjugation": _maxabs(views["X_rev"] - np.conj(views["X"])),
        "stationary/cross_cov_imag": _maxabs(views["G"].imag) / norm,
        "stationary/cross_cov_symmetric": _maxabs(views["G"] - views["G"].T) / norm,
    }


def dense_product_residuals(pipe):
    """The residuals of the verify checks that multiply circulants, each from
    matrix-vector products with the dense views."""
    model = pipe.model
    n = model.n_points
    norm = max(float(model.eigenvalues.max(initial=0.0)), 1e-150)
    v = model_views(model)
    k, k_rev, x, x_rev, g = (v[name][:, 0] for name in ("K", "K_rev", "X", "X_rev", "G"))
    out = {
        "stationary/gram_noise": _maxabs(v["X"].conj().T @ x - k) / norm,
        "stationary/gram_reverse": _maxabs(v["X_rev"].conj().T @ x_rev - k_rev) / norm,
        "stationary/gram_cross": _maxabs(v["X"].conj().T @ x_rev - g) / norm,
        "stationary/root_squares": _maxabs(v["X"] @ x - k) / norm,
        "stationary/geometric_mean":
            np.sqrt(n) * np.linalg.norm(v["G"] @ (g / norm) - v["K"] @ (k_rev / norm)) / norm,
        "stationary/covariances_commute":
            np.sqrt(n) * np.linalg.norm(v["K"] @ (k_rev / norm) - v["K_rev"] @ (k / norm)) / norm,
    }
    filt = pipe.filt
    if filt is not None:
        views = filter_views(filt)
        l_col = views["L"][:, 0]
        l_norm = max(_maxabs(views["L"]), 1.0)
        inverse = np.conj(views["L"] @ np.conj(l_col))
        inverse[0] -= 1.0
        out["modular/conjugate_inverse"] = _maxabs(inverse) / l_norm**2
        out["modular/root_squares"] = _maxabs(views["L_half"] @ views["L_half"][:, 0] - l_col) / l_norm
    return out


def dense_amplitude_residuals(pipe):
    """The amplitude checks of verify from the dense (n, n) amplitudes N and
    R: the first columns of step * N†N and step * N†R against those of K
    and G (with their circulant defects, read from every entry), and
    R - conj(N[::-1])."""
    model = pipe.model
    norm = max(float(model.eigenvalues.max(initial=0.0)), 1e-150)
    noise, reverse = amplitude_matrices(model, pipe.pair.grid)
    step = pipe.pair.grid.step
    gram = step * noise.conj().T @ noise[:, 0]
    cross = step * noise.conj().T @ reverse[:, 0]
    views = model_views(model)
    k, g = views["K"], views["G"]
    return {
        "stationary/star_involution": _maxabs(reverse - np.conj(noise[::-1, :])),
        "stationary/amplitude_gram": max(_maxabs(gram - k[:, 0]), circulant_defect(k)) / norm,
        "stationary/amplitude_cross": max(_maxabs(cross - g[:, 0]), circulant_defect(g)) / norm,
    }


# --- multi-pass reference constructors --------------------------------------
# The package builds each array of a chain record in one ufunc pass.  These
# are the boolean gathers, scatters and spliced records that construction
# replaced, kept as the reference it must equal byte for byte.

def gathered_pair(kappa, snap):
    """The arrays of a density pair from nonnegative finite values, with lambda
    gathered on theta and scattered into NaN."""
    kappa = np.asarray(kappa, dtype=float)
    peak = float(kappa.max(initial=0.0))
    if snap > 0 and peak > 0:
        kappa = np.where(kappa < snap * peak, 0.0, kappa)
    kappa_rev = kappa[::-1].copy()
    pos = kappa > 0
    pos_rev = kappa_rev > 0
    theta = pos & pos_rev
    lam = np.full(kappa.size, np.nan)
    lam[theta] = kappa_rev[theta] / kappa[theta]
    return {
        "kappa": kappa,
        "kappa_rev": kappa_rev,
        "lambda_theta": lam,
        "gamma": np.sqrt(kappa * kappa_rev),
        "n_plus": ~pos & pos_rev,
        "n_minus": pos & ~pos_rev,
        "theta": theta,
        "sigma": np.sqrt(kappa),
        "sigma_rev": np.sqrt(kappa_rev),
    }


def gathered_planck_kappa(beta, h, points):
    """The Planck density h nu / (exp(beta h nu) - 1) off nu = 0, 1/beta at it."""
    kappa = np.empty(points.size)
    nonzero = points != 0
    with np.errstate(over="ignore"):
        kappa[nonzero] = h * points[nonzero] / np.expm1(beta * h * points[nonzero])
    kappa[~nonzero] = 1.0 / beta
    return kappa


def scattered_roots(lam, support):
    """The modular symbol of ``lam`` on ``support`` and its roots lambda^(+-1/2),
    scattered into zeros."""
    roots = np.zeros((2, lam.size))
    roots[0, support] = np.sqrt(lam[support])
    roots[1, support] = np.sqrt(1.0 / lam[support])
    return np.where(support, lam, 0.0), roots


def scattered_standard_amp(pair):
    """The standard amplitude: 1 on n_minus, lambda^(-1/4) scattered onto theta."""
    amp = np.where(pair.n_minus, 1.0, 0.0)
    amp[pair.theta] = pair.lambda_theta[pair.theta] ** -0.25
    return amp


def spliced_canonical(pair):
    """(minus, plus) of the noise, reverse, creation and annihilation measures
    of a standard vacuum pair: the canonical pair as the sum of the noise and
    reverse measures, each restricted to one vacuum support."""
    on_noise, on_reverse = pair.n_minus, pair.n_plus
    noise = (on_reverse.astype(float), on_noise.astype(float))
    reverse = (on_noise.astype(float), on_reverse.astype(float))

    def restricted(symbol, mask):
        return tuple(np.where(mask, amp, 0.0) for amp in symbol)

    def added(first, second):
        return tuple(a + b for a, b in zip(first, second))

    return {
        "noise": noise,
        "reverse": reverse,
        "creation": added(restricted(noise, on_noise), restricted(reverse, on_reverse)),
        "annihilation": added(restricted(reverse, on_noise), restricted(noise, on_reverse)),
    }


def combined_recovery(output_pair, sigma, sigma_rev, support):
    """(minus, plus) of the recovered creation and annihilation measures, each
    combined from the output and reverse measures with the amplitudes
    ``sigma``, ``sigma_rev`` and divided on ``support``, with no -0.0."""
    denom = sigma_rev * sigma_rev - sigma * sigma
    output, reverse = output_pair.output, output_pair.reverse

    def combine(coeff_out, coeff_rev):
        minus = coeff_out * output.minus + coeff_rev * reverse.minus
        plus = coeff_out * output.plus + coeff_rev * reverse.plus
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(support, minus / denom + 0.0, 0.0), np.where(support, plus / denom + 0.0, 0.0)

    return {"creation": combine(sigma_rev, -sigma), "annihilation": combine(-sigma, sigma_rev)}


def adjoint(symbol):
    """Amplitudes of M(D)^dag, to be evaluated on the flipped cell set: the
    conjugate flips of M's creator and annihilator amplitudes, swapped.  With
    ``qsi.ordered_moment`` it is the bilinear rule that ``OutputPair.moment``
    and ``IntegratorTable.second_moment`` reduce to densities over D & D'."""
    from qnoise import qsi
    return qsi.MeasureSymbol(np.conj(symbol.plus[::-1]), np.conj(symbol.minus[::-1]))

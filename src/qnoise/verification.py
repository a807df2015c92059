"""Residual checks for every identity the toolkit guarantees.

Each check computes a nonnegative residual and compares it against a
pinned tolerance; a residual of exactly zero is required wherever the
construction makes the identity structural (mask disjointness, flip
symmetry of stored arrays, canonical table zeros).  Every suite but the
mode tables reads one :class:`~qnoise.pipeline.Pipeline`, so :func:`run_all`
builds each stage of the chain once for all suites.

No check forms an n x n array.  Every circulant (K, K_rev, X, X_rev, G, L,
L_half) is read through its first column (:func:`_column`).  Every other
oracle is one chirp-z DFT (:func:`_dft`, Bluestein's algorithm), which
shares none of the package's index shifts or scales.  So every check takes
O(n log n) time and O(n) memory.

The suites that transform are generators: a suite's r-th yield asks for its
transforms of round r (a dict from a kind to the operands of its call) and
gets their results back.  :func:`_lockstep` takes the requests of one kind in
a round as one call on their stacked rows; numpy transforms each row alone,
so each comes out bit for bit.  Round 1 is one :func:`_column` call for every
symbol-to-lag transform (a lag kernel is a centred column), round 2 one
:func:`_dft` of the rows of ``stationary`` and ``modular`` and one
:func:`convolve` at eps 1 of every kernel pair, each row then scaled by its
eps, round 3 one :func:`_circular` of the products of those DFTs.  qsi's
Gram oracle reads K, K_rev and G by their symbols.  A suite called alone runs
its generator by itself.  :func:`run_all` runs the suites in lockstep up to
n = 1025, one after another above, so no row outlives its suite.  The calls
the checks test stay their own (``modular_kernels_theta``,
``coefficient_norm``, ``reflection_symmetry_check``, ``time_domain_filter``,
qsi's ``spectrum_of``).

The tables that read only the grid and eps (the chirp, the plane waves,
qsi's masks and isometry tables) are kept for the last (n, step, eps) up to
n = 16,385; above it every suite run drops the chirp when it ends.  The mode
tables read the algebra, which may change.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import stationary
from .errors import DegenerateRecoveryError
from .fourier import _fftshift, _ifftshift, convolve, kernel_of, spectrum_of
from .pipeline import Pipeline
from .spectra import SpectralDensityPair, SpectralGrid, _frozen, make_grid


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    residual: float
    tolerance: float
    passed: bool


def _result(suite: str, check: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(suite, check, residual, tolerance, bool(residual <= tolerance))


def _maxabs(values) -> float:
    return float(np.maximum.reduce(np.abs(values), axis=None, initial=0.0))


def _worst(*terms: float) -> float:
    """The largest term of a multi-term residual, or NaN if any is NaN (``max``
    drops a NaN that is not first); adding 0.0 turns a -0.0 it picks into 0.0."""
    return math.nan if any(map(math.isnan, terms)) else float(max(terms)) + 0.0


def _column(symbols: np.ndarray, conjugate: bool | tuple[bool, ...] = False) -> np.ndarray:
    """The one route from symbols in grid order to the first columns of their
    circulants: row i of a stack gives the column of the conjugate circulant
    (K_rev, X_rev from K, X) where ``conjugate[i]``, one flag or one per row."""
    columns = np.fft.ifft(_ifftshift(symbols))
    return np.conjugate(columns, out=columns, where=np.asarray(conjugate)[..., None])


def _products(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The elementwise product a * b of each pair, formed in place as the rows of one stack."""
    out = np.empty((len(pairs), pairs[0][0].shape[-1]), dtype=complex)
    for row, (a, b) in zip(out, pairs):
        np.multiply(a, b, out=row)
    return out


#: Entries of the padded chirp-z working set one FFT call may take: :func:`_dft`
#: takes a stack in blocks of rows, one row per call above n = 2**13 + 1.  A
#: power of two, so k chirp kernels of n fit one block where k * (2n - 2) does.
_DFT_BLOCK = 1 << 15


def _fast_length(m: int) -> int:
    """The smallest 5-smooth length 2**a * 3**b * 5**c >= m, on which numpy's FFT is fast."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power of two p with odd * p >= m
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


@functools.lru_cache(maxsize=1)
def _chirp(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bluestein's conjugate chirp exp(-i pi j^2 / n) for j < n, and the FFT of
    the chirp at j = -(n-1) .. n-1 wrapped onto the length :func:`_fast_length`
    (2n - 2): the chirp is even, so its two ends meet on one slot with one value."""
    j = np.arange(n, dtype=np.int64)
    chirp = np.exp(1j * np.pi / n * (j * j % (2 * n)))  # j^2 reduced mod 2n: phases below 2 pi
    wrapped = np.zeros(_fast_length(2 * n - 2), dtype=complex)
    wrapped[:n] = chirp
    wrapped[wrapped.size - n + 1:] = chirp[:0:-1]
    return np.conj(chirp), np.fft.fft(wrapped)


def _dft(weights: np.ndarray, sign: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k exp(sign * 2 pi i k d / n) for d = 0 .. n-1 along the last axis,
    by Bluestein's chirp-z transform (kd = (k^2 + d^2 - (d - k)^2) / 2) on
    blocks of rows, conjugated in and out for sign > 0.  Written to ``out``, a
    new array if None, which may be ``weights`` itself."""
    n = weights.shape[-1]
    conj_chirp, kernel = _chirp(n)
    rows = weights.reshape(-1, n)
    out = np.empty(weights.shape, dtype=complex) if out is None else out
    result_rows = out.reshape(-1, n)
    block = max(1, _DFT_BLOCK // kernel.size)
    for start in range(0, len(rows), block):
        part = rows[start:start + block]
        if sign > 0:
            part = np.conj(part)
        spectrum = np.fft.fft(part * conj_chirp, kernel.size)
        spectrum *= kernel
        result = np.multiply(conj_chirp, np.fft.ifft(spectrum)[:, :n], out=result_rows[start:start + block])
        if sign > 0:
            np.conjugate(result, out=result)
    return out


def _circular(products: np.ndarray) -> np.ndarray:
    """The columns with these DFTs, written over them: C1 c2 from the product
    of the DFTs of two columns, C1† c2 with the first one conjugated."""
    _dft(products, 1, out=products)
    products /= products.shape[-1]
    return products


def _kernels(columns: np.ndarray, step: float) -> np.ndarray:
    """The :func:`kernel_of` of these columns' symbols."""
    kernels = _fftshift(columns)
    kernels *= columns.shape[-1] * step
    return kernels


#: Each kind of request's call, in round order; a dft is in place.
_CALLS = {"column": lambda *args: _column(*args), "dft": lambda rows: _dft(rows, out=rows),
          "circular": _circular, "convolve": lambda a, b: convolve(a, b, 1.0)}


def _lockstep(suites) -> list[list[CheckResult]]:
    """Suite generators run in lockstep to their checks: each round's requests
    of one kind take one call on their stacked rows, a lone one its own."""
    checks, replies = [None] * len(suites), [None] * len(suites)
    while None in checks:
        asked = {}
        for i, suite in enumerate(suites):
            if checks[i] is None:
                try:
                    for kind, request in suite.send(replies[i]).items():
                        asked.setdefault(kind, []).append((i, request))
                except StopIteration as done:
                    checks[i] = done.value
        replies = [{} for _ in suites]
        for kind, call in _CALLS.items():
            asking = asked.get(kind, ())
            if len(asking) == 1:
                replies[asking[0][0]][kind] = call(*asking[0][1])
            elif asking:
                requests = [r if r[0].ndim == 2 else _rows(*r) for _, r in asking]
                stacked, start = call(*(sum(xs, ()) if isinstance(xs[0], tuple) else np.concatenate(xs)
                                        for xs in zip(*requests))), 0
                for (i, _), request in zip(asking, requests):
                    replies[i][kind], start = stacked[start:start + len(request[0])], start + len(request[0])
        request = asking = None  # no request outlives its round
    return checks


def _run(suites, n: int) -> list[list[CheckResult]]:
    """The checks of suite generators on an n-point grid: in lockstep while a
    _dft block takes 16 rows (n <= 1025), where calls cost more than rows, one
    after another above, so no row outlives its suite.  Past one _DFT_BLOCK
    no chirp outlives its suite, even when the suite raises."""
    if 16 * (2 * n - 2) <= _DFT_BLOCK:
        return _lockstep(suites)
    checks = []
    for suite in suites:
        try:
            checks += _lockstep([suite])
        finally:
            if 2 * n - 2 > _DFT_BLOCK:
                _chirp.cache_clear()
    return checks


def _rows(*operands):
    """Operands (qsi's pair) broadcast, as 2-D stacks."""
    shape = np.broadcast(*operands).shape
    stacks = [np.empty(shape, x.dtype) for x in operands]
    for stack, x in zip(stacks, operands):
        stack[...] = x
    return [stack.reshape(-1, shape[-1]) for stack in stacks]


#: The suites that transform, as generators, in report order.
_ROUNDS = []


def _alone(rounds):
    """The suite ``rounds`` run by itself."""
    _ROUNDS.append(rounds)

    @functools.wraps(rounds)
    def checks(pipe: Pipeline) -> list[CheckResult]:
        return _run([rounds(pipe)], pipe.pair.grid.n_points)[0]
    return checks


class _GridTables:
    """The tables of the checks that read only the grid and eps, each built on first read."""

    def __init__(self, n: int, step: float, eps: float):
        self.grid, self.eps = make_grid(n, step), eps

    @functools.cached_property
    def plane_waves(self) -> tuple[np.ndarray, np.ndarray]:
        """stationary's weight step * eps * exp(-2 pi i m d / n), m = (n - 1) / 2, and test vector zeta."""
        n = self.grid.n_points
        weight = self.grid.step * self.eps * np.exp(-2j * np.pi / n * ((n - 1) // 2 * np.arange(n) % n))
        return _frozen(weight), _frozen(np.exp(1j * np.linspace(0.0, 3.0, n)))

    @functools.cached_property
    def intervals(self) -> tuple[np.ndarray, ...]:
        """The cells of qsi's default D and D', of [-nu_max, -step/2], and those of D & D'."""
        from . import qsi
        grid = self.grid
        bounds = (*qsi._default_bounds(grid), (-grid.nu_max, -grid.step / 2))
        delta, prime, negative = (qsi.interval_mask(grid, lo, hi) for lo, hi in bounds)
        return delta, prime, negative, _frozen(delta & prime)

    @functools.cached_property
    def isometry(self) -> tuple[np.ndarray, ...]:
        """qsi's a = 1/(1+nu^2) and c = i nu/(1+nu^2), their kernels, and the DFTs
        of the columns (z, x) = sqrt(eps) * kernels and of their conjugates."""
        nu = self.grid.points
        a, c = 1.0 / (1.0 + nu**2), 1j * nu / (1.0 + nu**2)
        kernels = kernel_of(np.array((a, c)), self.grid.step)
        columns = math.sqrt(self.eps) * kernels
        columns = np.concatenate((columns, np.conj(columns)))
        return tuple(map(_frozen, (a, c, kernels, _dft(columns, out=columns))))


#: The tables of the last (n, step, eps) a check read.
_kept_tables = functools.lru_cache(maxsize=1)(_GridTables)


def _grid_tables(grid: SpectralGrid, eps: float) -> _GridTables:
    """The grid tables, kept for the last (n, step, eps) while the chirp kernel fits one _DFT_BLOCK."""
    return (_kept_tables if 2 * grid.n_points - 2 <= _DFT_BLOCK else _GridTables)(grid.n_points, grid.step, float(eps))


def spectra_checks(pipe: Pipeline) -> list[CheckResult]:
    out = []
    pair = pipe.pair
    grid = pair.grid
    out.append(_result("spectra", "grid_flip_symmetry", _maxabs(grid.points + grid.points[::-1]), 0.0))
    out.append(_result("spectra", "flip_relation", _maxabs(pair.kappa_rev - pair.kappa[::-1]), 0.0))
    out.append(_result("spectra", "flip_involution", _maxabs(pair.kappa_rev[::-1] - pair.kappa), 0.0))
    overlap = (np.count_nonzero(pair.n_plus & pair.n_minus) + np.count_nonzero(pair.n_plus & pair.theta)
               + np.count_nonzero(pair.n_minus & pair.theta))
    covered = pair.n_plus | pair.n_minus | pair.theta
    uncovered = np.count_nonzero(((pair.kappa + pair.kappa_rev) > 0) & ~covered)
    out.append(_result("spectra", "mask_partition", overlap + uncovered, 0.0))
    if pair.theta.any():
        lam = pair.lambda_theta
        recip = lam[pair.theta] * lam[::-1][pair.theta]
        out.append(_result("spectra", "modular_reciprocal", _maxabs(recip - 1.0), 1e-12))
    out.append(_result("spectra", "cross_density_even", _maxabs(pair.gamma - pair.gamma[::-1]), 0.0))
    return out


@_alone
def stationary_checks(pipe: Pipeline):
    out = []
    pair, seq, model = pipe.pair, pipe.seq, pipe.model
    # floor keeps the empty spectrum finite, including when squared
    norm = max(float(model.eigenvalues.max(initial=0.0)), 1e-150)
    n = model.n_points

    k_scale = max(_maxabs(seq.values), 1e-300)
    hermitian = _maxabs(seq.values[::-1] - np.conj(seq.values)) / k_scale
    out.append(_result("stationary", "sequence_hermitian", hermitian, 1e-12))
    r_scale = max(_maxabs(seq.cross), 1e-300)
    cross_defect = _worst(_maxabs(seq.cross.imag), _maxabs(seq.cross - seq.cross[::-1]))
    out.append(_result("stationary", "cross_real_even", cross_defect / r_scale, 1e-12))
    out.append(_result("stationary", "eigenvalue_match", _maxabs(model.eigenvalues - pair.kappa) / norm, 1e-10))
    root = np.sqrt(model.eigenvalues)
    symbols = (model.eigenvalues, model.eigenvalues, model.gamma, root, root)
    columns = (yield {"column": (np.array(symbols, dtype=complex), (False, True, False, False, True))})["column"]
    k, k_rev, g, x, x_rev = columns
    # The DFTs of the five columns and the sums of the amplitude checks below,
    # in one call: sum_k w_k exp(+2 pi i k d / n) is the conjugate of the DFT
    # of conj(w), and the weights w are real.
    spectra = (yield {"dft": (np.concatenate((columns, (root * root, root * root[::-1]))),)})["dft"]
    sums = np.conjugate(spectra[5:], out=spectra[5:])
    # the spectra of K and G in FFT order, read before the products scale them
    dft_defect = _maxabs(spectra[0] - _ifftshift(model.eigenvalues))
    negative = _worst(0.0, -float(spectra[2].real.min()))
    out.append(_result("stationary", "dft_consistency", dft_defect / norm, 1e-12))
    products = (yield {"circular": (_stationary_products(spectra[:5], norm),)})["circular"]
    gram_k, gram_k_rev, gram_g, squares, mean, commute = products

    out.append(_result("stationary", "gram_noise", _maxabs(gram_k - k) / norm, 1e-10))
    out.append(_result("stationary", "gram_reverse", _maxabs(gram_k_rev - k_rev) / norm, 1e-10))
    out.append(_result("stationary", "gram_cross", _maxabs(gram_g - g) / norm, 1e-10))
    out.append(_result("stationary", "conjugation", _maxabs(x_rev - np.conj(x)), 0.0))
    out.append(_result("stationary", "root_squares", _maxabs(squares - k) / norm, 1e-10))
    # |g - g.real| is |g.imag|, and NaN where either part is
    out.append(_result("stationary", "cross_cov_imag", _maxabs(g - g.real) / norm, 1e-10))
    # g - g[-d mod n] is the asymmetry G - G^T read on its first column
    flip = np.concatenate((g[:1], g[:0:-1]))
    out.append(_result("stationary", "cross_cov_symmetric", _maxabs(g - flip) / norm, 1e-10))
    out.append(_result("stationary", "cross_cov_psd", negative / norm, 1e-10))
    # ||C||_F = sqrt(n) * ||C[:, 0]|| for a circulant C
    for check, column, tolerance in (("geometric_mean", mean, 1e-9), ("covariances_commute", commute, 1e-12)):
        out.append(_result("stationary", check, math.sqrt(n * np.vdot(column, column).real), tolerance))

    # star_involution: the reverse amplitude the decomposition, synthesis and
    # qsi suites read is the conjugate flip of the noise amplitude.
    star = _maxabs(pair.sigma_rev - np.conj(pair.sigma[::-1]))
    out.append(_result("stationary", "star_involution", star, 0.0))
    # The noise amplitude is the root a times the plane wave
    # sqrt(eps) exp(-2 pi i nu eps d), the reverse one its star involution,
    # with root b = conj(a[::-1]).  Entry d of the first column of step * N†N
    # (step * N†R) is step * eps * sum_k w_k exp(2 pi i (k - m) d / n), with
    # m = (n - 1) / 2 and w = |a|^2 (conj(a) * b); a is real here.
    weight, zeta = _grid_tables(pair.grid, model.eps).plane_waves
    for check, total, column in (("amplitude_gram", sums[0], k), ("amplitude_cross", sums[1], g)):
        out.append(_result("stationary", check, _maxabs(weight * total - column) / norm, 1e-10))

    negative = _worst(0.0, -stationary.coefficient_norm(model, zeta))
    out.append(_result("stationary", "test_norm_nonnegative", negative, 0.0))
    return out


def _stationary_products(spectra: np.ndarray, norm: float) -> np.ndarray:
    """The DFTs of the columns the product checks compare, from the DFTs of
    the columns of K, K_rev, G, X and X_rev: those of X†X, X_rev†X_rev,
    X†X_rev and X X, and of G G - K K_rev and K K_rev - K_rev K with the
    spectra of K, K_rev and G scaled by 1 / norm first, so nothing of order
    norm**2 overflows.  A NaN eigenvalue makes norm NaN, and every product
    NaN with it, so each product check fails instead of the divide warning."""
    spec_k, spec_k_rev, spec_g, spec_x, spec_x_rev = spectra
    with np.errstate(invalid="ignore"):
        spectra[:3] /= norm
    conj_x = np.conj(spec_x)
    products = _products((conj_x, spec_x), (np.conj(spec_x_rev), spec_x_rev), (conj_x, spec_x_rev),
                         (spec_x, spec_x), (spec_g, spec_g), (spec_k, spec_k_rev))
    products[4] -= spec_k * spec_k_rev
    products[5] -= spec_k_rev * spec_k
    return products


@_alone
def modular_checks(pipe: Pipeline):
    filt = pipe.filt
    if filt is None:
        return []
    out = []
    model = pipe.model
    lam = filt.symbol
    columns = (yield {"column": (np.array((lam, lam, np.sqrt(lam)), dtype=complex), (False, True, False))})["column"]
    l_col = columns[0]
    got = yield {"dft": (columns.copy(),), "convolve": (filt.kernel_half[None], filt.kernel_inv_half[None])}
    spec_l, spec_l_conj, spec_l_half = got["dft"]
    out.append(_result("modular", "spectrum_match", _maxabs(spec_l - _ifftshift(lam)) / float(lam.max()), 1e-10))
    products = _products((spec_l, spec_l_conj), (spec_l_half, spec_l_half))
    inverse, squares = (yield {"circular": (products,)})["circular"]
    l_norm = max(_maxabs(l_col), 1.0)
    inverse = np.conj(inverse)
    inverse[0] -= 1.0
    out.append(_result("modular", "conjugate_inverse", _maxabs(inverse) / l_norm**2, 1e-12))
    unit = np.zeros(model.n_points)
    unit[(model.n_points - 1) // 2] = 1.0
    names = ("kernel_modular_property", "kernel_convolution_unit")
    out += _kernel_checks("modular", names, filt, got["convolve"][0], unit)
    out.append(_result("modular", "root_squares", _maxabs(squares - l_col) / l_norm, 1e-10))
    return out


def _kernel_checks(suite: str, names: tuple[str, str], filt: stationary.ModularFilter, conv: np.ndarray,
                   indicator: np.ndarray) -> list[CheckResult]:
    """The modular property of a filter's kernels, and their circular convolution
    ``conv`` against ``indicator``, the kernel of its support."""
    half, inv_half = filt.kernel_half, filt.kernel_inv_half
    defect = _worst(_maxabs(half[::-1] - np.conj(half)), _maxabs(np.conj(half) - inv_half))
    return [_result(suite, names[0], defect / max(_maxabs(half), 1e-300), 1e-10),
            _result(suite, names[1], _maxabs(conv - indicator), 1e-9)]


@_alone
def decomposition_checks(pipe: Pipeline):
    from . import decomposition
    out = []
    pair, eps, parts = pipe.pair, pipe.eps, pipe.parts

    violations = np.count_nonzero((parts.amp_vac != 0) & (parts.amp_thermal != 0))
    violations += np.count_nonzero(parts.amp != parts.amp_vac + parts.amp_thermal)
    violations += np.count_nonzero((parts.amp_rev_vac != 0) & (parts.amp_rev_thermal != 0))
    violations += np.count_nonzero(parts.amp_rev != parts.amp_rev_vac + parts.amp_rev_thermal)
    out.append(_result("decomposition", "support_partition", violations, 0.0))

    cross = (np.conj(parts.amp_vac) * parts.amp_thermal).sum() * pair.grid.step
    out.append(_result("decomposition", "component_orthogonality", abs(cross), 0.0))

    retained = pair.kappa + pair.kappa_rev > 0  # read from the densities, not from the masks it is compared with
    projector_defect = np.count_nonzero(pair.theta != (~pair.n_plus & ~pair.n_minus & retained))
    out.append(_result("decomposition", "projector_algebra", projector_defect, 0.0))

    estimate, residual, norm2, expected = decomposition.input_to_output(parts)
    theta = pair.theta
    if theta.any():
        filtered = np.sqrt(pair.lambda_theta[theta]) * parts.amp[theta]
        scale = max(_maxabs(parts.amp_rev), 1e-300)
        defect = _maxabs(estimate[theta] - filtered) / scale
        out.append(_result("decomposition", "estimate_is_modular_filter", defect, 1e-10))
    out.append(_result("decomposition", "residual_support", np.count_nonzero((residual != 0) & ~pair.n_plus), 0.0))
    out.append(_result("decomposition", "residual_norm", abs(norm2 - expected) / max(1.0, expected), 1e-12))
    flips = _maxabs(parts.amp_vac[::-1] - parts.amp_rev_vac)
    flips += _maxabs(parts.amp_thermal[::-1] - parts.amp_rev_thermal)
    out.append(_result("decomposition", "flip_exchange", flips, 0.0))

    if pair.theta.any():
        kernels = decomposition.modular_kernels_theta(pair, eps)
        indicator = (yield {"column": (pair.theta.astype(float)[None], (False,))})["column"]
        indicator = eps * _kernels(indicator, pair.grid.step)[0]
        conv = (yield {"convolve": (kernels.kernel_half[None], kernels.kernel_inv_half[None])})["convolve"][0]
        names = ("theta_kernel_modular", "theta_kernel_convolution")
        out += _kernel_checks("decomposition", names, kernels, conv, indicator)
    return out


@_alone
def synthesis_checks(pipe: Pipeline):
    from . import synthesis
    out = []
    pair, eps, filt = pipe.pair, pipe.eps, pipe.transmission
    std = filt.standard
    theta = pair.theta
    perp = pair.retained & ~theta

    if theta.any():
        law = std.kappa[theta] * std.kappa_rev[theta]
        out.append(_result("synthesis", "standard_law_thermal", _maxabs(law - 1.0), 1e-12))
        out.append(_result("synthesis", "standard_cross_unit", _maxabs(std.gamma[theta] - 1.0), 1e-12))
    if perp.any():
        level = std.kappa[perp] + std.kappa_rev[perp]
        out.append(_result("synthesis", "standard_law_vacuum", _maxabs(level - 1.0), 1e-12))
    out.append(_result("synthesis", "standard_cross_off_support", _maxabs(std.gamma[~theta]), 0.0))
    out.append(_result("synthesis", "transmission_symmetric", _maxabs(filt.f - filt.f[::-1]), 0.0))
    kernel_scale = max(_maxabs(filt.time_kernel), 1e-300)
    out.append(_result("synthesis", "time_kernel_real", _maxabs(filt.time_kernel.imag) / kernel_scale, 1e-12))

    result = pipe.synthesized
    for name, reproduced, target, on in (
        ("reproduce_kappa", result.kappa_out, pair.kappa, pair.kappa > 0),
        ("reproduce_kappa_rev", result.out_amp_rev * result.out_amp_rev, pair.kappa_rev, pair.kappa_rev > 0),
        ("reproduce_gamma", result.out_amp * result.out_amp_rev, pair.gamma, theta),
    ):
        out.append(_result("synthesis", name, _maxabs(synthesis.relative_error(reproduced, target, on)), 1e-10))
    sigma_scale = max(_maxabs(pair.sigma), 1e-300)
    amplitude = _maxabs(result.out_amp - pair.sigma) / sigma_scale
    out.append(_result("synthesis", "amplitude_reproduction", amplitude, 1e-10))

    time_filter = synthesis.time_domain_filter(filt, eps)
    symbols = (std.sigma, pair.sigma, result.out_amp_rev, result.out_amp, result.kappa_out)
    kernels = _kernels((yield {"column": (np.array(symbols), (False,) * 5)})["column"], pair.grid.step)
    chi_std, psi_target, psi_out, psi_out_rev, correlations = kernels
    applied = (yield {"convolve": (time_filter.phi[None], chi_std[None])})["convolve"][0] * time_filter.eps
    psi_scale = max(_maxabs(psi_target), 1e-300)
    convolution = _maxabs(applied - psi_target)
    out.append(_result("synthesis", "time_convolution", convolution / psi_scale, 1e-9))
    out.append(_result("synthesis", "kernel_time_reversal", _maxabs(psi_out[::-1] - psi_out_rev) / psi_scale, 1e-12))

    seq = pipe.seq
    corr_scale = max(_maxabs(seq.values), 1e-300)
    out.append(_result("synthesis", "correlation_reproduction", _maxabs(correlations - seq.values) / corr_scale, 1e-9))
    return out


@_alone
def qsi_checks(pipe: Pipeline):
    from . import qsi
    out = []
    pair, eps = pipe.pair, pipe.eps
    grid = pair.grid
    step = grid.step
    table = qsi.integrator_table(pair)
    tables = _grid_tables(grid, eps)
    delta, delta_prime, negative, overlap = tables.intervals
    vacuum_pair = pipe.vacuum_pair
    canonical, (noise, reverse) = pipe.canonical
    sigma, sigma_rev, output_pair = pair.sigma, pair.sigma_rev, pipe.output
    integrator, ordered, outputs = qsi.moment_tables(pair, output_pair, delta, delta_prime)
    densities = {(first, second): output_pair.density(first, second)
                 for first in ("output", "reverse") for second in ("output", "reverse")}

    moment_scale = max(step * float(pair.kappa.sum()), 1e-300)

    def integral(density):  # fsum reads a memoryview about three times as fast as an array
        return step * math.fsum(memoryview(density[overlap]))

    defects = [abs(integrator[f"{first}_dag_{second}"] - integral(table.density(first, second)))
               for first in ("noise", "reverse") for second in ("noise", "reverse")]
    defects += [abs(outputs[f"{first}_{second}_dag"] - integral(density))
                for (first, second), density in densities.items()]
    out.append(_result("qsi", "integrator_moments", _worst(*defects) / moment_scale, 1e-12))

    if pair.theta.any():
        theta = pair.theta
        lam_defect = _maxabs(pair.kappa_rev[theta] - pair.lambda_theta[theta] * pair.kappa[theta])
        lam_defect /= max(float(pair.kappa_rev.max(initial=0.0)), 1e-300)
        out.append(_result("qsi", "reverse_density_modular", lam_defect, 1e-12))

    disjoint = table.second_moment("noise", delta, "noise", negative)
    out.append(_result("qsi", "disjoint_intervals_vanish", abs(disjoint), 0.0))

    # Canonical table on the pipeline's standard vacuum spectrum.
    zeros = sum(abs(ordered[name]) for name in ("creation_annihilation", "creation_creation",
                                               "annihilation_annihilation"))
    out.append(_result("qsi", "canonical_zeros", zeros, 0.0))
    pairing = ordered["annihilation_creation"]
    expected = step * np.count_nonzero(overlap & canonical.support)
    out.append(_result("qsi", "canonical_pairing", abs(pairing - expected), 0.0))
    assembled = _maxabs(noise.plus - vacuum_pair.kappa) + _maxabs(reverse.plus - vacuum_pair.kappa_rev)
    out.append(_result("qsi", "vacuum_assembly", assembled, 1e-12))

    support = canonical.support
    amplitudes = {"output": sigma, "reverse": sigma_rev}
    density_scale = max(_maxabs(sigma) ** 2, 1e-300)
    defects = [_maxabs(density[support] - (amplitudes[first] * amplitudes[second])[support])
               for (first, second), density in densities.items()]
    out.append(_result("qsi", "output_table", _worst(*defects) / density_scale, 1e-12))
    # Cross-module consistency with the synthesis spectra, reported last; the
    # densities are n-point arrays: free them before the rounds below.
    consistency = _maxabs(densities["output", "output"][support] - pipe.synthesized.kappa_out[support])
    del densities

    degenerate = support & (sigma_rev == sigma)
    if degenerate.any():
        try:
            qsi.recover_canonical(output_pair)
            raised = False
        except DegenerateRecoveryError:
            raised = True
        out.append(_result("qsi", "degenerate_recovery_guard", 0.0 if raised else 1.0, 0.0))
    recoverable = support & ~degenerate
    if recoverable.any():
        recovered = qsi.recover_canonical(output_pair, where=recoverable)
        on = recoverable
        roundtrip = _worst(_maxabs(recovered.creation.plus[on] - 1.0), _maxabs(recovered.creation.minus[on]),
                           _maxabs(recovered.annihilation.minus[on] - 1.0), _maxabs(recovered.annihilation.plus[on]))
        out.append(_result("qsi", "canonical_roundtrip", roundtrip, 0.0))

    # Isometry of the mean-square integral against the Gram-matrix oracle.
    model = pipe.model
    a, c, kernels, coefficients = tables.isometry
    forward, backward = qsi.isometry_check(a, c, pair)
    out.append(_result("qsi", "isometry_nonnegative", _worst(0.0, -forward, -backward), 0.0))
    amp_kernel = _kernels((yield {"column": (sigma[None], (False,))})["column"], step)[0]
    gram_forward, gram_backward = _isometry_grams(model, coefficients)
    del tables, coefficients  # past one block no memo holds them: free them before the bridge
    scale = max(abs(forward), abs(backward), 1e-300)
    defect = _worst(abs(forward - gram_forward), abs(backward - gram_backward))
    out.append(_result("qsi", "isometry_gram_oracle", defect / scale, 1e-9))

    r_scale = max(step * float(model.gamma.sum()), 1e-300)  # lag 0 bounds every lag, as gamma >= 0
    out.append(_result("qsi", "reflection_symmetry", qsi.reflection_symmetry_check(model) / r_scale, 1e-10))

    # Fourier-Parseval bridge of the coefficient kernels; sigma_rev's kernel is the lag flip of sigma's.
    # phi[i, j] convolves the kernel of a (i = 0) or c (i = 1) with that of
    # sigma_rev (j = 0) or sigma (j = 1)
    phi = (yield {"convolve": (kernels[:, None], np.array((amp_kernel[::-1], amp_kernel)))})["convolve"]
    phi = phi.reshape(2, 2, -1)
    phi *= eps
    bridge_minus, bridge_plus = spectrum_of(phi[0] + phi[1, ::-1], eps)
    f_minus = a * sigma_rev + c * sigma
    f_plus = a * sigma + c * sigma_rev
    parseval_scale = max(_maxabs(f_plus), _maxabs(f_minus), 1e-300)
    defect = _worst(_maxabs(bridge_minus - f_minus), _maxabs(bridge_plus - f_plus))
    out.append(_result("qsi", "parseval_bridge", defect / parseval_scale, 1e-10))

    out.append(_result("qsi", "synthesis_consistency", consistency / density_scale, 1e-12))
    return out


def _isometry_grams(model: stationary.StationaryModel, coefficients: np.ndarray) -> tuple[float, float]:
    """z† K z + z† G x + x† G z + x† K_rev x for the coefficient columns
    (z, x) and then their conjugates, from their DFTs ``coefficients``.  The
    DFT of a circulant's column is its symbol in FFT order
    (stationary/dft_consistency checks it for K), so K, K_rev and G enter by
    κ, its flip and γ."""
    eigenvalues = model.eigenvalues
    spec_k, spec_k_rev, spec_g = _ifftshift(np.array((eigenvalues, eigenvalues[::-1], model.gamma)))

    def gram(spec_z, spec_x):
        # z† C x = sum_q conj(Z_q) C_q X_q / n for a circulant C, by Parseval
        value = (np.conj(spec_z) * (spec_k * spec_z + spec_g * spec_x)
                 + np.conj(spec_x) * (spec_g * spec_z + spec_k_rev * spec_x)).sum()
        return float(value.real) / spec_z.size

    return gram(*coefficients[:2]), gram(*coefficients[2:])


def mode_checks() -> list[CheckResult]:
    from . import mode_algebra
    occupations = (0.0, 0.5, 1.0, 2.0, 10.0)
    n = np.array(occupations)
    # each entry of the tables qnoise mode prints, and each roundtrip term,
    # for every occupation at once, against its closed form in table order
    noise, reverse = mode_algebra.thermal_pair(n)
    cross = np.sqrt(n * (n + 1.0))
    closed = {"correlations_dag_first": (n, cross, cross, n + 1.0),
              "correlations_dag_second": (n + 1.0, cross, cross, n),
              "commutators": (1.0, 1.0, 0.0, 0.0)}
    table = np.abs([entry - value for name, entries in mode_algebra.thermal_tables(noise, reverse).items()
                    for entry, value in zip(entries.values(), closed[name], strict=True)])
    mode_a, mode_c = mode_algebra.invert_pair(noise, reverse, n)
    roundtrip = np.abs((mode_a.coefficients - mode_algebra.A.coefficients,
                        mode_c.coefficients - mode_algebra.C.coefficients))
    # the worst term per occupation: max keeps a NaN and adding 0.0 turns
    # -0.0 into 0.0, as in _worst
    table_worst = table.max(axis=0) + 0.0
    roundtrip_worst = roundtrip.max(axis=(0, 2)) + 0.0
    out = []
    for occupation, table_residual, roundtrip_residual in zip(occupations, table_worst, roundtrip_worst):
        out.append(_result("mode", f"thermal_table_n={occupation:g}", table_residual, 1e-12))
        out.append(_result("mode", f"inversion_n={occupation:g}", roundtrip_residual, 1e-14))
    return out


def run_all(pair: SpectralDensityPair | Pipeline, eps: float | None = None,
            tol_factor: float = 1.0) -> list[CheckResult]:
    """All suites on a pipeline, or on a pair at ``eps``, with optional tolerance scaling.

    Raises:
        ValueError: if ``eps`` is given with a pipeline, which carries its own.
    """
    if isinstance(pair, Pipeline) and eps is not None:
        raise ValueError("run_all takes eps with a pair only: a pipeline carries its own eps")
    if not isinstance(pair, Pipeline) and eps is None:
        eps = 1.0 / (pair.grid.n_points * pair.grid.step)  # by the duality n * step * eps = 1
    pipe = pair if isinstance(pair, Pipeline) else Pipeline(pair, eps)
    results = spectra_checks(pipe)
    for checks in _run([rounds(pipe) for rounds in _ROUNDS], pipe.pair.grid.n_points):
        results += checks
    results += mode_checks()
    if tol_factor != 1.0:
        results = [replace(r, tolerance=(t := r.tolerance * tol_factor), passed=bool(r.residual <= t)) for r in results]
    return results

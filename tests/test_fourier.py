import numpy as np
import pytest

from qnoise.fourier import _fftshift, _ifftshift, convolve, kernel_of, spectrum_of


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("n", list(range(1, 13)) + [257])
def test_slice_shifts_equal_numpys_shifts_bit_for_bit(n):
    rng = np.random.default_rng(n)
    real = rng.normal(size=n)
    stack = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for values in (real, stack, np.arange(n), np.arange(n) % 2 == 0):
        for shift, expected in ((_fftshift, np.fft.fftshift), (_ifftshift, np.fft.ifftshift)):
            got = shift(values)
            want = expected(values, axes=-1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert _bits(got) == _bits(want)
    assert _bits(_ifftshift(_fftshift(stack))) == _bits(stack)


@pytest.mark.parametrize("n", [1, 2, 9, 33, 257])
def test_stacked_transforms_equal_the_row_by_row_ones_bit_for_bit(n):
    # A stack goes through one FFT call; each of its rows must come out as
    # that row alone would, scaled by its own length n, not by the stack's size.
    rng = np.random.default_rng(n)
    real = rng.uniform(0.1, 2.0, size=(3, n))
    mixed = np.stack((real[0], rng.normal(size=n) + 1j * rng.normal(size=n), real[2]))
    for stack in (real, mixed):
        kernels = kernel_of(stack, 0.25)
        spectra = spectrum_of(stack, 0.5)
        assert kernels.shape == spectra.shape == stack.shape
        for i, row in enumerate(stack):
            assert _bits(kernels[i]) == _bits(kernel_of(row, 0.25))
            assert _bits(spectra[i]) == _bits(spectrum_of(row, 0.5))
        other = stack[::-1] * 1.5
        conv = convolve(stack, other, 0.125)
        for i, (a, b) in enumerate(zip(stack, other)):
            assert _bits(conv[i]) == _bits(convolve(a, b, 0.125))
    # broadcast stacks: every pair of a row of one with a row of the other
    conv = convolve(mixed[:, None], real[:2], 0.125)
    assert conv.shape == (3, 2, n)
    for i in range(3):
        for j in range(2):
            assert _bits(conv[i, j]) == _bits(convolve(mixed[i], real[j], 0.125))


@pytest.mark.parametrize("n", [1, 9, 257])
def test_equal_shape_convolve_takes_one_forward_fft_call(n, monkeypatch):
    # The two operands go through one forward call as a stack; the result is
    # bit for bit that of one forward call per operand.
    rng = np.random.default_rng(n)
    a = rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    fft, ifft = np.fft.fft, np.fft.ifft
    calls = []

    def counted(values, *args, **kwargs):
        calls.append(np.shape(values))
        return fft(values, *args, **kwargs)

    for x, y in ((a, b), (b, a)):
        separate = _fftshift(ifft(fft(_ifftshift(x)) * fft(_ifftshift(y))))
        separate *= 0.125
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fft", counted)
            calls.clear()
            got = convolve(x, y, 0.125)
        assert calls == [(2, n)]
        assert _bits(got) == _bits(separate)


def test_kernel_of_a_stack_scales_by_the_row_length():
    # Regression: the quadrature weight is step * n with n the length of a
    # row; the size of a (2, n) stack would scale every row twice too large.
    n, step = 9, 0.5
    ones = np.ones((2, n))
    kernels = kernel_of(ones, step)
    center = (n - 1) // 2
    np.testing.assert_allclose(kernels[:, center], n * step, rtol=1e-15)

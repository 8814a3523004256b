"""Image transform tests against independent dense oracles.

The blur oracle is a dense 2-D convolution over an explicitly padded
array; the padding itself is validated against the closed-form
edge-repeating reflection index on tiny inputs, including kernels wider
than the image.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import random_image
from fovalign import transforms
from fovalign.transforms import (
    add_noise,
    foveate,
    foveation_mask,
    gaussian_blur,
    gaussian_kernel,
    resample,
)


def reflect_index(t: int, n: int) -> int:
    """Edge-repeating reflection of coordinate t onto [0, n): the sequence
    ... 1 0 | 0 1 .. n-1 | n-1 n-2 ... has period 2n."""
    m = t % (2 * n)
    return m if m < n else 2 * n - 1 - m


def shrink(gather, image, height, width):
    """The shrink pass of `resample`, without the resize back."""
    return gather(gather(image, 1, height), 2, width)


def temporaries_gather_linear(arr, axis, n_dst):
    """`transforms._gather_linear` with a new array per operation: the two
    gathers, the two products and their sum. The oracle for the in-buffer pass."""
    lo_idx, hi_idx, keep, frac = transforms._linear_table(arr.shape[axis], n_dst)
    shape = [1] * arr.ndim
    shape[axis] = n_dst
    a = np.take(arr, lo_idx, axis=axis)
    b = np.take(arr, hi_idx, axis=axis)
    return keep.reshape(shape) * a + frac.reshape(shape) * b


def dense_blur_oracle(image: np.ndarray, kernel_size: int) -> np.ndarray:
    """One dense 2-D pass with the full outer-product kernel."""
    taps = gaussian_kernel(kernel_size)
    kern = np.outer(taps, taps)
    r = kernel_size // 2
    padded = np.pad(image, ((0, 0), (r, r), (r, r)), mode="symmetric")
    _, height, width = image.shape
    out = np.zeros_like(image)
    for di in range(kernel_size):
        for dj in range(kernel_size):
            out += kern[di, dj] * padded[:, di : di + height, dj : dj + width]
    return np.clip(out, 0.0, 1.0)


def looped_blur_oracle(image: np.ndarray, kernel_size: int) -> np.ndarray:
    """Scalar-loop oracle built directly on the reflection index formula."""
    taps = gaussian_kernel(kernel_size)
    r = kernel_size // 2
    channels, height, width = image.shape
    out = np.zeros_like(image)
    for c in range(channels):
        for i in range(height):
            for j in range(width):
                acc = 0.0
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        ii = reflect_index(i + di, height)
                        jj = reflect_index(j + dj, width)
                        acc += taps[di + r] * taps[dj + r] * image[c, ii, jj]
                out[c, i, j] = acc
    return np.clip(out, 0.0, 1.0)


def correlation_blur(image: np.ndarray, kernel_size: int) -> np.ndarray:
    """The two-pass separable correlation the blur operator is built from."""
    if kernel_size == 1:
        return image.copy()
    taps = gaussian_kernel(kernel_size)
    out = ndimage.correlate1d(image, taps, axis=1, mode="reflect")
    out = ndimage.correlate1d(out, taps, axis=2, mode="reflect")
    return np.clip(out, 0.0, 1.0)


@st.composite
def blur_cases(draw):
    """An image with sides in [1, 80] and an odd kernel up to
    2 * max(H, W) + 3, so the reflection folds over several periods."""
    height = draw(st.integers(1, 80))
    width = draw(st.integers(1, 80))
    channels = draw(st.integers(1, 3))
    kernel = 2 * draw(st.integers(0, max(height, width) + 1)) + 1
    seed = draw(st.integers(0, 2**32 - 1))
    image = np.random.default_rng(seed).random((channels, height, width))
    return image, kernel


def corner_formula_mask(height: int, width: int, center, gamma: float) -> np.ndarray:
    """The foveation mask normalised by the largest of the four corner
    distances, each computed on its own."""
    row, col = center
    rows = np.arange(height, dtype=np.float64)[:, None] - float(row)
    cols = np.arange(width, dtype=np.float64)[None, :] - float(col)
    farthest = max(
        np.hypot(float(r - row), float(c - col)) for r in (0, height - 1) for c in (0, width - 1)
    )
    if farthest == 0.0:
        return np.ones((height, width))
    with np.errstate(over="ignore"):  # the oracle may overflow; foveation_mask may not warn
        return np.exp(-gamma * np.hypot(rows, cols) / farthest)


class TestFoveationMask:
    def test_center_is_exactly_one(self):
        mask = foveation_mask(11, 17, (5, 8), gamma=2.5)
        assert mask[5, 8] == 1.0

    def test_committed_corner_value(self):
        # 5x5 grid, center (2,2), gamma 2: pixel (2,4) sits at distance 2
        # of a corner distance 2*sqrt(2), so exp(-2 * 2 / (2 sqrt 2))
        mask = foveation_mask(5, 5, (2, 2), gamma=2.0)
        expected = np.exp(-2.0 * 2.0 / (2.0 * np.sqrt(2.0)))
        np.testing.assert_allclose(mask[2, 4], expected, rtol=1e-12)
        np.testing.assert_allclose(mask[2, 4], 0.2431, atol=5e-5)

    def test_rotation_symmetry_on_odd_square(self):
        mask = foveation_mask(9, 9, (4, 4), gamma=1.7)
        np.testing.assert_array_equal(mask, np.rot90(mask))
        np.testing.assert_array_equal(mask, mask.T)

    def test_values_in_unit_interval(self):
        mask = foveation_mask(7, 13, (0, 0), gamma=0.5)
        assert mask.min() > 0.0
        assert mask.max() == 1.0

    def test_monotone_in_gamma(self):
        weak = foveation_mask(9, 9, (4, 4), gamma=0.5)
        strong = foveation_mask(9, 9, (4, 4), gamma=3.0)
        off_center = np.ones((9, 9), dtype=bool)
        off_center[4, 4] = False
        assert np.all(strong[off_center] < weak[off_center])

    def test_single_pixel_grid(self):
        np.testing.assert_array_equal(foveation_mask(1, 1, (0, 0), 1.0), [[1.0]])

    @pytest.mark.parametrize("height, width", [(0, 4), (4, 0), (-1, -1)])
    def test_empty_grid_rejected(self, height, width):
        with pytest.raises(ValueError, match=f"mask dimensions must be >= 1, got {height}x{width}"):
            foveation_mask(height, width, (0, 0), 1.0)

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            foveation_mask(4, 4, (4, 0), 1.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            foveation_mask(4, 4, (0, 0), 0.0)

    @given(
        data=st.data(),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        gamma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_farthest_distance_is_a_corner_distance(self, data, height, width, gamma):
        row = data.draw(st.integers(0, height - 1))
        col = data.draw(st.integers(0, width - 1))
        np.testing.assert_array_equal(
            foveation_mask(height, width, (row, col), gamma),
            corner_formula_mask(height, width, (row, col), gamma),
        )


class TestGaussianKernel:
    def test_normalized_and_symmetric(self):
        for k in (1, 3, 5, 75):
            taps = gaussian_kernel(k)
            np.testing.assert_allclose(taps.sum(), 1.0, rtol=1e-12)
            np.testing.assert_allclose(taps, taps[::-1], rtol=1e-12)

    def test_sigma_rule_matches_direct_formula(self):
        k = 9
        sigma = 0.3 * ((k - 1) / 2.0 - 1.0) + 0.8
        offs = np.arange(k) - (k - 1) / 2.0
        ref = np.exp(-(offs**2) / (2 * sigma**2))
        np.testing.assert_allclose(gaussian_kernel(k), ref / ref.sum(), rtol=1e-12)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(4)


class TestGaussianBlur:
    def test_kernel_one_is_identity(self):
        rng = np.random.default_rng(0)
        image = random_image(rng)
        out = gaussian_blur(image, 1)
        np.testing.assert_array_equal(out, image)
        assert out is not image  # a copy, not a view

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for k in (3, 5, 9):
            image = random_image(rng, height=12, width=10)
            np.testing.assert_allclose(
                gaussian_blur(image, k), dense_blur_oracle(image, k), atol=1e-10
            )

    def test_padding_matches_reflection_index_formula(self):
        # includes kernels wider than the image (multi-fold reflection)
        rng = np.random.default_rng(2)
        for height, width, k in ((4, 4, 3), (3, 5, 5), (4, 3, 9), (2, 2, 7)):
            image = rng.random((1, height, width))
            np.testing.assert_allclose(
                gaussian_blur(image, k), looped_blur_oracle(image, k), atol=1e-12
            )

    def test_constant_image_preserved(self):
        image = np.full((3, 6, 7), 0.42)
        np.testing.assert_allclose(gaussian_blur(image, 7), image, atol=1e-6)

    def test_mean_brightness_preserved(self):
        # edge-repeating reflection makes blur a doubly stochastic
        # rearrangement of mass, so the image mean survives exactly
        rng = np.random.default_rng(3)
        image = random_image(rng, height=9, width=8)
        for k in (3, 5, 21):
            blurred = gaussian_blur(image, k)
            np.testing.assert_allclose(blurred.mean(), image.mean(), atol=1e-5)
            np.testing.assert_allclose(blurred.sum(), image.sum(), rtol=1e-10)

    def test_output_stays_in_range(self):
        image = np.zeros((1, 5, 5))
        image[0, 2, 2] = 1.0
        out = gaussian_blur(image, 5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_input_untouched(self):
        rng = np.random.default_rng(4)
        image = random_image(rng)
        copy = image.copy()
        gaussian_blur(image, 5)
        np.testing.assert_array_equal(image, copy)

    @settings(max_examples=80, deadline=None)
    @given(blur_cases())
    def test_operator_matches_the_separable_correlation(self, case):
        image, kernel = case
        np.testing.assert_allclose(
            gaussian_blur(image, kernel), correlation_blur(image, kernel),
            rtol=0, atol=1e-12,
        )

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 130), kernel=st.integers(0, 150).map(lambda half: 2 * half + 1))
    def test_operator_is_the_correlation_of_the_identity_bit_for_bit(self, n, kernel):
        want = ndimage.correlate1d(np.eye(n), gaussian_kernel(kernel), axis=0, mode="reflect")
        assert transforms._blur_operator(n, kernel).tobytes() == want.tobytes()

    def test_cached_operator_is_read_only(self):
        op = transforms._blur_operator(9, 5)
        assert op is transforms._blur_operator(9, 5)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


class TestFoveate:
    def test_blend_formula(self):
        rng = np.random.default_rng(5)
        image = random_image(rng, height=9, width=9)
        mask = foveation_mask(9, 9, (4, 4), 2.0)
        blurred = gaussian_blur(image, 5)
        expected = mask[None] * image + (1 - mask[None]) * blurred
        np.testing.assert_allclose(foveate(image, 5, None, 2.0), expected, atol=1e-12)

    def test_validates_its_image_once(self, monkeypatch):
        checked = []
        check = transforms._check_image
        monkeypatch.setattr(transforms, "_check_image", lambda a: checked.append(1) or check(a))
        image = random_image(np.random.default_rng(4), height=9, width=9)
        blurred = gaussian_blur(image, 5)
        assert len(checked) == 1
        expected = foveation_mask(9, 9, (4, 4), 2.0)[None]
        expected = expected * image + (1 - expected) * blurred
        np.testing.assert_array_equal(foveate(image, 5, None, 2.0), np.clip(expected, 0.0, 1.0))
        assert len(checked) == 2
        for call in (lambda a: foveate(a, 5, None, 2.0), lambda a: gaussian_blur(a, 5)):
            with pytest.raises(ValueError, match="non-finite"):
                call(np.full((3, 9, 9), np.nan))
            with pytest.raises(ValueError, match=r"expected a \(C, H, W\) image"):
                call(np.zeros((9, 9)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.bool_])
    def test_integer_image_rejected(self, dtype):
        # 8-bit levels read as intensities would clip to white
        image = np.ones((3, 9, 9), dtype=dtype)
        for call in (lambda a: foveate(a, 5, None, 2.0), lambda a: gaussian_blur(a, 5),
                     lambda a: add_noise(a, 4.0, 0), lambda a: resample(a, 0.5, "nearest")):
            message = f"expected a float image in [0, 1], got dtype {np.dtype(dtype)}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(image)

    def test_default_center_is_midpoint(self):
        rng = np.random.default_rng(6)
        image = random_image(rng, height=8, width=6)
        np.testing.assert_array_equal(foveate(image, 3, None, 1.0), foveate(image, 3, (4, 3), 1.0))

    def test_linearity_in_image(self):
        rng = np.random.default_rng(7)
        a = 0.3 * random_image(rng)
        b = 0.3 * random_image(rng)
        lhs = foveate(a + b, 7, None, 1.5)
        rhs = foveate(a, 7, None, 1.5) + foveate(b, 7, None, 1.5)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_focus_pixel_untouched(self):
        rng = np.random.default_rng(8)
        image = random_image(rng, height=7, width=7)
        out = foveate(image, 9, None, 3.0)
        np.testing.assert_allclose(out[:, 3, 3], image[:, 3, 3], atol=1e-12)

    def test_periphery_approaches_blur(self):
        rng = np.random.default_rng(9)
        image = random_image(rng, height=11, width=11)
        out = foveate(image, 7, None, 8.0)
        blurred = gaussian_blur(image, 7)
        corner = np.abs(out[:, 0, 0] - blurred[:, 0, 0]).max()
        center = np.abs(out[:, 5, 5] - blurred[:, 5, 5]).max()
        assert corner < 2e-3 or corner < center  # corner acuity ~ exp(-8)


    def test_input_untouched(self):
        rng = np.random.default_rng(10)
        image = random_image(rng, height=12, width=10)
        copy = image.copy()
        foveate(image, 9, (3, 7), 1.5)
        np.testing.assert_array_equal(image, copy)

    def test_cached_mask_is_read_only(self):
        mask = transforms._cached_mask(8, 6, (4, 3), 1.0)
        assert mask is transforms._cached_mask(8, 6, (4, 3), 1.0)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 0.0
        np.testing.assert_array_equal(mask, foveation_mask(8, 6, (4, 3), 1.0))

    def test_center_forms_share_one_mask(self):
        # numpy integers and lists name the same center as a tuple of ints
        rng = np.random.default_rng(11)
        image = random_image(rng, height=8, width=6)
        expected = foveate(image, 3, (5, 2), 1.0)
        for center in ((np.int64(5), np.int32(2)), [5, 2]):
            out = foveate(image, 3, center, 1.0)
            np.testing.assert_array_equal(out, expected)

    def test_non_integer_center_rejected(self):
        image = np.zeros((1, 4, 4))
        with pytest.raises(TypeError):
            foveate(image, 3, (1.5, 2), 1.0)

    @pytest.mark.parametrize(
        "kernel_size, gamma, message",
        [(4, 1.0, "kernel size must be an odd integer >= 1, got 4"),
         (3, 0.0, "gamma must be positive, got 0.0"),
         (3, float("nan"), "gamma must be positive, got nan")],
    )
    def test_invalid_settings_rejected_on_every_call(self, kernel_size, gamma, message):
        image = np.zeros((1, 4, 4))
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                foveate(image, kernel_size, None, gamma)

    def test_invalid_center_not_cached(self):
        image = np.zeros((1, 4, 4))
        for _ in range(2):
            with pytest.raises(ValueError, match="outside"):
                foveate(image, 3, (4, 0), 1.0)


_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from fovalign.transforms import foveate, gaussian_blur
digest = hashlib.sha256()
rng = np.random.default_rng(0)
for height, width in ((64, 64), (80, 48)):
    image = rng.random((3, height, width))
    for k in (1, 3, 75, 149, 171):
        digest.update(gaussian_blur(image, k).tobytes())
        digest.update(foveate(image, k, None, 1.3).tobytes())
print(digest.hexdigest())
"""


def _env_with_src() -> dict:
    """The environment without a BLAS thread setting, this checkout's
    package first on the path."""
    src = str(Path(transforms.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    return base


def test_blur_bytes_do_not_depend_on_the_blas_thread_count():
    base = _env_with_src()
    digests = []
    for threads in (None, "1"):
        env = dict(base) if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env,
            capture_output=True, text=True, check=True,
        )
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_the_command_line_does_not_import_scipy_ndimage():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fovalign.cli; print('scipy.ndimage' in sys.modules)"],
        env=_env_with_src(), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


class TestAddNoise:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        image = random_image(rng)
        np.testing.assert_array_equal(add_noise(image, 10.0, 77), add_noise(image, 10.0, 77))
        assert not np.array_equal(add_noise(image, 10.0, 77), add_noise(image, 10.0, 78))

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_negative_or_nan_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"sigma must be >= 0, got {sigma}"):
            add_noise(np.zeros((1, 4, 4)), sigma, 0)

    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(11)
        image = random_image(rng)
        np.testing.assert_array_equal(add_noise(image, 0.0, 1), image)

    def test_noise_scale_is_255_relative(self):
        # on a mid-gray image with no clipping pressure, the empirical
        # std of the perturbation is sigma / 255
        image = np.full((3, 64, 64), 0.5)
        noisy = add_noise(image, 10.0, 123)
        measured = (noisy - image).std()
        np.testing.assert_allclose(measured, 10.0 / 255.0, rtol=0.05)

    def test_output_clipped(self):
        image = np.ones((1, 16, 16))
        noisy = add_noise(image, 60.0, 3)
        assert noisy.max() <= 1.0 and noisy.min() >= 0.0

    def test_matches_generator_draw(self):
        image = np.full((1, 4, 4), 0.5)
        expected = np.clip(
            image + np.random.default_rng(9).standard_normal((1, 4, 4)) * (5.0 / 255.0),
            0.0, 1.0,
        )
        np.testing.assert_array_equal(add_noise(image, 5.0, 9), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        sigma=st.floats(min_value=0.0, max_value=400.0, exclude_min=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shape=st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
    )
    def test_one_buffer_keeps_the_bits_of_two_temporaries(self, sigma, seed, shape):
        # a third of the pixels sit at 0 or 1, where the clip binds
        rng = np.random.default_rng(seed)
        image = rng.random(shape)
        image[rng.random(shape) < 1 / 6] = 0.0
        image[rng.random(shape) < 1 / 6] = 1.0
        draw = np.random.default_rng(seed).standard_normal(shape)
        expected = np.clip(image + draw * (sigma / 255.0), 0.0, 1.0)
        assert add_noise(image, sigma, seed).tobytes() == expected.tobytes()


class TestResample:
    def test_scale_one_identity(self):
        rng = np.random.default_rng(12)
        image = random_image(rng, height=6, width=9)
        for mode in ("nearest", "bilinear"):
            np.testing.assert_array_equal(resample(image, 1.0, mode), image)

    def test_constant_preserved(self):
        image = np.full((3, 16, 16), 0.77)
        for mode, scale in (("nearest", 0.25), ("bilinear", 0.5)):
            np.testing.assert_allclose(resample(image, scale, mode), image, atol=1e-12)

    def test_checkerboard_nearest_half_scale(self):
        # 2x2 checkerboard {0,1} at scale 1/2: the single source coordinate
        # is (0.5, 0.5), halves round up, so the (1, 1) corner wins
        image = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        assert transforms._nearest_index(2, 1).tolist() == [1]
        # the mosaic restores that one pixel to the whole image
        np.testing.assert_array_equal(resample(image, 0.5, "nearest"), np.zeros((1, 2, 2)))

    def test_nearest_full_enumeration_4_to_2(self):
        # sources for 4 -> 2 sit at 0.5 and 2.5; both round up:
        # floor(0.5 + 0.5) = 1, floor(2.5 + 0.5) = 3
        image = np.arange(16, dtype=np.float64).reshape(1, 4, 4) / 16.0
        assert transforms._nearest_index(4, 2).tolist() == [1, 3]
        # each restored pixel is its nearest shrunk one (2 -> 4 reads 0, 0, 1, 1)
        rows = [1, 1, 3, 3]
        expected = image[:, rows, :][:, :, rows]
        np.testing.assert_array_equal(resample(image, 0.5, "nearest"), expected)

    def test_bilinear_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        image = rng.random((2, 5, 7))
        h_out = int(np.floor(5 * 0.6))
        w_out = int(np.floor(7 * 0.6))
        out = shrink(transforms._gather_linear, image, h_out, w_out)

        def sample_axis(vec, pos):
            pos = min(max(pos, 0.0), len(vec) - 1.0)
            lo = int(np.floor(pos))
            hi = min(lo + 1, len(vec) - 1)
            frac = pos - lo
            return (1 - frac) * vec[lo] + frac * vec[hi]

        for c in range(2):
            for i in range(h_out):
                for j in range(w_out):
                    src_i = (i + 0.5) * (5 / h_out) - 0.5
                    src_j = (j + 0.5) * (7 / w_out) - 0.5
                    rows = [sample_axis(image[c, :, jj], src_i) for jj in range(7)]
                    val = sample_axis(np.asarray(rows), src_j)
                    np.testing.assert_allclose(out[c, i, j], val, atol=1e-12)

    def test_restore_returns_original_shape(self):
        rng = np.random.default_rng(14)
        image = random_image(rng, height=32, width=32)
        for mode, scale in (("bilinear", 0.5), ("nearest", 1 / 16)):
            assert resample(image, scale, mode).shape == image.shape

    def test_mosaic_has_blocky_structure(self):
        rng = np.random.default_rng(15)
        image = random_image(rng, height=32, width=32)
        mosaic = resample(image, 1 / 16, "nearest")
        # 2x2 source grid restored by nearest: 16x16 constant blocks
        assert len(np.unique(mosaic[0])) <= 4

    @given(
        height=st.integers(1, 40), width=st.integers(1, 40),
        scale=st.floats(0.01, 1.0), nearest=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_direct_two_pass_formulas_byte_for_byte(self, height, width, scale,
                                                               nearest, seed):
        # the cached tables and mosaic's composed index give the bytes of four
        # separate passes with their source coordinates computed afresh
        h_small, w_small = int(np.floor(height * scale)), int(np.floor(width * scale))
        if h_small < 1 or w_small < 1:
            return
        image = np.random.default_rng(seed).random((2, height, width))

        def direct(arr, axis, n_dst):
            n_src = arr.shape[axis]
            src = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
            if nearest:
                return np.take(arr, np.clip(np.floor(src + 0.5).astype(np.int64), 0, n_src - 1),
                               axis=axis)
            lo = np.floor(src)
            weight = (src - lo).reshape([-1, 1] if axis == 1 else [-1])
            a = np.take(arr, np.clip(lo.astype(np.int64), 0, n_src - 1), axis=axis)
            b = np.take(arr, np.clip(lo.astype(np.int64) + 1, 0, n_src - 1), axis=axis)
            return (1.0 - weight) * a + weight * b

        small = direct(direct(image, 1, h_small), 2, w_small)
        expected = direct(direct(small, 1, height), 2, width)
        out = resample(image, scale, "nearest" if nearest else "bilinear")
        assert out.tobytes() == expected.tobytes()

    @given(
        size=st.sampled_from([(64, 64), (40, 40), (20, 24), (33, 17), (7, 5)]),
        scale=st.sampled_from([0.5, 0.3, 1 / 16, 1.0]),
        channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_in_buffer_passes_equal_the_temporaries_bit_for_bit(self, size, scale, channels,
                                                                seed):
        height, width = size
        h_small, w_small = int(np.floor(height * scale)), int(np.floor(width * scale))
        if h_small < 1 or w_small < 1:
            return
        image = np.random.default_rng(seed).random((channels, height, width))
        small = shrink(temporaries_gather_linear, image, h_small, w_small)
        np.testing.assert_array_equal(
            shrink(transforms._gather_linear, image, h_small, w_small).view(np.uint64),
            small.view(np.uint64))
        want = shrink(temporaries_gather_linear, small, height, width)
        np.testing.assert_array_equal(resample(image, scale, "bilinear").view(np.uint64),
                                      want.view(np.uint64))
        # the in-place products never write into the pass's input
        before = image.copy()
        transforms._gather_linear(image, 2, w_small)
        np.testing.assert_array_equal(image, before)

    def test_cached_tables_are_read_only(self):
        tables = (transforms._nearest_index(9, 4), transforms._mosaic_index(9, 4),
                  *transforms._linear_table(9, 4))
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_degenerate_scale_rejected(self):
        rng = np.random.default_rng(16)
        image = random_image(rng, height=4, width=4)
        with pytest.raises(ValueError):
            resample(image, 0.1, "nearest")
        with pytest.raises(ValueError):
            resample(image, 1.5, "nearest")
        with pytest.raises(ValueError):
            resample(image, 0.5, "area")


@given(
    t=st.integers(min_value=-50, max_value=50),
    n=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_reflect_index_lands_inside_and_fixes_interior(t, n):
    idx = reflect_index(t, n)
    assert 0 <= idx < n
    if 0 <= t < n:
        assert idx == t


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=2, max_value=12))
@settings(max_examples=100, deadline=None)
def test_reflect_index_is_even_symmetric_about_minus_half(t, n):
    # edge-repeat reflection mirrors about the -1/2 boundary: f(-1-t) == f(t)
    assert reflect_index(-1 - t, n) == reflect_index(t, n)

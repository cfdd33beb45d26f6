"""Binary PPM (P6) export with per-image min-max normalization.  Byte-exact:
the same array always gives the same file."""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def write_ppm(path, pixels: np.ndarray) -> None:
    """pixels: (H, W, 3) uint8."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise UsageError(f"write_ppm wants (H, W, 3) uint8, got {pixels.shape} {pixels.dtype}")
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def normalize_bytes(values: np.ndarray) -> np.ndarray:
    """Min-max map to 0..255 over the whole array; constant arrays go to 0."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if hi <= lo:
        return np.zeros(values.shape, dtype=np.uint8)
    scaled = (values - lo) / (hi - lo) * 255.0
    return np.rint(scaled).astype(np.uint8)


def channels_to_rgb(image: np.ndarray) -> np.ndarray:
    """(3, H, W) real image -> (H, W, 3) uint8, one shared min-max range."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise UsageError(f"expected (3, H, W), got {image.shape}")
    return normalize_bytes(image).transpose(1, 2, 0)


def heat_to_yellow(values: np.ndarray) -> np.ndarray:
    """(H, W) map -> yellow-intensity ramp; brighter yellow means larger."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise UsageError(f"expected (H, W), got {values.shape}")
    level = normalize_bytes(values)
    out = np.zeros(values.shape + (3,), dtype=np.uint8)
    out[..., 0] = level
    out[..., 1] = level
    return out

"""Decoded raster images: 8-bit grayscale or RGB, stored as per-channel planes."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .quant import integer_array


@dataclass(frozen=True)
class RasterImage:
    """An 8-bit image held as one plane per channel.

    Planes are ``(height, width)`` uint8 arrays; ``channels`` is 1 for
    grayscale or 3 for RGB (R, G, B plane order).
    """

    width: int
    height: int
    planes: tuple = field(repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidInputError(
                f"image dimensions must be >= 1, got {self.width}x{self.height}"
            )
        if len(self.planes) not in (1, 3):
            raise InvalidInputError(
                f"images must have 1 or 3 channels, got {len(self.planes)}"
            )
        norm = []
        for plane in self.planes:
            if not (isinstance(plane, np.ndarray) and plane.dtype == np.uint8):
                plane = integer_array(plane, 0, 255, "plane samples").astype(np.uint8)
            if plane.shape != (self.height, self.width):
                raise InvalidInputError(
                    f"plane shape {plane.shape} does not match {self.height}x{self.width}"
                )
            norm.append(plane)
        object.__setattr__(self, "planes", tuple(norm))

    @property
    def channels(self):
        return len(self.planes)

    @classmethod
    def from_array(cls, arr):
        """Build from an (H, W) grayscale or (H, W, 3) RGB array."""
        arr = np.asarray(arr)
        if arr.ndim == 2:
            return cls(arr.shape[1], arr.shape[0], (arr,))
        if arr.ndim == 3 and arr.shape[2] == 3:
            planes = tuple(arr[:, :, c] for c in range(3))
            return cls(arr.shape[1], arr.shape[0], planes)
        raise InvalidInputError(f"expected (H, W) or (H, W, 3) array, got {arr.shape}")

    def to_array(self):
        """Return (H, W) for grayscale or (H, W, 3) for RGB."""
        if self.channels == 1:
            return self.planes[0].copy()
        return np.stack(self.planes, axis=-1)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and all(np.array_equal(a, b) for a, b in zip(self.planes, other.planes))
        )

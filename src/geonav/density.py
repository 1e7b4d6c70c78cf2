"""Intensity profiles on a rectangular domain.

Three parametric families are supported, all Lipschitz with a positive
infimum so the limiting flow field stays well defined:

* ``constant``: f = c
* ``affine``:   f = a + b*x + c*y
* ``bump``:     f = base + amplitude * (1 - (r/radius)^2)^2 inside a disk,
  f = base outside (a compactly supported C^1 bump)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_point


@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle must have positive width and height")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, p, inset: float = 0.0) -> bool:
        z = as_point(p)
        return (self.x0 + inset <= z.real <= self.x1 - inset
                and self.y0 + inset <= z.imag <= self.y1 - inset)

    def inset(self, a: float) -> "Rect":
        if 2.0 * a >= min(self.width, self.height):
            raise ValueError("inset too large for domain")
        return Rect(self.x0 + a, self.y0 + a, self.x1 - a, self.y1 - a)


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class DensitySpec:
    """A Lipschitz intensity profile f > 0 on a rectangle.

    ``inset_a`` defines the working inset: predictions and pair filters only
    trust trajectories staying at distance >= inset_a from the border.
    """

    kind: str
    params: tuple
    domain: Rect = UNIT_SQUARE
    inset_a: float = 0.05
    _bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("constant", "affine", "bump"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not 0.0 < self.inset_a < 0.5 * min(self.domain.width, self.domain.height):
            raise ValueError("inset_a must be positive and below half the min side")
        object.__setattr__(self, "_bounds", self._compute_bounds())
        if self.m_f <= 0.0:
            raise ValueError("density must have a positive infimum on the domain")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float, domain: Rect = UNIT_SQUARE, inset_a: float = 0.05):
        return cls("constant", (float(c),), domain, inset_a)

    @classmethod
    def affine(cls, a: float, b: float, c: float,
               domain: Rect = UNIT_SQUARE, inset_a: float = 0.05):
        return cls("affine", (float(a), float(b), float(c)), domain, inset_a)

    @classmethod
    def radial_bump(cls, center, base: float, amplitude: float, radius: float,
                    domain: Rect = UNIT_SQUARE, inset_a: float = 0.05):
        z = as_point(center)
        if radius <= 0.0:
            raise ValueError("bump radius must be > 0")
        if not (domain.x0 <= z.real - radius and z.real + radius <= domain.x1
                and domain.y0 <= z.imag - radius and z.imag + radius <= domain.y1):
            raise ValueError("bump disk must lie inside the domain")
        return cls("bump", (z.real, z.imag, float(base), float(amplitude), float(radius)),
                   domain, inset_a)

    # -- evaluation --------------------------------------------------------

    def value(self, x, y):
        """Vectorized f(x, y)."""
        if self.kind == "constant":
            (c,) = self.params
            return np.broadcast_to(np.float64(c), np.broadcast(np.asarray(x), np.asarray(y)).shape).copy()
        if self.kind == "affine":
            a, b, c = self.params
            return a + b * np.asarray(x, dtype=float) + c * np.asarray(y, dtype=float)
        cx, cy, base, amp, rad = self.params
        r2 = (np.asarray(x, dtype=float) - cx) ** 2 + (np.asarray(y, dtype=float) - cy) ** 2
        u2 = np.clip(r2 / (rad * rad), 0.0, 1.0)
        return base + amp * (1.0 - u2) ** 2

    def scalar(self):
        """f(x, y) on Python floats, equal bit for bit to
        ``float(self.value(x, y))``.

        This is the per-step rule of the Euler walks, built on each call so
        the frozen spec stays picklable and keeps its equality.  The squares
        are written ``**2`` as on numpy's 0-d path, which calls libm ``pow``:
        on some platforms that rounds differently from ``d*d`` (numpy's array
        path), so ``value`` on arrays may differ in the last bit.
        """
        if self.kind == "constant":
            c = float(self.params[0])
            return lambda x, y: c
        if self.kind == "affine":
            a, b, c = map(float, self.params)
            return lambda x, y: a + b * x + c * y
        cx, cy, base, amp, rad = map(float, self.params)
        rad2 = rad * rad

        def bump(x, y):
            # a sum of squares over rad2 > 0: only the upper clip can act
            u2 = ((x - cx) ** 2 + (y - cy) ** 2) / rad2
            if u2 > 1.0:
                u2 = 1.0
            return base + amp * (1.0 - u2) ** 2

        return bump

    def at(self, p) -> float:
        z = as_point(p)
        return self.scalar()(z.real, z.imag)

    def _compute_bounds(self):
        d = self.domain
        if self.kind == "constant":
            (c,) = self.params
            return c, c, c * d.area
        if self.kind == "affine":
            a, b, c = self.params
            corners = [a + b * x + c * y for x in (d.x0, d.x1) for y in (d.y0, d.y1)]
            integral = d.area * (a + b * 0.5 * (d.x0 + d.x1) + c * 0.5 * (d.y0 + d.y1))
            return min(corners), max(corners), integral
        cx, cy, base, amp, rad = self.params
        lo = base + min(0.0, amp)
        hi = base + max(0.0, amp)
        integral = base * d.area + amp * math.pi * rad * rad / 3.0
        return lo, hi, integral

    @property
    def m_f(self) -> float:
        """Infimum of f over the domain."""
        return self._bounds[0]

    @property
    def M_f(self) -> float:
        """Maximum of f over the domain."""
        return self._bounds[1]

    @property
    def integral(self) -> float:
        """Integral of f over the domain rectangle."""
        return self._bounds[2]

    def normalized(self) -> "DensitySpec":
        """Same profile rescaled to integrate to 1 over the domain."""
        z = self.integral
        if self.kind == "constant":
            return DensitySpec("constant", (self.params[0] / z,), self.domain, self.inset_a)
        if self.kind == "affine":
            a, b, c = self.params
            return DensitySpec("affine", (a / z, b / z, c / z), self.domain, self.inset_a)
        cx, cy, base, amp, rad = self.params
        return DensitySpec("bump", (cx, cy, base / z, amp / z, rad), self.domain, self.inset_a)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = self.domain
        return {"kind": self.kind, "params": list(self.params),
                "domain": [d.x0, d.y0, d.x1, d.y1], "inset_a": self.inset_a}

    @classmethod
    def from_dict(cls, obj: dict) -> "DensitySpec":
        x0, y0, x1, y1 = obj["domain"]
        return cls(obj["kind"], tuple(obj["params"]), Rect(x0, y0, x1, y1),
                   obj.get("inset_a", 0.05))

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
from dataclasses import dataclass, field, replace

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
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError(f"rectangle must have finite positive width and height: {self!r}")

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
        # too large an ``a`` leaves no positive width or height: Rect refuses it
        return Rect(self.x0 + a, self.y0 + a, self.x1 - a, self.y1 - a)


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


_PARAM_COUNTS = {"constant": 1, "affine": 3, "bump": 5}     # len(params) by kind


@dataclass(frozen=True)
class DensitySpec:
    """A Lipschitz intensity profile f > 0 on a rectangle.

    ``params`` is ``(c,)``, ``(a, b, c)`` or ``(cx, cy, base, amplitude,
    radius)`` by kind, all finite.  ``inset_a`` defines the working inset:
    predictions and pair filters only trust trajectories staying at distance
    >= inset_a from the border.  Every rule is checked here; the named
    constructors and ``from_dict`` only convert, with the fields' defaults.
    """

    kind: str
    params: tuple
    domain: Rect = UNIT_SQUARE
    inset_a: float = 0.05
    _bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        count = _PARAM_COUNTS.get(self.kind)
        if count is None:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if len(self.params) != count:
            raise ValueError(f"a {self.kind} density takes {count} params, got {self.params!r}")
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"params must be finite, got {self.params!r}")
        if not 0.0 < self.inset_a < 0.5 * min(self.domain.width, self.domain.height):
            raise ValueError("inset_a must be positive and below half the min side")
        if self.kind == "bump":
            cx, cy, _, _, radius = self.params
            d = self.domain
            # ``integral`` counts the whole disk's mass
            if not (radius > 0.0 and d.x0 <= cx - radius and cx + radius <= d.x1
                    and d.y0 <= cy - radius and cy + radius <= d.y1):
                raise ValueError(f"a bump needs radius > 0 and its disk inside the domain, "
                                 f"got radius {radius!r} at ({cx!r}, {cy!r})")
        object.__setattr__(self, "_bounds", self._compute_bounds())
        if self.m_f <= 0.0:
            raise ValueError("density must have a positive infimum on the domain")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float, **region) -> "DensitySpec":
        return cls("constant", (float(c),), **region)

    @classmethod
    def affine(cls, a: float, b: float, c: float, **region) -> "DensitySpec":
        return cls("affine", (float(a), float(b), float(c)), **region)

    @classmethod
    def radial_bump(cls, center, base: float, amplitude: float, radius: float,
                    **region) -> "DensitySpec":
        """A bump at ``center`` (complex or ``(x, y)``); the spec refuses a
        radius <= 0 and a disk that leaves the domain."""
        z = as_point(center)
        return cls("bump", (z.real, z.imag, float(base), float(amplitude), float(radius)),
                   **region)

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
        # a bump's centre and radius are lengths: only base and amplitude scale
        levels = range(2, 4) if self.kind == "bump" else range(len(self.params))
        return replace(self, params=tuple(p / z if i in levels else p
                                          for i, p in enumerate(self.params)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = self.domain
        return {"kind": self.kind, "params": list(self.params),
                "domain": [d.x0, d.y0, d.x1, d.y1], "inset_a": self.inset_a}

    @classmethod
    def from_dict(cls, obj: dict) -> "DensitySpec":
        """The spec of ``to_dict``'s form; ``domain`` and ``inset_a`` may be left out."""
        args = dict(obj, params=tuple(map(float, obj["params"])))
        if "domain" in obj:
            args["domain"] = Rect(*map(float, obj["domain"]))
        return cls(**args)

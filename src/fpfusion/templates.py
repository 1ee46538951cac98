"""Minutiae data model and template file I/O.

Template file format (UTF-8 text, '\\n' endings): lines starting with '#'
are comments; an optional header line ``# id=<string> [w=<int> h=<int>]``;
each data line is ``x y theta [quality]`` with x/y in decimal pixels,
theta in radians and quality in [0, 1].
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fpfusion.geometry import normalize_angle, rotate_offsets


class TemplateFormatError(ValueError):
    """Raised for malformed template files."""


@dataclass(frozen=True)
class Minutia:
    """A fingerprint minutia: position (pixels), direction and quality.

    theta is normalized into [0, 2*pi) on construction; x and y must be
    finite and quality must lie in [0, 1]. Quality is carried for I/O
    fidelity but unused by the matchers.
    """

    x: float
    y: float
    theta: float
    quality: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite minutia position ({self.x}, {self.y})")
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite minutia direction {self.theta}")
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"minutia quality {self.quality} outside [0, 1]")
        object.__setattr__(self, "theta", normalize_angle(self.theta))


@dataclass(frozen=True)
class MinutiaeTemplate:
    """An ordered, immutable collection of minutiae.

    The minutia order is the index space used by descriptor sets,
    similarity matrices and pair sets. Empty templates are legal inputs;
    matchers score them 0. Positions and directions are held as read-only
    arrays built once at construction.
    """

    id: str
    minutiae: tuple = field(default_factory=tuple)
    width: int | None = None
    height: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        xy = np.array([(m.x, m.y) for m in self.minutiae], dtype=np.float64).reshape(-1, 2)
        theta = np.array([m.theta for m in self.minutiae], dtype=np.float64)
        xy.flags.writeable = theta.flags.writeable = False
        # plain attributes, not fields: equality, hashing and repr ignore them
        object.__setattr__(self, "_xy", xy)
        object.__setattr__(self, "_theta", theta)

    def __len__(self) -> int:
        return len(self.minutiae)

    def positions(self) -> np.ndarray:
        """(n, 2) read-only array of minutia positions."""
        return self._xy

    def thetas(self) -> np.ndarray:
        """(n,) read-only array of minutia directions."""
        return self._theta


def rigid_transform(
    t: MinutiaeTemplate,
    angle: float = 0.0,
    tx: float = 0.0,
    ty: float = 0.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> MinutiaeTemplate:
    """Rotate a template by ``angle`` about ``center`` and translate it.

    Positions rotate under the y-down convention and every direction is
    shifted by ``angle`` mod 2*pi.
    """
    cx, cy = center
    out = []
    for m in t.minutiae:
        if angle == 0.0:
            # pure translation stays exact (no center round trip)
            out.append(Minutia(m.x + tx, m.y + ty, m.theta, m.quality))
            continue
        dx, dy = rotate_offsets(m.x - cx, m.y - cy, angle)
        out.append(Minutia(cx + dx + tx, cy + dy + ty, m.theta + angle, m.quality))
    return MinutiaeTemplate(t.id, tuple(out), t.width, t.height)


_HEADER_RE = re.compile(r"#\s*id=(\S+)(?:\s+w=(\d+)\s+h=(\d+))?\s*$")


def load_template(path) -> MinutiaeTemplate:
    """Parse a template file; minutiae keep file order, theta is normalized."""
    path = Path(path)
    tid = path.stem
    width = height = None
    minutiae = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = _HEADER_RE.match(line)
                if header:
                    tid = header.group(1)
                    if header.group(2) is not None:
                        width = int(header.group(2))
                        height = int(header.group(3))
                elif line[1:].lstrip().startswith("id="):
                    raise TemplateFormatError(
                        f"{path}:{lineno}: expected '# id=<string> [w=<int> h=<int>]', got {line!r}"
                    )
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise TemplateFormatError(
                    f"{path}:{lineno}: expected 'x y theta [quality]', got {line!r}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise TemplateFormatError(
                    f"{path}:{lineno}: non-numeric field in {line!r}"
                ) from None
            quality = values[3] if len(values) == 4 else 1.0
            try:
                minutiae.append(Minutia(values[0], values[1], values[2], quality))
            except ValueError as exc:
                raise TemplateFormatError(f"{path}:{lineno}: {exc}") from None
    return MinutiaeTemplate(tid, tuple(minutiae), width, height)


def save_template(t: MinutiaeTemplate, path) -> None:
    """Write a template file; load_template(save_template(t)) reproduces t
    up to 1e-6 per numeric field. The id must be non-empty and free of
    whitespace, because the header line could not hold it otherwise."""
    if not re.fullmatch(r"\S+", t.id):
        raise ValueError(f"template id {t.id!r} must be non-empty without whitespace")
    lines = []
    if t.width is not None and t.height is not None:
        lines.append(f"# id={t.id} w={t.width} h={t.height}")
    else:
        lines.append(f"# id={t.id}")
    for m in t.minutiae:
        lines.append(f"{m.x:.6f} {m.y:.6f} {m.theta:.6f} {m.quality:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

"""Seeded synthetic templates and latent-style perturbed queries.

Finger generation rejection-samples spaced minutia positions and draws
directions from a smooth random orientation field. Perturbation emulates
latent degradation at rigid+noise fidelity: circular crop, subsampling,
rigid transform, per-minutia jitter and spurious minutiae.
"""

from __future__ import annotations

import csv
import errno
import math
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from fpfusion.geometry import TWO_PI
from fpfusion.templates import Minutia, MinutiaeTemplate, rigid_transform, save_template


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_fingers: int = 1
    min_minutiae: int = 30
    max_minutiae: int = 60
    extent: tuple[float, float] = (500.0, 500.0)
    min_spacing: float = 12.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_fingers < 1 or not 1 <= self.min_minutiae <= self.max_minutiae:
            raise ValueError("n_fingers >= 1 and 1 <= min_minutiae <= max_minutiae required")
        if not (math.isfinite(self.min_spacing) and self.min_spacing >= 0):
            raise ValueError("min_spacing must be finite and non-negative")


@dataclass(frozen=True)
class PerturbConfig:
    rotation_max: float = math.pi / 6
    translation_max: float = 50.0
    position_jitter: float = 4.0
    angle_jitter: float = 0.087
    keep_min: float = 0.4
    keep_max: float = 0.8
    spurious_mean: float = 3.0
    crop_radius_min: float = 120.0
    crop_radius_max: float = 250.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if min(self.rotation_max, self.translation_max) < 0:
            raise ValueError("rotation_max and translation_max must be non-negative")
        if not 0 <= self.crop_radius_min <= self.crop_radius_max:
            raise ValueError("crop radii need 0 <= crop_radius_min <= crop_radius_max")
        if not 0 < self.keep_min <= self.keep_max <= 1:
            raise ValueError("keep fractions need 0 < keep_min <= keep_max <= 1")
        if min(self.position_jitter, self.angle_jitter, self.spurious_mean) < 0:
            raise ValueError(
                "position_jitter, angle_jitter and spurious_mean must be non-negative"
            )


def finger_rng(cfg: SynthConfig, index: int) -> np.random.Generator:
    """Independent per-finger stream; parallel generation stays deterministic."""
    return np.random.default_rng([cfg.seed, index])


def _orientation_field(rng: np.random.Generator, extent):
    """Smooth random direction field: a few sinusoidal basis waves."""
    n_basis = int(rng.integers(2, 5))
    base = rng.uniform(0.0, TWO_PI)
    amp = rng.uniform(0.5, 1.5, size=n_basis)
    freq = rng.uniform(0.5, 2.0, size=(n_basis, 2))
    phase = rng.uniform(0.0, TWO_PI, size=n_basis)
    w, h = extent

    def field(x: float, y: float) -> float:
        arg = TWO_PI * (freq[:, 0] * x / w + freq[:, 1] * y / h) + phase
        return base + float((amp * np.sin(arg)).sum())

    return field


def generate_finger(
    rng: np.random.Generator, cfg: SynthConfig, finger_id: str = "finger"
) -> MinutiaeTemplate:
    """One spaced random template; count drawn from the configured range."""
    target = int(rng.integers(cfg.min_minutiae, cfg.max_minutiae + 1))
    field = _orientation_field(rng, cfg.extent)
    w, h = cfg.extent
    positions: list[tuple[float, float]] = []
    rejections = 0
    while len(positions) < target and rejections < 10_000:
        x = float(rng.uniform(0.0, w))
        y = float(rng.uniform(0.0, h))
        if all(math.hypot(x - px, y - py) >= cfg.min_spacing for px, py in positions):
            positions.append((x, y))
        else:
            rejections += 1
    if len(positions) < target:
        warnings.warn(
            f"{finger_id}: spacing unsatisfiable, generated {len(positions)}/{target} minutiae"
        )
    minutiae = tuple(
        Minutia(x, y, field(x, y) + float(rng.uniform(-0.3, 0.3)))
        for x, y in positions
    )
    return MinutiaeTemplate(finger_id, minutiae, int(w), int(h))


def perturb_to_latent(
    t: MinutiaeTemplate,
    rng: np.random.Generator,
    cfg: PerturbConfig | None = None,
    query_id: str | None = None,
) -> tuple[MinutiaeTemplate, list[int]]:
    """Latent-style degraded copy plus ground-truth correspondence indices.

    Returns (template, correspondences) where correspondences[j] is the
    index of output minutia j in the source template, or -1 for spurious
    minutiae. The crop is drawn up to five times until it holds a minutia;
    if none does, the query holds no genuine minutia, only spurious ones.
    """
    if len(t) == 0:
        raise ValueError("cannot perturb an empty template")
    cfg = cfg or PerturbConfig()
    positions = t.positions()
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)

    for _ in range(5):
        center = rng.uniform(lo, hi)
        radius = float(rng.uniform(cfg.crop_radius_min, cfg.crop_radius_max))
        kept_idx = np.flatnonzero(np.hypot(*(positions - center).T) <= radius)
        if len(kept_idx):
            break

    frac = float(rng.uniform(cfg.keep_min, cfg.keep_max))
    n_keep = max(1, round(frac * len(kept_idx)))
    if n_keep < len(kept_idx):
        kept_idx = np.sort(rng.choice(kept_idx, size=n_keep, replace=False))

    angle = float(rng.uniform(-cfg.rotation_max, cfg.rotation_max))
    tx = float(rng.uniform(-cfg.translation_max, cfg.translation_max))
    ty = float(rng.uniform(-cfg.translation_max, cfg.translation_max))
    kept = MinutiaeTemplate(t.id, tuple(t.minutiae[i] for i in kept_idx), t.width, t.height)
    moved = rigid_transform(kept, angle, tx, ty, center=(float(center[0]), float(center[1])))

    out = []
    correspondences = []
    for j, m in enumerate(moved.minutiae):
        out.append(
            Minutia(
                m.x + float(rng.normal(0.0, cfg.position_jitter)) if cfg.position_jitter else m.x,
                m.y + float(rng.normal(0.0, cfg.position_jitter)) if cfg.position_jitter else m.y,
                m.theta + (float(rng.normal(0.0, cfg.angle_jitter)) if cfg.angle_jitter else 0.0),
                m.quality,
            )
        )
        correspondences.append(int(kept_idx[j]))

    # Spurious minutiae land uniformly inside the transformed crop circle.
    n_spurious = int(rng.poisson(cfg.spurious_mean)) if cfg.spurious_mean > 0 else 0
    ccx, ccy = float(center[0]) + tx, float(center[1]) + ty
    for _ in range(n_spurious):
        rho = radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
        phi = float(rng.uniform(0.0, TWO_PI))
        out.append(Minutia(ccx + rho * math.cos(phi), ccy + rho * math.sin(phi), float(rng.uniform(0.0, TWO_PI))))
        correspondences.append(-1)

    qid = query_id if query_id is not None else f"{t.id}_latent"
    return MinutiaeTemplate(qid, tuple(out), t.width, t.height), correspondences


def generate_gallery(cfg: SynthConfig) -> list[MinutiaeTemplate]:
    """n_fingers templates with ids f0000, f0001, ..."""
    return [
        generate_finger(finger_rng(cfg, i), cfg, finger_id=f"f{i:04d}")
        for i in range(cfg.n_fingers)
    ]


def write_dataset(
    out_dir, cfg: SynthConfig, perturb_cfg: PerturbConfig | None = None
) -> tuple[list[MinutiaeTemplate], list[MinutiaeTemplate], dict[str, str]]:
    """Emit gallery/<id>.mnt, queries/<id>.mnt and truth.csv under out_dir.
    Before any file is written, a ``.mnt`` file there that this dataset would
    not write (say, of a larger one) raises ``ValueError``, and a directory
    where it would write a file raises ``IsADirectoryError``."""
    perturb_cfg = perturb_cfg or PerturbConfig()
    out_dir = Path(out_dir)
    targets = [out_dir / "truth.csv"]
    for sub, prefix in (("gallery", "f"), ("queries", "q")):
        ours = {f"{prefix}{i:04d}.mnt" for i in range(cfg.n_fingers)}
        for path in sorted((out_dir / sub).glob("*.mnt")):
            if path.name not in ours:
                raise ValueError(f"{path}: not part of this dataset; write to another directory")
            targets.append(path)
    for path in targets:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    (out_dir / "gallery").mkdir(parents=True, exist_ok=True)
    (out_dir / "queries").mkdir(parents=True, exist_ok=True)
    gallery = generate_gallery(cfg)
    queries = []
    truth: dict[str, str] = {}
    for i, t in enumerate(gallery):
        save_template(t, out_dir / "gallery" / f"{t.id}.mnt")
        rng = np.random.default_rng([cfg.seed, i, 1])
        query, _ = perturb_to_latent(t, rng, perturb_cfg, query_id=f"q{i:04d}")
        queries.append(query)
        save_template(query, out_dir / "queries" / f"{query.id}.mnt")
        truth[query.id] = t.id
    with open(out_dir / "truth.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["query_id", "mate_id"])
        for qid in sorted(truth):
            writer.writerow([qid, truth[qid]])
    return gallery, queries, truth

"""Command-line frontend: match, identify, benchmark, gen-synth, describe, embed-synth.

Configuration precedence is flags > config file > defaults. A command takes
the flags of the config sections it reads; the key=value config file (``#``
comments allowed) may set any known key. Exit codes: 0 success, 1 usage
error (``UsageError``), 2 data error (any ``OSError`` or ``ValueError``,
such as a malformed file or a path that cannot be read or written).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

from fpfusion.embedding import (
    EmbeddingConfig,
    build_synthetic_embeddings,
    load_embeddings,
    save_embeddings,
)
from fpfusion.evaluation import Gallery, cmc, fuse_ranks, identify_all, write_cmc, write_results
from fpfusion.fusion import CHANNELS, FusionConfig, match_gallery
from fpfusion.mcc import CylinderConfig, build_mcc_set
from fpfusion.synthetic import PerturbConfig, SynthConfig, write_dataset
from fpfusion.templates import load_template

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Union of every stage's parameters, as one flat key space."""

    cylinder: CylinderConfig = field(default_factory=CylinderConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    perturb: PerturbConfig = field(default_factory=PerturbConfig)


# config-file key -> (sub-config attribute, field name, type)
CONFIG_KEYS = {
    "cyl_radius": ("cylinder", "radius", float),
    "cyl_grid": ("cylinder", "grid", int),
    "cyl_sections": ("cylinder", "sections", int),
    "cyl_sigma_spatial": ("cylinder", "sigma_spatial", float),
    "cyl_sigma_direction": ("cylinder", "sigma_direction", float),
    "cyl_min_neighbors": ("cylinder", "min_neighbors", int),
    "emb_dim": ("embedding", "dim", int),
    "emb_radius": ("embedding", "synth_radius", float),
    "emb_radial_bins": ("embedding", "radial_bins", int),
    "emb_angular_bins": ("embedding", "angular_bins", int),
    "emb_direction_bins": ("embedding", "direction_bins", int),
    "w1": ("fusion", "w1", float),
    "w2": ("fusion", "w2", float),
    "delta_theta": ("fusion", "delta_theta", float),
    "w_r": ("fusion.relaxation", "weight", float),
    "n_rel": ("fusion.relaxation", "iterations", int),
    "dist_scale": ("fusion.relaxation", "distance_scale", float),
    "seed": ("synth", "seed", int),
    "n_fingers": ("synth", "n_fingers", int),
    "min_minutiae": ("synth", "min_minutiae", int),
    "max_minutiae": ("synth", "max_minutiae", int),
    "min_spacing": ("synth", "min_spacing", float),
    "rotation_max": ("perturb", "rotation_max", float),
    "translation_max": ("perturb", "translation_max", float),
    "position_jitter": ("perturb", "position_jitter", float),
    "angle_jitter": ("perturb", "angle_jitter", float),
    "keep_min": ("perturb", "keep_min", float),
    "keep_max": ("perturb", "keep_max", float),
    "spurious_mean": ("perturb", "spurious_mean", float),
    "crop_radius_min": ("perturb", "crop_radius_min", float),
    "crop_radius_max": ("perturb", "crop_radius_max", float),
}


class UsageError(Exception):
    """A command-line flag value that a configuration rejects (exit 1)."""


def _section(cfg, path: str):
    """The sub-config at a dotted attribute path such as ``fusion.relaxation``."""
    return reduce(getattr, path.split("."), cfg)


def _rebuilt(cfg, path: str, **changes):
    """``cfg`` with the sub-config at a dotted attribute path rebuilt with ``changes``."""
    parent, _, name = path.rpartition(".")
    value = replace(_section(cfg, path), **changes)
    return _rebuilt(cfg, parent, **{name: value}) if parent else replace(cfg, **{name: value})


def _apply(cfg: PipelineConfig, pairs: dict[str, str], reject) -> PipelineConfig:
    """Set config keys from text values, building each section they touch once.

    All keys are parsed before any section is built, so a valid combination
    passes in any key order. A section its constructor rejects raises
    ``reject(key, exc)`` under the last key that set it.
    """
    changes: dict[str, dict] = {}
    last: dict[str, str] = {}
    for key, raw in pairs.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        path, attr, cast = CONFIG_KEYS[key]
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"config key {key}: cannot parse {raw!r} as {cast.__name__}")
        changes.setdefault(path, {})[attr] = value
        last[path] = key
    for path, fields in changes.items():
        try:
            cfg = _rebuilt(cfg, path, **fields)
        except ValueError as exc:
            raise reject(last[path], exc) from exc
    return cfg


def load_config_file(path) -> dict[str, str]:
    pairs, first = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first:
            raise ValueError(f"{path}:{lineno}: key {key} repeats line {first[key]}")
        first[key] = lineno
        pairs[key] = value.strip()
    return pairs


def build_pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        pairs = load_config_file(args.config)
        cfg = _apply(cfg, pairs, lambda k, exc: ValueError(f"config key {k}={pairs[k]}: {exc}"))
    # flags override the file; a rejected value is reported under the flag's name
    flags = {k: str(getattr(args, k)) for k in CONFIG_KEYS if getattr(args, k, None) is not None}
    return _apply(
        cfg, flags, lambda k, exc: UsageError(f"--{k.replace('_', '-')} {flags[k]}: {exc}")
    )


def _config_epilog() -> str:
    lines = ["config file keys (key=value, one per line; flags override):"]
    defaults = PipelineConfig()
    for key, (path, attr, _) in CONFIG_KEYS.items():
        lines.append(f"  {key} (default {getattr(_section(defaults, path), attr)})")
    return "\n".join(lines)


# Tuning flags, each setting the config key of its name.
_FLAG_HELP = {
    "seed": "RNG seed for synthetic data",
    "w1": "cylinder-channel weight in score fusion",
    "w2": "embedding-channel weight in score fusion",
    "delta_theta": "angle gate (radians)",
    "n_rel": "relaxation iterations",
    "w_r": "relaxation mixing weight",
    "n_fingers": "synthetic gallery size",
}


def _add_config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """``--config`` plus the tuning flags of the named config sections."""
    p.add_argument("--config", help="key=value config file")
    for key, help_text in _FLAG_HELP.items():
        path, _, cast = CONFIG_KEYS[key]
        if path.partition(".")[0] in sections:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast, help=help_text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpfusion",
        description="Fingerprint identification by fused local-descriptor matching",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="score one template pair")
    p.add_argument("template_a")
    p.add_argument("template_b")
    p.add_argument("--matcher", choices=CHANNELS, default="feature")
    p.add_argument("--emb-a", help="embedding file for template A (default: synthetic)")
    p.add_argument("--emb-b", help="embedding file for template B (default: synthetic)")
    _add_config_flags(p, "fusion")

    p = sub.add_parser("identify", help="rank a gallery directory for one query")
    p.add_argument("query")
    p.add_argument("gallery_dir")
    p.add_argument("--matcher", choices=CHANNELS, default="feature")
    p.add_argument("--mate", help="true mate id; prints its rank")
    p.add_argument("--out", help="results CSV path")
    _add_config_flags(p, "fusion")

    p = sub.add_parser("benchmark", help="seeded synthetic identification benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k-max", type=_positive_int, default=10, help="CMC depth (at least 1)")
    _add_config_flags(p, "fusion", "synth")

    p = sub.add_parser("gen-synth", help="emit a synthetic gallery+queries dataset")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p, "synth")

    p = sub.add_parser("describe", help="dump descriptors of a template as CSV")
    p.add_argument("template")
    p.add_argument("--what", choices=("mcc", "emb"), default="mcc")
    p.add_argument("--out", help="CSV path (default: stdout)")
    _add_config_flags(p)

    p = sub.add_parser("embed-synth", help="write synthetic embeddings as a binary file")
    p.add_argument("template")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    return parser


def _check_output(path) -> None:
    """Raise, before any work, the error that writing ``path`` would raise
    when it is a directory or its parent is not one."""
    path = Path(path)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def cmd_match(args, cfg: PipelineConfig) -> int:
    gallery = Gallery(cfg.cylinder, cfg.embedding)
    ta, tb = load_template(args.template_a), load_template(args.template_b)
    query, entry = (
        gallery.prepare_query(t, load_embeddings(path, len(t)) if path else None)
        for t, path in ((ta, args.emb_a), (tb, args.emb_b))
    )
    scores, raw, used = match_gallery(query, [entry], cfg.fusion)
    k = CHANNELS.index(args.matcher)
    print(f"score={scores[k, 0]:.6f} raw_sum={raw[k, 0]:.6f} pairs={used[k, 0]}")
    return EXIT_OK


def cmd_identify(args, cfg: PipelineConfig) -> int:
    if args.out:
        _check_output(args.out)
    paths = sorted(Path(args.gallery_dir).glob("*.mnt"))
    if not paths:
        raise ValueError(f"no *.mnt templates in {args.gallery_dir}")
    gallery = Gallery(cfg.cylinder, cfg.embedding)
    enrolled = {}
    for path in paths:
        t = load_template(path)
        if t.id in enrolled:
            raise ValueError(f"{path}: template id {t.id!r} already enrolled from {enrolled[t.id]}")
        gallery.enroll(t)
        enrolled[t.id] = path
    if args.mate is not None and args.mate not in enrolled:
        raise ValueError(f"mate id {args.mate!r} is not in the gallery")
    query = gallery.prepare_query(load_template(args.query))
    result = identify_all(gallery, query, cfg.fusion, mate_id=args.mate)[args.matcher]
    if args.out:
        write_results([result], args.out)
    if args.mate:
        print(f"rank_of_mate={result.rank_of_mate}")
    top_id, top_score = result.candidates[0]
    print(f"top={top_id} score={top_score:.6f}")
    return EXIT_OK


def cmd_benchmark(args, cfg: PipelineConfig) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [f"results_{ch}.csv" for ch in CHANNELS]
    outputs += [f"cmc_{name}.csv" for name in (*CHANNELS, "rank")] + ["summary.csv"]
    for name in outputs:
        _check_output(out_dir / name)
    gallery_templates, queries, truth = write_dataset(out_dir / "data", cfg.synth, cfg.perturb)

    gallery = Gallery(cfg.cylinder, cfg.embedding)
    for t in gallery_templates:
        gallery.enroll(t)

    results = [
        identify_all(gallery, gallery.prepare_query(q), cfg.fusion, mate_id=truth[q.id])
        for q in queries
    ]
    per_channel = {ch: [r[ch] for r in results] for ch in CHANNELS}

    k_max = min(args.k_max, len(gallery))
    curves = {ch: cmc(per_channel[ch], k_max) for ch in CHANNELS}
    curves["rank"] = cmc(fuse_ranks(per_channel["mcc"], per_channel["emb"]), k_max)

    for ch in CHANNELS:
        write_results(per_channel[ch], out_dir / f"results_{ch}.csv")
    for name, curve in curves.items():
        write_cmc(curve, out_dir / f"cmc_{name}.csv")

    lines = ["matcher,rank1,rank5,rank10"]
    for name, curve in curves.items():
        lines.append(",".join([name] + [f"{curve[min(k, k_max)]:.6f}" for k in (1, 5, 10)]))
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.csv").write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    return EXIT_OK


def cmd_gen_synth(args, cfg: PipelineConfig) -> int:
    write_dataset(args.out, cfg.synth, cfg.perturb)
    print(f"wrote {cfg.synth.n_fingers} fingers to {args.out}")
    return EXIT_OK


def cmd_describe(args, cfg: PipelineConfig) -> int:
    t = load_template(args.template)
    d = (
        build_mcc_set(t, cfg.cylinder)
        if args.what == "mcc"
        else build_synthetic_embeddings(t, cfg.embedding)
    )
    rows = [["minutia", "valid"] + [f"v{i}" for i in range(d.dim)]]
    for i in range(len(d)):
        rows.append([str(i), str(int(d.valid[i]))] + [f"{v:.6f}" for v in d.vectors[i]])
    text = "\n".join(",".join(row) for row in rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_embed_synth(args, cfg: PipelineConfig) -> int:
    t = load_template(args.template)
    save_embeddings(build_synthetic_embeddings(t, cfg.embedding), args.out)
    print(f"wrote {len(t)} embeddings to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "match": cmd_match,
    "identify": cmd_identify,
    "benchmark": cmd_benchmark,
    "gen-synth": cmd_gen_synth,
    "describe": cmd_describe,
    "embed-synth": cmd_embed_synth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, build_pipeline_config(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

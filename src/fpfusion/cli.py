"""Command-line frontend: match, identify, benchmark, gen-synth, describe, embed-synth.

Configuration precedence is flags > config file > defaults. The config
file is key=value text (``#`` comments allowed); unknown keys are
rejected. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from fpfusion.embedding import (
    EmbeddingConfig,
    EmbeddingFormatError,
    build_synthetic_embeddings,
    load_embeddings,
    save_embeddings,
)
from fpfusion.evaluation import Gallery, cmc, fuse_ranks, identify_all, write_cmc, write_results
from fpfusion.fusion import CHANNELS, FusionConfig, match_all_channels
from fpfusion.mcc import CylinderConfig, build_mcc_set
from fpfusion.synthetic import PerturbConfig, SynthConfig, write_dataset
from fpfusion.templates import TemplateFormatError, load_template

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


class ConfigError(ValueError):
    pass


class UsageError(Exception):
    """A command-line flag value that a configuration rejects (exit 1)."""


def _apply_key(cfg: PipelineConfig, key: str, raw: str) -> PipelineConfig:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    target, attr, cast = CONFIG_KEYS[key]
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {cast.__name__}")
    try:
        if target == "fusion.relaxation":
            relaxation = replace(cfg.fusion.relaxation, **{attr: value})
            return replace(cfg, fusion=replace(cfg.fusion, relaxation=relaxation))
        return replace(cfg, **{target: replace(getattr(cfg, target), **{attr: value})})
    except ValueError as exc:
        raise ConfigError(f"config key {key}={raw}: {exc}") from exc


def load_config_file(path) -> dict[str, str]:
    pairs = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def build_pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            cfg = _apply_key(cfg, key, value)
    # flags override the file
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            try:
                cfg = _apply_key(cfg, key, str(flag))
            except ConfigError as exc:
                # the constructor's own message, under the flag's name
                raise UsageError(f"--{key.replace('_', '-')} {flag}: {exc.__cause__}") from None
    return cfg


def _config_epilog() -> str:
    lines = ["config file keys (key=value, one per line; flags override):"]
    defaults = PipelineConfig()
    for key, (target, attr, _) in CONFIG_KEYS.items():
        if target == "fusion.relaxation":
            value = getattr(defaults.fusion.relaxation, attr)
        else:
            value = getattr(getattr(defaults, target), attr)
        lines.append(f"  {key} (default {value})")
    return "\n".join(lines)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="RNG seed for synthetic data")
    p.add_argument("--w1", type=float, help="cylinder-channel weight in score fusion")
    p.add_argument("--w2", type=float, help="embedding-channel weight in score fusion")
    p.add_argument("--delta-theta", dest="delta_theta", type=float, help="angle gate (radians)")
    p.add_argument("--n-rel", dest="n_rel", type=int, help="relaxation iterations")
    p.add_argument("--w-r", dest="w_r", type=float, help="relaxation mixing weight")
    p.add_argument("--n-fingers", dest="n_fingers", type=int, help="synthetic gallery size")


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
    _add_common_flags(p)

    p = sub.add_parser("identify", help="rank a gallery directory for one query")
    p.add_argument("query")
    p.add_argument("gallery_dir")
    p.add_argument("--matcher", choices=CHANNELS, default="feature")
    p.add_argument("--mate", help="true mate id; prints its rank")
    p.add_argument("--out", help="results CSV path")
    _add_common_flags(p)

    p = sub.add_parser("benchmark", help="seeded synthetic identification benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k-max", type=int, default=10, help="CMC depth")
    _add_common_flags(p)

    p = sub.add_parser("gen-synth", help="emit a synthetic gallery+queries dataset")
    p.add_argument("--out", required=True, help="output directory")
    _add_common_flags(p)

    p = sub.add_parser("describe", help="dump descriptors of a template as CSV")
    p.add_argument("template")
    p.add_argument("--what", choices=("mcc", "emb"), default="mcc")
    p.add_argument("--out", help="CSV path (default: stdout)")
    _add_common_flags(p)

    p = sub.add_parser("embed-synth", help="write synthetic embeddings as a binary file")
    p.add_argument("template")
    p.add_argument("--out", required=True)
    _add_common_flags(p)
    return parser


def _load_pair_inputs(args, cfg: PipelineConfig):
    ta = load_template(args.template_a)
    tb = load_template(args.template_b)
    mcc_a = build_mcc_set(ta, cfg.cylinder)
    mcc_b = build_mcc_set(tb, cfg.cylinder)
    emb_a = (
        load_embeddings(args.emb_a, len(ta), ta.id)
        if getattr(args, "emb_a", None)
        else build_synthetic_embeddings(ta, cfg.embedding)
    )
    emb_b = (
        load_embeddings(args.emb_b, len(tb), tb.id)
        if getattr(args, "emb_b", None)
        else build_synthetic_embeddings(tb, cfg.embedding)
    )
    return ta, tb, mcc_a, mcc_b, emb_a, emb_b


def cmd_match(args) -> int:
    cfg = build_pipeline_config(args)
    result = match_all_channels(*_load_pair_inputs(args, cfg), cfg.fusion)[args.matcher]
    print(f"score={result.score:.6f} raw_sum={result.raw_sum:.6f} pairs={result.n_pairs_used}")
    return EXIT_OK


def _load_gallery(gallery_dir, cfg: PipelineConfig) -> Gallery:
    gallery = Gallery(cfg.cylinder, cfg.embedding)
    paths = sorted(Path(gallery_dir).glob("*.mnt"))
    if not paths:
        raise ConfigError(f"no *.mnt templates in {gallery_dir}")
    for path in paths:
        gallery.enroll(load_template(path))
    return gallery


def cmd_identify(args) -> int:
    cfg = build_pipeline_config(args)
    gallery = _load_gallery(args.gallery_dir, cfg)
    query = gallery.prepare_query(load_template(args.query))
    result = identify_all(gallery, query, cfg.fusion, mate_id=args.mate)[args.matcher]
    if args.out:
        write_results([result], args.out)
    if args.mate:
        print(f"rank_of_mate={result.rank_of_mate}")
    top_id, top_score = result.candidates[0]
    print(f"top={top_id} score={top_score:.6f}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = build_pipeline_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    gallery_templates, queries, truth = write_dataset(out_dir / "data", cfg.synth, cfg.perturb)

    gallery = Gallery(cfg.cylinder, cfg.embedding)
    for t in gallery_templates:
        gallery.enroll(t)

    per_channel: dict[str, list] = {ch: [] for ch in CHANNELS}
    for query in queries:
        entry = gallery.prepare_query(query)
        results = identify_all(gallery, entry, cfg.fusion, mate_id=truth[query.id])
        for ch in CHANNELS:
            per_channel[ch].append(results[ch])

    k_max = min(args.k_max, len(gallery))
    curves = {ch: cmc(per_channel[ch], k_max) for ch in CHANNELS}
    curves["rank"] = cmc(fuse_ranks(per_channel["mcc"], per_channel["emb"]), k_max)

    for ch in CHANNELS:
        write_results(per_channel[ch], out_dir / f"results_{ch}.csv")
    for name, curve in curves.items():
        write_cmc(curve, out_dir / f"cmc_{name}.csv")

    lines = ["matcher,rank1,rank5,rank10"]
    for name in (*CHANNELS, "rank"):
        curve = curves[name]
        r1 = curve[1]
        r5 = curve[min(5, k_max)]
        r10 = curve[min(10, k_max)]
        lines.append(f"{name},{r1:.6f},{r5:.6f},{r10:.6f}")
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.csv").write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    return EXIT_OK


def cmd_gen_synth(args) -> int:
    cfg = build_pipeline_config(args)
    write_dataset(args.out, cfg.synth, cfg.perturb)
    print(f"wrote {cfg.synth.n_fingers} fingers to {args.out}")
    return EXIT_OK


def cmd_describe(args) -> int:
    cfg = build_pipeline_config(args)
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


def cmd_embed_synth(args) -> int:
    cfg = build_pipeline_config(args)
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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ConfigError,
        TemplateFormatError,
        EmbeddingFormatError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

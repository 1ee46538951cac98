"""Command-line frontend: match, identify, benchmark, gen-synth, describe, embed-synth.

Four values are settable, each by the flag of its name on the commands that
read it: ``--w1``, ``--delta-theta``, ``--seed`` and ``--n-fingers``; the
first rejected flag, in that order, is named. Exit codes: 0 success, 1 usage
error (an argument argparse rejects, or a ``UsageError``), 2 data error (any
``OSError`` or ``ValueError``, such as a malformed file or a path that cannot
be read or written). Every error prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

from fpfusion.embedding import build_synthetic_embeddings, load_embeddings, save_embeddings
from fpfusion.evaluation import (
    CmcCurve,
    Gallery,
    cmc,
    fuse_ranks,
    identify_all,
    write_cmc,
    write_results,
)
from fpfusion.fusion import CHANNELS, FusionConfig, match_gallery
from fpfusion.mcc import build_mcc_set
from fpfusion.synthetic import SynthConfig, write_dataset
from fpfusion.templates import load_template

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


@dataclass(frozen=True)
class PipelineConfig:
    """The sections that the tuning flags set."""

    fusion: FusionConfig = field(default_factory=FusionConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)


# tuning flag --<key with dashes> -> (section, type, help); each key names its field
TUNING_FLAGS = {
    "w1": ("fusion", float, "cylinder-channel weight in score fusion, in [0, 1]"),
    "delta_theta": ("fusion", float, "angle gate (radians)"),
    "seed": ("synth", int, "non-negative RNG seed for synthetic data"),
    "n_fingers": ("synth", int, "synthetic gallery size"),
}


class UsageError(Exception):
    """A command-line flag value that a configuration rejects (exit 1)."""


def build_pipeline_config(args) -> PipelineConfig:
    """The defaults with each given tuning flag set in turn; the first value
    that its section rejects raises ``UsageError`` naming the flag."""
    cfg = PipelineConfig()
    for key, (path, _, _) in TUNING_FLAGS.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        try:
            cfg = replace(cfg, **{path: replace(getattr(cfg, path), **{key: value})})
        except ValueError as exc:
            raise UsageError(f"--{key.replace('_', '-')} {value}: {exc}") from exc
    return cfg


def _add_tuning_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """The tuning flags of the named sections, each with its default."""
    defaults = PipelineConfig()
    for key, (path, cast, help_text) in TUNING_FLAGS.items():
        if path in sections:
            help_text += f" (default {getattr(getattr(defaults, path), key)})"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast, help=help_text)


class _Parser(argparse.ArgumentParser):
    """Prints a rejected argument as one ``error:`` line, as every other error is."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpfusion",
        description="Fingerprint identification by fused local-descriptor matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="score one template pair")
    p.add_argument("template_a")
    p.add_argument("template_b")
    p.add_argument("--matcher", choices=CHANNELS, default="feature")
    p.add_argument("--emb-a", help="embedding file for template A (default: synthetic)")
    p.add_argument("--emb-b", help="embedding file for template B (default: synthetic)")
    _add_tuning_flags(p, "fusion")

    p = sub.add_parser("identify", help="rank a gallery directory for one query")
    p.add_argument("query")
    p.add_argument("gallery_dir")
    p.add_argument("--matcher", choices=CHANNELS, default="feature")
    p.add_argument("--mate", help="true mate id; prints its rank")
    p.add_argument("--out", help="results CSV path")
    _add_tuning_flags(p, "fusion")

    p = sub.add_parser("benchmark", help="seeded synthetic identification benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k-max", type=_positive_int, default=10, help="CMC depth (at least 1)")
    _add_tuning_flags(p, "fusion", "synth")

    p = sub.add_parser("gen-synth", help="emit a synthetic gallery+queries dataset")
    p.add_argument("--out", required=True, help="output directory")
    _add_tuning_flags(p, "synth")

    p = sub.add_parser("describe", help="dump descriptors of a template as CSV")
    p.add_argument("template")
    p.add_argument("--what", choices=("mcc", "emb"), default="mcc")
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("embed-synth", help="write synthetic embeddings as a binary file")
    p.add_argument("template")
    p.add_argument("--out", required=True)
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
    gallery = Gallery()
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
    gallery = Gallery()
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
    gallery_templates, queries, truth = write_dataset(out_dir / "data", cfg.synth)

    gallery = Gallery()
    for t in gallery_templates:
        gallery.enroll(t)

    results = [
        identify_all(gallery, gallery.prepare_query(q), cfg.fusion, mate_id=truth[q.id])
        for q in queries
    ]
    per_channel = {ch: [r[ch] for r in results] for ch in CHANNELS}

    # --k-max sets the depth of the CMC files only; the summary's ranks 5
    # and 10 come from curves at least that deep (the gallery's size if less)
    k_max = min(args.k_max, len(gallery))
    depth = max(k_max, min(10, len(gallery)))
    curves = {ch: cmc(per_channel[ch], depth) for ch in CHANNELS}
    curves["rank"] = cmc(fuse_ranks(per_channel["mcc"], per_channel["emb"]), depth)

    for ch in CHANNELS:
        write_results(per_channel[ch], out_dir / f"results_{ch}.csv")
    for name, curve in curves.items():
        write_cmc(CmcCurve(curve.accuracies[:k_max]), out_dir / f"cmc_{name}.csv")

    lines = ["matcher,rank1,rank5,rank10"]
    for name, curve in curves.items():
        lines.append(",".join([name] + [f"{curve[min(k, depth)]:.6f}" for k in (1, 5, 10)]))
    summary = "\n".join(lines) + "\n"
    (out_dir / "summary.csv").write_text(summary, encoding="utf-8", newline="\n")
    print(summary, end="")
    return EXIT_OK


def cmd_gen_synth(args, cfg: PipelineConfig) -> int:
    write_dataset(args.out, cfg.synth)
    print(f"wrote {cfg.synth.n_fingers} fingers to {args.out}")
    return EXIT_OK


def cmd_describe(args, cfg: PipelineConfig) -> int:
    t = load_template(args.template)
    d = build_mcc_set(t) if args.what == "mcc" else build_synthetic_embeddings(t)
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
    save_embeddings(build_synthetic_embeddings(t), args.out)
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


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # a warning the filters let through prints as one line; the filters
    # themselves, and so which warnings show or raise, are left as they are
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
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

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpfusion
from fpfusion.cli import (
    CONFIG_KEYS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    PipelineConfig,
    _build_parser,
    build_pipeline_config,
    main,
)
from fpfusion.mcc import CylinderConfig
from fpfusion.synthetic import SynthConfig, finger_rng, generate_finger
from fpfusion.templates import save_template


@pytest.fixture
def template_path(tmp_path):
    cfg = SynthConfig(seed=101, min_minutiae=15, max_minutiae=15, extent=(300.0, 300.0))
    t = generate_finger(finger_rng(cfg, 0), cfg, "t0")
    path = tmp_path / "t0.mnt"
    save_template(t, path)
    return path


def test_public_names_resolve():
    assert len(set(fpfusion.__all__)) == len(fpfusion.__all__)
    for name in fpfusion.__all__:
        assert getattr(fpfusion, name) is not None, name
    namespace = {}
    exec("from fpfusion import *", namespace)
    assert set(fpfusion.__all__) <= set(namespace)


def test_match_self(template_path, capsys):
    assert main(["match", str(template_path), str(template_path), "--matcher", "feature"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("score=")
    assert "raw_sum=" in out and "pairs=" in out


def test_match_far_apart_minutiae_without_warning(tmp_path, capsys):
    from conftest import far_apart_pair

    paths = []
    for t in far_apart_pair():
        paths.append(tmp_path / f"{t.id}.mnt")
        save_template(t, paths[-1])
    assert main(["match", *map(str, paths), "--matcher", "feature"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "score=0.116732 raw_sum=0.700393 pairs=6\n"
    assert captured.err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_match_template_spanning_1e200_px_without_warning(tmp_path, capsys):
    from conftest import HUGE_SPAN_ROWS

    path = tmp_path / "huge.mnt"
    path.write_text("".join(f"{x!r} {y!r} {theta!r}\n" for x, y, theta in HUGE_SPAN_ROWS))
    assert main(["match", str(path), str(path), "--matcher", "feature"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "score=0.432245 raw_sum=2.593467 pairs=5\n"
    assert captured.err == ""


def test_match_missing_file(tmp_path, capsys):
    assert main(["match", str(tmp_path / "nope.mnt"), str(tmp_path / "nope.mnt")]) == EXIT_DATA


def test_match_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.mnt"
    bad.write_text("1 2 oops\n")
    assert main(["match", str(bad), str(bad)]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_score_fusion_w1_only_equals_mcc(template_path, tmp_path, capsys):
    cfg = SynthConfig(seed=102, min_minutiae=15, max_minutiae=15, extent=(300.0, 300.0))
    other = generate_finger(finger_rng(cfg, 1), cfg, "t1")
    other_path = tmp_path / "t1.mnt"
    save_template(other, other_path)
    args = [str(template_path), str(other_path)]
    assert main(["match", *args, "--matcher", "score", "--w1", "1", "--w2", "0"]) == EXIT_OK
    fused_out = capsys.readouterr().out
    assert main(["match", *args, "--matcher", "mcc"]) == EXIT_OK
    assert capsys.readouterr().out == fused_out


def test_usage_error():
    assert main(["match"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_config_file_and_unknown_key(template_path, tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("w1=0.7\nw2=0.3\n# comment\n")
    assert main(["match", str(template_path), str(template_path), "--config", str(good)]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key=1\n")
    assert main(["match", str(template_path), str(template_path), "--config", str(bad)]) == EXIT_DATA
    assert "bogus_key" in capsys.readouterr().err


def test_gen_synth_and_identify(tmp_path, capsys):
    data = tmp_path / "data"
    assert (
        main(["gen-synth", "--out", str(data), "--seed", "5", "--n-fingers", "4"]) == EXIT_OK
    )
    capsys.readouterr()
    query = next((data / "queries").glob("*.mnt"))
    out_csv = tmp_path / "results.csv"
    assert (
        main(
            [
                "identify",
                str(query),
                str(data / "gallery"),
                "--matcher",
                "feature",
                "--mate",
                "f0000",
                "--out",
                str(out_csv),
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "rank_of_mate=" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "query_id,rank,gallery_id,score,channel"
    assert len(lines) == 5


def test_identify_writes_ids_with_comma_or_quote_as_csv(template_path, tmp_path, capsys):
    import csv

    from fpfusion.templates import MinutiaeTemplate, load_template

    t = load_template(template_path)
    gallery = tmp_path / "g"
    gallery.mkdir()
    for name, tid in (("a", "f,1"), ("b", 'g"2')):
        save_template(MinutiaeTemplate(tid, t.minutiae), gallery / f"{name}.mnt")
    out = tmp_path / "results.csv"
    assert main(["identify", str(template_path), str(gallery), "--out", str(out)]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert sorted(r[2] for r in rows[1:]) == ["f,1", 'g"2']


@pytest.mark.parametrize("flag", ["--emb-a", "--emb-b"])
def test_match_embedding_dimension_mismatch_is_data_error(template_path, tmp_path, flag, capsys):
    import numpy as np

    from fpfusion.descriptors import DescriptorSet
    from fpfusion.embedding import save_embeddings
    from fpfusion.templates import load_template

    n = len(load_template(template_path))
    emb = tmp_path / "b128.emb"
    save_embeddings(DescriptorSet(np.eye(n, 128), np.ones(n, dtype=bool)), emb)
    argv = ["match", str(template_path), str(template_path), flag, str(emb)]
    assert main(argv) == EXIT_DATA
    query_dim, entry_dim = (128, 256) if flag == "--emb-a" else (256, 128)
    assert capsys.readouterr().err == (
        f"error: emb descriptors of gallery entry 't0' have dimension {entry_dim}, "
        f"the query's have {query_dim}\n"
    )


def test_identify_empty_gallery(template_path, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["identify", str(template_path), str(empty)]) == EXIT_DATA


def test_identify_mate_not_in_gallery_is_data_error(template_path, tmp_path, capsys):
    argv = ["identify", str(template_path), str(tmp_path), "--mate", "nosuch"]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mate id 'nosuch' is not in the gallery\n"


def test_identify_duplicate_gallery_ids_name_both_files(template_path, tmp_path, capsys):
    from fpfusion.templates import load_template

    gallery = tmp_path / "g"
    gallery.mkdir()
    t = load_template(template_path)
    for name in ("a", "b"):
        save_template(t, gallery / f"{name}.mnt")
    assert main(["identify", str(template_path), str(gallery)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {gallery / 'b.mnt'}: template id 't0' already enrolled from {gallery / 'a.mnt'}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "{dir}"],
        ["match", "{a}", "{file}/x.mnt"],
        ["describe", "{a}", "--config", "{dir}"],
        ["describe", "{a}", "--out", "{dir}"],
        ["embed-synth", "{a}", "--out", "{dir}"],
        ["identify", "{a}", "{gallery}", "--out", "{dir}"],
        ["benchmark", "--out", "{file}", "--n-fingers", "2"],
        ["gen-synth", "--out", "{file}", "--n-fingers", "2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_path_that_cannot_be_read_or_written_is_data_error(template_path, tmp_path, argv):
    # a directory where a file is expected, or a file where a directory is:
    # unlike permissions, such a conflict holds for every user, root included
    paths = {"a": template_path, "gallery": template_path.parent}
    paths["dir"], paths["file"] = tmp_path / "a_dir", tmp_path / "a_file"
    paths["dir"].mkdir()
    paths["file"].write_text("")
    src = str(Path(fpfusion.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "fpfusion.cli", *(arg.format(**paths) for arg in argv)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")


def _no_identification(*args, **kwargs):
    raise AssertionError("identification ran before the output path was checked")


@pytest.mark.parametrize("out", ["a_dir", "a_file/results.csv", "missing/results.csv"])
def test_identify_checks_out_before_matching(template_path, tmp_path, out, monkeypatch, capsys):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    monkeypatch.setattr("fpfusion.cli.identify_all", _no_identification)
    argv = ["identify", str(template_path), str(template_path.parent), "--out", str(tmp_path / out)]
    assert main(argv) == EXIT_DATA
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("blocked", ["results_mcc.csv", "cmc_rank.csv", "summary.csv"])
def test_benchmark_checks_outputs_before_any_work(tmp_path, blocked, monkeypatch, capsys):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    monkeypatch.setattr("fpfusion.cli.identify_all", _no_identification)
    assert main(["benchmark", "--out", str(out), "--n-fingers", "2"]) == EXIT_DATA
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: [Errno 21] Is a directory: '{out / blocked}'"
    assert not (out / "data").exists()


def test_describe_and_embed_synth(template_path, tmp_path, capsys):
    out_csv = tmp_path / "desc.csv"
    assert main(["describe", str(template_path), "--what", "emb", "--out", str(out_csv)]) == EXIT_OK
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("minutia,valid,v0")

    emb_path = tmp_path / "t0.emb"
    assert main(["embed-synth", str(template_path), "--out", str(emb_path)]) == EXIT_OK
    from fpfusion.embedding import load_embeddings
    from fpfusion.templates import load_template

    t = load_template(template_path)
    back = load_embeddings(emb_path, expected_count=len(t))
    assert back.vectors.shape[0] == len(t)


def test_benchmark_small(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "benchmark",
            "--out",
            str(out),
            "--seed",
            "9",
            "--n-fingers",
            "6",
            "--k-max",
            "6",
        ]
    )
    assert code == EXIT_OK
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "matcher,rank1,rank5,rank10"
    assert len(summary) == 6
    names = [line.split(",")[0] for line in summary[1:]]
    assert names == ["mcc", "emb", "feature", "score", "rank"]
    for name in ("mcc", "emb", "feature", "score", "rank"):
        assert (out / f"cmc_{name}.csv").exists()
    # min-rank dominance at the deepest rank
    rows = {line.split(",")[0]: line.split(",")[1:] for line in summary[1:]}
    assert float(rows["rank"][2]) >= float(rows["mcc"][2])
    assert float(rows["rank"][2]) >= float(rows["emb"][2])


def test_benchmark_repeatable(tmp_path, capsys):
    args = ["benchmark", "--seed", "9", "--n-fingers", "5", "--k-max", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(a)]) == EXIT_OK
    assert main([*args, "--out", str(b)]) == EXIT_OK
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.mark.parametrize("command", ["match", "identify"])
def test_unknown_matcher(template_path, tmp_path, command, capsys):
    args = [command, str(template_path), str(template_path if command == "match" else tmp_path)]
    assert main([*args, "--matcher", "bogus"]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_quality_outside_unit_interval_is_data_error(tmp_path, capsys):
    bad = tmp_path / "q.mnt"
    bad.write_text("1 2 0.5 5.0\n")
    assert main(["match", str(bad), str(bad)]) == EXIT_DATA
    assert "quality" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["match", "{far}", "{good}"], ["describe", "{far}", "--what", "emb"]])
def test_positions_whose_span_overflows_are_data_error(template_path, tmp_path, command, capsys):
    far = tmp_path / "far.mnt"
    far.write_text("1e308 0 0\n-1e308 5 1\n10 10 2\n")
    argv = [a.format(far=far, good=template_path) for a in command]
    assert main(argv) == EXIT_DATA
    assert f"{far}: minutia positions span inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--w1", "0", "--w2", "0"], "--w2 0.0: fusion weights"),
        (["--n-rel", "-1"], "--n-rel -1: iterations must be non-negative"),
        # the fusion section's first rejected prefix ends at --w2, not --n-rel
        (["--w1", "0", "--w2", "0", "--n-rel", "3"], "--w2 0.0: fusion weights"),
    ],
)
def test_flag_value_rejected_by_config_is_usage_error(template_path, flags, message, capsys):
    assert main(["match", str(template_path), str(template_path), *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,message",
    [
        ("w1=0\nw2=0", "config key w2=0"),
        ("n_rel=-1", "n_rel=-1"),
        # a rejected section names the key that caused it, not its last key
        ("cyl_radius=-1\ncyl_grid=16", "config key cyl_radius=-1: radius"),
        ("delta_theta=nan\nw1=0.7", "config key delta_theta=nan: w1, w2 and delta_theta"),
        ("n_rel=-1\nw1=0.7", "config key n_rel=-1: iterations must be non-negative"),
    ],
)
def test_config_file_value_rejected_is_data_error(template_path, tmp_path, line, message, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    args = ["match", str(template_path), str(template_path), "--config", str(cfg)]
    assert main(args) == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "cyl_radius=nan",
        "cyl_radius=inf",
        "cyl_sigma_spatial=inf",
        "cyl_sigma_direction=nan",
        "emb_radius=nan",
        "emb_radius=-5",
        "w1=nan",
        "w2=inf",
        "delta_theta=nan",
        "dist_scale=nan",
        "dist_scale=inf",
        "dist_scale=0",
        "dist_scale=-100",
    ],
)
def test_config_file_value_not_finite_is_data_error(template_path, tmp_path, line, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    args = ["match", str(template_path), str(template_path), "--config", str(cfg)]
    assert main(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"config key {line}: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--w1", "nan", "--matcher", "score"], "--w1 nan: "),
        (["--w2", "inf"], "--w2 inf: "),
        (["--delta-theta", "nan"], "--delta-theta nan: "),
    ],
)
def test_flag_value_not_finite_is_usage_error(template_path, flags, message, capsys):
    assert main(["match", str(template_path), str(template_path), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "line",
    [
        "rotation_max=nan",
        "translation_max=inf",
        "crop_radius_min=nan",
        "rotation_max=-1",
        "crop_radius_min=300",
        "spurious_mean=nan",
        "min_spacing=nan",
        "min_spacing=-1",
        "min_minutiae=0",
    ],
)
def test_gen_synth_rejects_config_value_and_writes_nothing(tmp_path, line, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    args = ["gen-synth", "--out", str(tmp_path / "data"), "--n-fingers", "2"]
    assert main([*args, "--config", str(cfg)]) == EXIT_DATA
    captured = capsys.readouterr()
    prefix = f"config key {line}: "
    assert prefix in captured.err
    assert line.partition("=")[0] in captured.err.partition(prefix)[2]
    assert not list(tmp_path.rglob("*.mnt"))


def test_describe_rejects_non_finite_radius_and_writes_nothing(template_path, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cyl_radius=nan\n")
    out = tmp_path / "rows.csv"
    args = ["describe", str(template_path), "--config", str(cfg), "--out", str(out)]
    assert main(args) == EXIT_DATA
    assert not out.exists()


def test_describe_rejects_radius_outside_pixel_range(template_path, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cyl_radius=1e200\n")
    out = tmp_path / "rows.csv"
    args = ["describe", str(template_path), "--config", str(cfg), "--out", str(out)]
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[1e-06, 1e+06] px" in err
    assert not out.exists()


def test_benchmark_bytes_independent_of_blas_threads(tmp_path):
    """One and two BLAS threads write byte-identical results and summary."""
    src = str(Path(fpfusion.__file__).resolve().parents[1])
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        cmd = [sys.executable, "-m", "fpfusion.cli", "benchmark", "--n-fingers", "8"]
        subprocess.run([*cmd, "--out", str(out)], env=env, check=True, capture_output=True)
        outs[threads] = out
    names = sorted(p.name for p in outs["1"].glob("results_*.csv")) + ["summary.csv"]
    assert len(names) == 5
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


def test_config_emb_dim_key_is_data_error(template_path, tmp_path, capsys):
    # the synthetic signature's width is its bin count; no key sets it
    cfg = tmp_path / "dim.cfg"
    cfg.write_text("emb_dim=256\n")
    args = ["describe", str(template_path), "--what", "emb", "--config", str(cfg)]
    assert main(args) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "emb_dim" in captured.err


def test_config_emb_bins_set_the_describe_width(template_path, tmp_path, capsys):
    cfg = tmp_path / "bins.cfg"
    cfg.write_text("emb_radial_bins=2\n")
    out = tmp_path / "rows.csv"
    args = ["describe", str(template_path), "--what", "emb", "--config", str(cfg)]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 15 + 1  # 15 minutiae
    # 2 x 8 x 8 bins after the minutia and valid columns
    assert {len(line.split(",")) for line in lines} == {2 + 128}


@pytest.mark.parametrize("lines", [["w1=0.2", "w1=0.9"], ["w1=0.9", "w1=0.2"]])
def test_config_file_repeated_key_is_data_error(template_path, tmp_path, lines, capsys):
    # the last line would otherwise win, so the score would depend on key order
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("\n".join([lines[0], "# comment", "w2=0.5", lines[1]]) + "\n")
    args = ["match", str(template_path), str(template_path), "--matcher", "score"]
    assert main([*args, "--config", str(cfg)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:4: key w1 repeats line 1\n"


@pytest.mark.parametrize(
    "lines", [["min_minutiae=70", "max_minutiae=80"], ["keep_min=0.9", "keep_max=0.95"]]
)
def test_config_key_order_does_not_matter_for_gen_synth(tmp_path, lines, capsys):
    for k, order in enumerate((lines, lines[::-1])):
        cfg = tmp_path / f"order{k}.cfg"
        cfg.write_text("\n".join(order) + "\n")
        args = ["gen-synth", "--out", str(tmp_path / f"d{k}"), "--n-fingers", "2"]
        assert main([*args, "--config", str(cfg)]) == EXIT_OK


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_benchmark_k_max_below_one_is_usage_error(tmp_path, k_max, capsys):
    out = tmp_path / "bench"
    args = ["benchmark", "--out", str(out), "--n-fingers", "3", "--k-max", k_max]
    assert main(args) == EXIT_USAGE
    assert "--k-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def pair_dir(tmp_path):
    """A query template and a directory holding one gallery template."""
    cfg = SynthConfig(seed=103, min_minutiae=14, max_minutiae=18, extent=(300.0, 300.0))
    query = tmp_path / "q.mnt"
    save_template(generate_finger(finger_rng(cfg, 0), cfg, "q"), query)
    gallery = tmp_path / "gallery"
    gallery.mkdir()
    save_template(generate_finger(finger_rng(cfg, 1), cfg, "g"), gallery / "g.mnt")
    return query, gallery


@pytest.mark.parametrize("matcher", ["mcc", "emb", "feature", "score"])
def test_match_prints_the_identify_score(pair_dir, matcher, capsys):
    query, gallery = pair_dir
    tuning = ["--matcher", matcher, "--w1", "0.7", "--n-rel", "3"]
    assert main(["identify", str(query), str(gallery), *tuning]) == EXIT_OK
    top = capsys.readouterr().out.split()[-1]
    assert main(["match", str(query), str(gallery / "g.mnt"), *tuning]) == EXIT_OK
    assert capsys.readouterr().out.split()[0] == top  # "score=..." in both


def test_match_with_embedding_files_scores_like_the_library(pair_dir, tmp_path, capsys):
    from conftest import match_pair
    from fpfusion.embedding import load_embeddings
    from fpfusion.templates import load_template

    query, gallery = pair_dir
    ta, tb = load_template(query), load_template(gallery / "g.mnt")
    emb_cfg = tmp_path / "emb.cfg"
    emb_cfg.write_text("emb_radius=55\n")  # embeddings unlike the default stand-in
    paths = []
    for src in (query, gallery / "g.mnt"):
        paths.append(tmp_path / f"{src.stem}.emb")
        args = ["embed-synth", str(src), "--out", str(paths[-1]), "--config", str(emb_cfg)]
        assert main(args) == EXIT_OK
    emb_a, emb_b = (load_embeddings(p, len(t)) for p, t in zip(paths, (ta, tb)))
    expected = match_pair(ta, tb, emb_a, emb_b)
    for matcher in ("emb", "feature"):
        capsys.readouterr()
        argv = ["match", str(query), str(gallery / "g.mnt"), "--matcher", matcher]
        assert main([*argv, "--emb-a", str(paths[0]), "--emb-b", str(paths[1])]) == EXIT_OK
        r = expected[matcher]
        line = f"score={r.score:.6f} raw_sum={r.raw_sum:.6f} pairs={r.n_pairs_used}\n"
        assert capsys.readouterr().out == line
        assert main(argv) == EXIT_OK  # the synthetic stand-in scores differently
        assert capsys.readouterr().out != line


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "{t}", "--w1", "0.5"],
        ["embed-synth", "{t}", "--out", "{d}/x.emb", "--seed", "1"],
        ["gen-synth", "--out", "{d}/d", "--n-rel", "2"],
    ],
)
def test_flags_of_unread_config_sections_are_rejected(template_path, tmp_path, argv, capsys):
    argv = [a.format(t=template_path, d=tmp_path) for a in argv]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(p.name in ("x.emb", "d") for p in tmp_path.iterdir())


def test_config_file_sets_any_key_for_any_command(template_path, tmp_path, capsys):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("w1=0.7\n")
    assert main(["describe", str(template_path), "--config", str(cfg)]) == EXIT_OK


# The (section, field) each config key sets, written out apart from CONFIG_KEYS.
KEY_FIELDS = {
    "cyl_radius": ("cylinder", "radius"),
    "cyl_grid": ("cylinder", "grid"),
    "cyl_sections": ("cylinder", "sections"),
    "cyl_sigma_spatial": ("cylinder", "sigma_spatial"),
    "cyl_sigma_direction": ("cylinder", "sigma_direction"),
    "cyl_min_neighbors": ("cylinder", "min_neighbors"),
    "emb_radius": ("embedding", "synth_radius"),
    "emb_radial_bins": ("embedding", "radial_bins"),
    "emb_angular_bins": ("embedding", "angular_bins"),
    "emb_direction_bins": ("embedding", "direction_bins"),
    "w1": ("fusion", "w1"),
    "w2": ("fusion", "w2"),
    "delta_theta": ("fusion", "delta_theta"),
    "w_r": ("fusion", "relax_weight"),
    "n_rel": ("fusion", "relax_iterations"),
    "dist_scale": ("fusion", "distance_scale"),
    "seed": ("synth", "seed"),
    "n_fingers": ("synth", "n_fingers"),
    "min_minutiae": ("synth", "min_minutiae"),
    "max_minutiae": ("synth", "max_minutiae"),
    "min_spacing": ("synth", "min_spacing"),
    "rotation_max": ("perturb", "rotation_max"),
    "translation_max": ("perturb", "translation_max"),
    "position_jitter": ("perturb", "position_jitter"),
    "angle_jitter": ("perturb", "angle_jitter"),
    "keep_min": ("perturb", "keep_min"),
    "keep_max": ("perturb", "keep_max"),
    "spurious_mean": ("perturb", "spurious_mean"),
    "crop_radius_min": ("perturb", "crop_radius_min"),
    "crop_radius_max": ("perturb", "crop_radius_max"),
}


def _next_value(key):
    """A valid non-default value of a key's field: the next float above its
    default, or its default + 1."""
    section, name = KEY_FIELDS[key]
    default = getattr(getattr(PipelineConfig(), section), name)
    return default + 1 if type(default) is int else math.nextafter(default, math.inf)


def _assert_only_field_set(cfg: PipelineConfig, key, value):
    """``cfg`` holds ``value`` at the field of ``key`` and every other field at
    its default, each of the default's type."""
    defaults = PipelineConfig()
    for section in dataclasses.fields(defaults):
        got, default = getattr(cfg, section.name), getattr(defaults, section.name)
        for f in dataclasses.fields(default):
            want = getattr(default, f.name)
            if (section.name, f.name) == KEY_FIELDS[key]:
                want = value
            held = getattr(got, f.name)
            assert held == want and type(held) is type(want), (key, section.name, f.name)


@pytest.mark.parametrize("key", list(CONFIG_KEYS))
def test_every_config_key_reaches_its_field(template_path, tmp_path, key):
    value = _next_value(key)
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key}={value!r}\n")
    args = _build_parser().parse_args(["describe", str(template_path), "--config", str(cfg)])
    _assert_only_field_set(build_pipeline_config(args), key, value)


@pytest.mark.parametrize("key", ["seed", "w1", "w2", "delta_theta", "n_rel", "w_r", "n_fingers"])
def test_every_tuning_flag_reaches_its_field(tmp_path, key):
    value = _next_value(key)
    flag = f"--{key.replace('_', '-')}"
    args = _build_parser().parse_args(["benchmark", "--out", str(tmp_path), flag, repr(value)])
    _assert_only_field_set(build_pipeline_config(args), key, value)


@pytest.mark.parametrize(
    "line", ["emb_radial_bins=0", "emb_angular_bins=-1", "emb_direction_bins=0"]
)
def test_config_file_bins_below_one_is_data_error(template_path, tmp_path, line, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "rows.csv"
    args = ["describe", str(template_path), "--what", "emb", "--config", str(cfg)]
    assert main([*args, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"config key {line}: " in err
    assert line.partition("=")[0].removeprefix("emb_") in err.partition(": ")[2]
    assert not out.exists()


def _match_outputs(argv, capsys):
    """``match`` output lines of every matcher for one argument list."""
    lines = []
    for matcher in ("mcc", "emb", "feature", "score"):
        capsys.readouterr()
        assert main([*argv, "--matcher", matcher]) == EXIT_OK
        lines.append(capsys.readouterr().out)
    return lines


def _with_embedding_files(argv, a, b, tmp_path):
    """``argv`` plus ``--emb-a/--emb-b`` files that ``embed-synth`` writes."""
    for flag, src in (("--emb-a", a), ("--emb-b", b)):
        emb = tmp_path / f"{flag[2:]}.emb"
        assert main(["embed-synth", str(src), "--out", str(emb)]) == EXIT_OK
        argv = [*argv, flag, str(emb)]
    return argv


def test_neighborless_minutia_scores_alike_with_embedding_files(tmp_path, capsys):
    # a cluster plus one minutia beyond the 96 px signature radius of every
    # other: its embedding is invalid, and it must stay so through a file
    from fpfusion.templates import Minutia, MinutiaeTemplate, rigid_transform

    cluster = [(50, 50, 0.3), (75, 58, 1.0), (60, 85, 2.0), (95, 90, 2.6), (40, 110, 4.0)]
    ta = MinutiaeTemplate("a", tuple(Minutia(*m) for m in [*cluster, (400, 380, 5.0)]))
    tb = rigid_transform(ta, 0.3, 12.0, -7.0, center=(200.0, 200.0))
    tb = MinutiaeTemplate("b", tb.minutiae[1:])  # one cluster minutia missing
    a, b = tmp_path / "a.mnt", tmp_path / "b.mnt"
    save_template(ta, a)
    save_template(tb, b)
    argv = ["match", str(a), str(b)]
    plain = _match_outputs(argv, capsys)
    from_files = _match_outputs(_with_embedding_files(argv, a, b, tmp_path), capsys)
    for x, y in zip(plain, from_files):
        fields_x = dict(f.split("=") for f in x.split())
        fields_y = dict(f.split("=") for f in y.split())
        assert fields_x["pairs"] == fields_y["pairs"]
        for key in ("score", "raw_sum"):  # float32 files round within 1e-6
            assert abs(float(fields_x[key]) - float(fields_y[key])) <= 2e-6


@pytest.fixture
def tiny_dir(tmp_path):
    """Templates of 0 and 1 minutiae in one gallery directory."""
    from fpfusion.templates import Minutia, MinutiaeTemplate

    d = tmp_path / "tiny"
    d.mkdir()
    save_template(MinutiaeTemplate("z0", ()), d / "z0.mnt")
    save_template(MinutiaeTemplate("z1", (Minutia(40.0, 60.0, 1.0),)), d / "z1.mnt")
    return d


@pytest.mark.parametrize("with_emb", [False, True])
@pytest.mark.parametrize("na,nb", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_tiny_templates_through_match(tiny_dir, tmp_path, na, nb, with_emb, capsys):
    a, b = tiny_dir / f"z{na}.mnt", tiny_dir / f"z{nb}.mnt"
    argv = ["match", str(a), str(b)]
    if with_emb:
        argv = _with_embedding_files(argv, a, b, tmp_path)
    assert _match_outputs(argv, capsys) == ["score=0.000000 raw_sum=0.000000 pairs=0\n"] * 4


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_templates_through_identify(tiny_dir, tmp_path, n, capsys):
    out = tmp_path / "results.csv"
    argv = ["identify", str(tiny_dir / f"z{n}.mnt"), str(tiny_dir), "--mate", f"z{n}"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    # every score is 0, so the gallery id breaks the tie
    assert capsys.readouterr().out == f"rank_of_mate={n + 1}\ntop=z0 score=0.000000\n"
    assert out.read_text().splitlines()[1:] == [
        f"z{n},1,z0,0.000000,feature",
        f"z{n},2,z1,0.000000,feature",
    ]


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("what,dim", [("mcc", CylinderConfig().dim), ("emb", 256)])
def test_tiny_templates_through_describe(tiny_dir, n, what, dim, capsys):
    assert main(["describe", str(tiny_dir / f"z{n}.mnt"), "--what", what]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(["minutia", "valid"] + [f"v{i}" for i in range(dim)])
    assert lines[1:] == [",".join(["0", "0"] + ["0.000000"] * dim)] * n


@pytest.mark.parametrize("n", [0, 1])
def test_tiny_templates_through_embed_synth(tiny_dir, tmp_path, n, capsys):
    from fpfusion.embedding import load_embeddings

    emb = tmp_path / "z.emb"
    assert main(["embed-synth", str(tiny_dir / f"z{n}.mnt"), "--out", str(emb)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {n} embeddings to {emb}\n"
    back = load_embeddings(emb, n)
    assert back.vectors.shape == (n, 256) and not back.valid.any()


FROZEN_RESULTS = json.loads(
    (Path(__file__).parent / "data" / "benchmark_seed42_30_results.json").read_text()
)


def test_benchmark_results_bytes_are_frozen(tmp_path, capsys):
    """The seeded benchmark's result files match their recorded sha256
    digests, so any moved score or rank fails."""
    out = tmp_path / "bench"
    assert main([*FROZEN_RESULTS["argv"], "--out", str(out)]) == EXIT_OK
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("results_*.csv")
    }
    assert written == FROZEN_RESULTS["sha256"]


FROZEN_DESCRIBE = json.loads(
    (Path(__file__).parent / "data" / "describe_seed42_sha256.json").read_text()
)


def test_describe_bytes_are_frozen(tmp_path, capsys):
    """``describe`` CSVs of a few seed-42 gallery and query templates match
    their recorded sha256 digests, so a descriptor value that moves in its
    printed 6 decimals fails."""
    data = tmp_path / "data"
    assert main([*FROZEN_DESCRIBE["argv"], "--out", str(data)]) == EXIT_OK
    written = {}
    for key in FROZEN_DESCRIBE["sha256"]:
        name, what = key.split()
        out = tmp_path / "rows.csv"
        assert main(["describe", str(data / name), "--what", what, "--out", str(out)]) == EXIT_OK
        written[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert written == FROZEN_DESCRIBE["sha256"]

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpfusion
from fpfusion.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
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


def test_identify_empty_gallery(template_path, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["identify", str(template_path), str(empty)]) == EXIT_DATA


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


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--w1", "0", "--w2", "0"], "--w2 0.0: fusion weights"),
        (["--n-rel", "-1"], "--n-rel -1: iterations must be non-negative"),
    ],
)
def test_flag_value_rejected_by_config_is_usage_error(template_path, flags, message, capsys):
    assert main(["match", str(template_path), str(template_path), *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "line,message", [("w1=0\nw2=0", "config key w2=0"), ("n_rel=-1", "n_rel=-1")]
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


def test_config_key_order_does_not_matter_for_describe(template_path, tmp_path):
    lines = ["emb_radial_bins=8", "emb_dim=1024"]  # 8 x 8 x 8 bins fit only in the larger dim
    outs = []
    for order in (lines, lines[::-1]):
        cfg = tmp_path / "order.cfg"
        cfg.write_text("\n".join(order) + "\n")
        out = tmp_path / f"desc{len(outs)}.csv"
        args = ["describe", str(template_path), "--what", "emb", "--config", str(cfg)]
        assert main([*args, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b",") == (1024 + 2 - 1) * (15 + 1)  # 15 minutiae, 1024 values each


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


def test_match_with_embedding_files_scores_like_match_all_channels(pair_dir, tmp_path, capsys):
    from fpfusion.embedding import load_embeddings
    from fpfusion.fusion import match_all_channels
    from fpfusion.mcc import build_mcc_set
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
    emb_a, emb_b = (load_embeddings(p, len(t), t.id) for p, t in zip(paths, (ta, tb)))
    expected = match_all_channels(
        ta, tb, build_mcc_set(ta), build_mcc_set(tb), emb_a, emb_b
    )
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

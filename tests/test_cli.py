import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpfusion
import fpfusion.cli as cli
import fpfusion.fusion as fusion
import fpfusion.mcc as mcc
from fpfusion.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    PipelineConfig,
    _build_parser,
    build_pipeline_config,
    main,
)
from fpfusion.synthetic import SynthConfig, finger_rng, generate_finger
from fpfusion.templates import load_template, save_template


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
    assert main(["match", *args, "--matcher", "score", "--w1", "1"]) == EXIT_OK
    fused_out = capsys.readouterr().out
    assert main(["match", *args, "--matcher", "mcc"]) == EXIT_OK
    assert capsys.readouterr().out == fused_out


def test_usage_error():
    assert main(["match"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


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


@pytest.mark.parametrize("command", ["match", "identify"])
def test_file_not_utf8_is_data_error_naming_it(template_path, tmp_path, command, capsys):
    # one byte that is not UTF-8, in a query or a gallery file
    bad = tmp_path / "g" / "bad.mnt" if command == "identify" else tmp_path / "bad.mnt"
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(b"0 0 0.1\n\xff 5 1.0\n")
    if command == "identify":
        (tmp_path / "g" / "t0.mnt").write_bytes(template_path.read_bytes())
        argv = ["identify", str(template_path), str(bad.parent)]
    else:
        argv = ["match", str(template_path), str(bad)]
    assert main(argv) == EXIT_DATA
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("first", ["header", "data"])
def test_template_with_byte_order_mark_loads_as_without(template_path, tmp_path, first, capsys):
    text = template_path.read_text(encoding="utf-8")
    if first == "data":
        text = text.split("\n", 1)[1]
    plain, marked = tmp_path / "plain" / "t.mnt", tmp_path / "marked" / "t.mnt"
    for path, encoding in ((plain, "utf-8"), (marked, "utf-8-sig")):
        path.parent.mkdir()
        path.write_text(text, encoding=encoding)
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_template(marked) == load_template(plain)
    assert main(["match", str(plain), str(plain)]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["match", str(marked), str(marked)]) == EXIT_OK
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "{dir}"],
        ["match", "{a}", "{file}/x.mnt"],
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
        # a weight that once overflowed the fused matrix
        (["--w1", "1e308", "--matcher", "score"], "--w1 1e+308: fusion weights"),
        (["--w1", "-1"], "--w1 -1.0: fusion weights"),
        (["--delta-theta", "0.5", "--w1", "-0.1"], "--w1 -0.1: fusion weights"),
    ],
)
def test_flag_value_rejected_by_config_is_usage_error(template_path, flags, message, capsys):
    assert main(["match", str(template_path), str(template_path), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--w1", "nan", "--matcher", "score"], "--w1 nan: "),
        (["--w1", "inf"], "--w1 inf: "),
        (["--delta-theta", "nan"], "--delta-theta nan: "),
        (["--delta-theta", "inf"], "--delta-theta inf: "),
    ],
)
def test_flag_value_not_finite_is_usage_error(template_path, flags, message, capsys):
    assert main(["match", str(template_path), str(template_path), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["match", "{t}", "{t}", "--w1", "abc"], "argument --w1: invalid float value: 'abc'"),
        (
            ["gen-synth", "--out", "{d}", "--seed", "2.5"],
            "argument --seed: invalid int value: '2.5'",
        ),
        (
            ["benchmark", "--out", "{d}", "--n-fingers", ""],
            "argument --n-fingers: invalid int value: ''",
        ),
    ],
)
def test_flag_value_that_does_not_parse_is_one_line_usage_error(
    template_path, tmp_path, argv, message, capsys
):
    out = tmp_path / "out"
    assert main([a.format(t=template_path, d=out) for a in argv]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: fpfusion {argv[0]}: {message}\n")
    assert not out.exists()


def test_first_rejected_flag_in_table_order_is_named(tmp_path, capsys):
    # w1, delta_theta, seed, n_fingers, whatever their order on the command line
    out = tmp_path / "out"
    argv = ["benchmark", "--out", str(out), "--n-fingers", "0", "--seed", "-1"]
    assert main([*argv, "--delta-theta", "inf"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --delta-theta inf: delta_theta must be finite\n"
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --seed -1: seed must be non-negative\n"
    assert not out.exists()


def test_gen_synth_rejects_negative_seed_flag_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-synth", "--out", str(out), "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --seed -1: seed must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("command,data", [("gen-synth", ""), ("benchmark", "data")])
def test_dataset_over_a_larger_one_is_data_error_and_writes_nothing(
    tmp_path, command, data, capsys
):
    # identify and benchmark read a gallery directory whole, so fingers a
    # smaller dataset would leave beside its truth.csv would be enrolled too
    out = tmp_path / "d"
    args = [command, "--out", str(out), "--seed", "1"]
    assert main([*args, "--n-fingers", "3"]) == EXIT_OK
    before = _tree(out)
    capsys.readouterr()
    assert main([*args, "--n-fingers", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    stale = out / data / "gallery" / "f0002.mnt"
    assert err.startswith(f"error: {stale}: ") and err.count("\n") == 1
    assert _tree(out) == before
    assert main([*args, "--n-fingers", "3"]) == EXIT_OK  # the same dataset again
    assert _tree(out) == before


@pytest.mark.parametrize("blocked", ["truth.csv", "gallery/f0001.mnt", "queries/q0002.mnt"])
@pytest.mark.parametrize("command,data", [("gen-synth", ""), ("benchmark", "data")])
def test_dataset_over_a_directory_it_would_write_is_data_error_and_writes_nothing(
    tmp_path, command, data, blocked, capsys
):
    out = tmp_path / "d"
    (out / data / blocked).mkdir(parents=True)
    assert main([command, "--out", str(out), "--n-fingers", "3"]) == EXIT_DATA
    err = f"error: [Errno 21] Is a directory: '{out / data / blocked}'\n"
    assert capsys.readouterr() == ("", err)
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_gen_synth_prints_each_warning_as_one_line(tmp_path, monkeypatch, capsys):
    # a spacing no 500 x 500 px finger can hold leaves each finger short
    write = cli.write_dataset

    def spaced(out, synth):
        return write(out, dataclasses.replace(synth, min_spacing=400.0))

    monkeypatch.setattr(cli, "write_dataset", spaced)
    argv = ["gen-synth", "--n-fingers", "3", "--out", str(tmp_path / "d")]
    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(line.startswith("warning: f000") for line in err), err
    # the format changes, the filters do not: a warning made an error raises
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="spacing unsatisfiable"):
            main([*argv[:-1], str(tmp_path / "e")])


def test_benchmark_bytes_independent_of_blas_threads(tmp_path):
    """One and two BLAS threads write byte-identical results and summary,
    with both scoring lanes calling BLAS at once."""
    src = str(Path(fpfusion.__file__).resolve().parents[1])
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        cmd = [sys.executable, "-m", "fpfusion.cli", "benchmark", "--n-fingers", "60"]
        subprocess.run([*cmd, "--out", str(out)], env=env, check=True, capture_output=True)
        outs[threads] = out
    # some query takes more than one block, so the helper lane scored too
    gallery = [load_template(p) for p in (outs["1"] / "data" / "gallery").glob("*.mnt")]
    width = max(len(t) for t in gallery)
    queries = [load_template(p) for p in (outs["1"] / "data" / "queries").glob("*.mnt")]
    assert any(fusion._entries_per_block(len(q), width) < len(gallery) for q in queries)
    names = sorted(p.name for p in outs["1"].glob("results_*.csv")) + ["summary.csv"]
    assert len(names) == 5
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


# the former relaxation flags, and --w2 (the embedding channel weighs 1 - w1)
@pytest.mark.parametrize("flag", ["--w-r", "--n-rel", "--w2"])
def test_removed_relaxation_flags_are_usage_errors(template_path, flag, capsys):
    assert main(["match", str(template_path), str(template_path), flag, "2"]) == EXIT_USAGE
    # one line, without argparse's usage lines
    assert capsys.readouterr() == ("", f"error: fpfusion: unrecognized arguments: {flag} 2\n")


def _tree(root):
    """Every file under ``root``, relative path -> bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("k_max", ["0", "-3"])
def test_benchmark_k_max_below_one_is_usage_error(tmp_path, k_max, capsys):
    out = tmp_path / "bench"
    args = ["benchmark", "--out", str(out), "--n-fingers", "3", "--k-max", k_max]
    assert main(args) == EXIT_USAGE
    assert "--k-max" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_k_max_sets_only_the_cmc_depth(tmp_path, capsys):
    # the summary's rank5/rank10 columns stay rank 5 and 10 under a shallow --k-max
    args = ["benchmark", "--seed", "42", "--n-fingers", "30"]
    default, shallow = tmp_path / "default", tmp_path / "shallow"
    assert main([*args, "--out", str(default)]) == EXIT_OK
    assert main([*args, "--out", str(shallow), "--k-max", "1"]) == EXIT_OK
    summary = (shallow / "summary.csv").read_bytes()
    assert summary == (default / "summary.csv").read_bytes()
    assert (shallow / "cmc_mcc.csv").read_text().splitlines() == [
        "k,accuracy",
        (default / "cmc_mcc.csv").read_text().splitlines()[1],
    ]


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
    tuning = ["--matcher", matcher, "--w1", "0.7", "--delta-theta", "0.5"]
    assert main(["identify", str(query), str(gallery), *tuning]) == EXIT_OK
    top = capsys.readouterr().out.split()[-1]
    assert main(["match", str(query), str(gallery / "g.mnt"), *tuning]) == EXIT_OK
    assert capsys.readouterr().out.split()[0] == top  # "score=..." in both


def test_match_with_embedding_files_scores_like_the_library(pair_dir, tmp_path, capsys):
    from conftest import match_pair
    from fpfusion.descriptors import DescriptorSet
    from fpfusion.embedding import build_synthetic_embeddings, load_embeddings, save_embeddings
    from fpfusion.templates import load_template

    query, gallery = pair_dir
    ta, tb = load_template(query), load_template(gallery / "g.mnt")
    paths = []
    for t in (ta, tb):
        # squared values: valid rows stay nonzero, and the cosines move
        e = build_synthetic_embeddings(t)
        paths.append(tmp_path / f"{t.id}.emb")
        save_embeddings(DescriptorSet(e.vectors**2, e.valid), paths[-1])
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
        ["gen-synth", "--out", "{d}/d", "--w1", "2"],
    ],
)
def test_flags_of_unread_config_sections_are_rejected(template_path, tmp_path, argv, capsys):
    argv = [a.format(t=template_path, d=tmp_path) for a in argv]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(p.name in ("x.emb", "d") for p in tmp_path.iterdir())


# The section whose field of the same name each tuning flag sets, written
# out apart from cli.TUNING_FLAGS.
KEY_SECTIONS = {"w1": "fusion", "delta_theta": "fusion", "seed": "synth", "n_fingers": "synth"}


def _next_value(key):
    """A valid non-default value of a key's field: the next float above its
    default, or its default + 1."""
    default = getattr(getattr(PipelineConfig(), KEY_SECTIONS[key]), key)
    return default + 1 if type(default) is int else math.nextafter(default, math.inf)


def _assert_only_field_set(cfg: PipelineConfig, key, value):
    """``cfg`` holds ``value`` at the field of ``key`` and every other field at
    its default, each of the default's type."""
    defaults = PipelineConfig()
    for section in dataclasses.fields(defaults):
        got, default = getattr(cfg, section.name), getattr(defaults, section.name)
        for f in dataclasses.fields(default):
            want = getattr(default, f.name)
            if (section.name, f.name) == (KEY_SECTIONS[key], key):
                want = value
            held = getattr(got, f.name)
            assert held == want and type(held) is type(want), (key, section.name, f.name)


@pytest.mark.parametrize("key", ["seed", "w1", "delta_theta", "n_fingers"])
def test_every_tuning_flag_reaches_its_field(tmp_path, key):
    value = _next_value(key)
    flag = f"--{key.replace('_', '-')}"
    args = _build_parser().parse_args(["benchmark", "--out", str(tmp_path), flag, repr(value)])
    _assert_only_field_set(build_pipeline_config(args), key, value)


def test_each_tuning_flag_moves_the_score_in_any_order(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synth", "--out", str(data), "--seed", "3"]) == EXIT_OK
    pair = ["match", str(data / "queries" / "q0000.mnt"), str(data / "gallery" / "f0000.mnt")]
    default = _match_outputs(pair, capsys)
    for flag in (["--w1", "0.9"], ["--delta-theta", "0.1"]):
        assert _match_outputs([*pair, *flag], capsys)[3] != default[3], flag
    flags = ["--w1", "0.9", "--delta-theta", "0.1"]
    outputs = [_match_outputs([*pair, *order], capsys) for order in (flags, flags[2:] + flags[:2])]
    assert outputs[0] == outputs[1]


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
@pytest.mark.parametrize("what,dim", [("mcc", mcc.DIM), ("emb", 256)])
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


# Settings that change how the host computes, not what it computes: older
# OpenBLAS kernel sets and numpy's SIMD dispatch without AVX-512. Raw bits
# may differ under them; the output files must not.
HOST_VARIANTS = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}

# Runs the frozen benchmark and the frozen describe inputs in one process;
# argv[1] is the output directory, argv[2] the JSON of the two argvs and the
# describe keys. It first prints the BLAS core and the SIMD extensions it got.
_HOST_CHILD = """
import json, sys
from pathlib import Path

import numpy  # a setting this numpy refuses stops its import, before the mark

print("numpy imported", flush=True)
from conftest import blas_core, simd_found
from fpfusion.cli import main

print("host:", blas_core(), *simd_found(), flush=True)

out = Path(sys.argv[1])
bench, synth, described = json.loads(sys.argv[2])
assert main([*bench, "--out", str(out / "bench")]) == 0
assert main([*synth, "--out", str(out / "synth")]) == 0
(out / "describe").mkdir()
for key in described:
    name, what = key.split()
    csv = out / "describe" / (name.replace("/", "_") + "." + what + ".csv")
    assert main(["describe", str(out / "synth" / name), "--what", what, "--out", str(csv)]) == 0
"""


def _host_run(out: Path, setting: dict) -> subprocess.CompletedProcess:
    """Run ``_HOST_CHILD`` into ``out`` with ``setting`` as its only host
    variable, whatever this process's environment holds."""
    src = str(Path(fpfusion.__file__).resolve().parents[1])
    host_vars = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    env = {k: v for k, v in os.environ.items() if k not in host_vars}
    env.update(setting)
    paths = [src, str(Path(__file__).parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    jobs = [FROZEN_RESULTS["argv"], FROZEN_DESCRIBE["argv"], list(FROZEN_DESCRIBE["sha256"])]
    cmd = [sys.executable, "-c", _HOST_CHILD, str(out), json.dumps(jobs)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def _file_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _host_report(proc: subprocess.CompletedProcess) -> str:
    """The child's ``host:`` line: its BLAS core and SIMD extensions."""
    return next(line for line in proc.stdout.splitlines() if line.startswith("host:"))


@pytest.fixture(scope="module")
def default_host(tmp_path_factory):
    """The default child's output files and host report."""
    out = tmp_path_factory.mktemp("host") / "default"
    proc = _host_run(out, {})
    assert proc.returncode == 0, proc.stderr
    return _file_bytes(out), _host_report(proc)


@pytest.mark.parametrize("variant", list(HOST_VARIANTS))
def test_output_bytes_do_not_depend_on_blas_kernel_or_simd(default_host, tmp_path, variant):
    """The benchmark and describe files of a child run under another BLAS
    kernel set or SIMD level equal the default run's, byte for byte. A
    setting that leaves the child's BLAS core and SIMD extensions as the
    default child's ran nothing new, and is skipped after the comparison."""
    default_files, default_report = default_host
    proc = _host_run(tmp_path / variant, HOST_VARIANTS[variant])
    if proc.returncode != 0 and "numpy imported" not in proc.stdout:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        pytest.skip(f"{HOST_VARIANTS[variant]}: this numpy refuses it: {lines[-1]}")
    assert proc.returncode == 0, proc.stderr
    files = _file_bytes(tmp_path / variant)
    assert files.keys() == default_files.keys()
    assert [name for name in sorted(files) if files[name] != default_files[name]] == []
    report = _host_report(proc)
    if report == default_report:
        pytest.skip(f"{HOST_VARIANTS[variant]} took no effect here: {report}")


_MNT_ODD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["-0", "-0.0", "nan", "NaN", "-nan", "inf", "-Infinity", "1e309", "0x10", "1_0"]
    ),
    st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), min_size=1, max_size=4),
)


def _mostly(plausible, odd, tenths):
    """``plausible`` in ``tenths`` draws of ten, else ``odd``."""
    return st.integers(0, 9).flatmap(lambda k: plausible if k < tenths else odd)


def _fixed(v):
    return f"{v:.6f}"


_MNT_MINUTIA = st.tuples(
    *[_mostly(st.floats(-50.0, 550.0).map(_fixed), _MNT_ODD, 9)] * 2,
    _mostly(st.floats(-7.0, 7.0).map(_fixed), _MNT_ODD, 9),
    _mostly(st.just(""), _mostly(st.floats(0.0, 1.0).map(_fixed), _MNT_ODD, 9), 5),
).map(lambda fields: " ".join(fields).strip())
_MNT_LINE = _mostly(
    _MNT_MINUTIA,
    st.one_of(
        st.lists(_MNT_ODD, min_size=1, max_size=5).map(" ".join),
        # a minutia at the ends of the float range
        st.lists(st.sampled_from(["1e308", "-1e308", "-0", "5e-324"]), min_size=3, max_size=3).map(
            " ".join
        ),
        st.sampled_from(
            ["# id=a", "# id=b w=3 h=4", "# id=", "#id=a b", "# id=c w=1", "# id=d w=-1 h=2",
             "#  id=e   w=9 h=9  ", "# id=f w=99999999999999999999 h=1", "# comment", "#", "",
             "  \t"]
        ),
    ),
    8,
)


@st.composite
def mnt_bytes(draw):
    """``.mnt`` file bytes: up to 8 lines of numbers, headers, comments and
    blanks, with LF or CRLF endings, maybe a byte-order mark and maybe one
    byte that is not UTF-8."""
    lines = draw(st.lists(_MNT_LINE, max_size=8))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    raw = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + raw[at:]
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=mnt_bytes())
def test_any_mnt_file_matches_or_is_one_line_data_error(raw):
    """``match`` of any ``.mnt`` text against itself exits 0 with one line
    holding a score in [0, 1], or 2 with one ``error:`` line naming the
    file, and raises nothing, a numeric warning included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "a.mnt")
        Path(path).write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["match", path, path])
    if code == EXIT_OK:
        assert err.getvalue() == ""
        [line] = out.getvalue().splitlines()
        score = float(line.removeprefix("score=").split()[0])
        assert 0.0 <= score <= 1.0, line
    else:
        assert code == EXIT_DATA, err.getvalue()
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"error: {path}")


# A 5-minutia template, and .emb headers and bodies around its shape: the
# count right or not, widths up to one no file can hold, lengths short,
# exact and long, and float32 values at the edges of the format.
_EMB_TEMPLATE = "0 0 0.1\n20 5 1.0\n10 30 2.0\n40 12 3.0\n25 40 4.0\n"
_EMB_SPECIAL = [
    np.nan, np.inf, -np.inf, 1e-45, -1e-40, 3.4e38, -3.4e38, -0.0, 0.0, 1.0, -2.5,
]


@st.composite
def emb_bytes(draw):
    """``.emb`` file bytes for the 5-minutia template."""
    count = draw(_mostly(st.just(5), st.sampled_from([0, 1, 4, 6, 2**32 - 1]), 7))
    dim = draw(_mostly(st.sampled_from([256, 0, 1, 3]), st.sampled_from([2**31, 2**32 - 1]), 9))
    rows = min(count, 8)
    cols = dim if rows * dim <= 4096 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.normal(size=(rows, cols))
    for r in range(rows):
        mode = draw(st.sampled_from(["keep", "keep", "zero", "fill"]))
        if mode != "keep":
            values[r] = 0.0 if mode == "zero" else draw(st.sampled_from(_EMB_SPECIAL))
    for _ in range(draw(st.integers(0, 3)) if values.size else 0):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        values[r, c] = draw(st.sampled_from(_EMB_SPECIAL))
    raw = b"EMB1" + struct.pack("<II", count, dim) + values.astype("<f4").tobytes()
    cut = draw(_mostly(st.just("exact"), st.sampled_from(["short", "long"]), 7))
    if cut == "short":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif cut == "long":
        raw += bytes(draw(st.integers(1, 9)))
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=emb_bytes())
def test_any_emb_file_matches_or_is_one_line_data_error(raw):
    """``match`` of a template against itself with any ``.emb`` bytes as
    both embedding files exits 0 with one line holding a score in [0, 1] and
    nothing on stderr, or 2 with one ``error:`` line naming the file, and
    raises nothing, a numeric warning included."""
    with tempfile.TemporaryDirectory() as tmp:
        mnt, emb = str(Path(tmp) / "a.mnt"), str(Path(tmp) / "a.emb")
        Path(mnt).write_text(_EMB_TEMPLATE)
        Path(emb).write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["match", mnt, mnt, "--emb-a", emb, "--emb-b", emb])
    if code == EXIT_OK:
        assert err.getvalue() == ""
        [line] = out.getvalue().splitlines()
        score = float(line.removeprefix("score=").split()[0])
        assert 0.0 <= score <= 1.0, line
    else:
        assert code == EXIT_DATA, err.getvalue()
        [line] = err.getvalue().splitlines()
        assert line.startswith(f"error: {emb}")


def _command_argv(command, root: Path) -> list[str]:
    """``command`` with arguments it runs with: it reads a 5-minutia template
    (and, for ``identify``, a gallery of it) written under ``root``, and
    writes its outputs there."""
    mnt, gallery = root / "a.mnt", root / "g"
    mnt.write_text(_EMB_TEMPLATE)
    gallery.mkdir()
    (gallery / "a.mnt").write_text(_EMB_TEMPLATE)
    args = {
        "match": [mnt, mnt],
        "identify": [mnt, gallery, "--out", root / "results.csv"],
        "benchmark": ["--out", root / "bench"],
        "gen-synth": ["--out", root / "data"],
        "describe": [mnt, "--out", root / "rows.csv"],
        "embed-synth": [mnt, "--out", root / "a.emb"],
    }[command]
    return [command, *map(str, args)]


def _listing(root: Path) -> list[str]:
    """Every file and directory under ``root``, as relative paths."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


# The tuning flags each command takes and their defaults, written out apart
# from the parser.
COMMAND_TUNING = {
    "match": {"--w1": 0.5, "--delta-theta": math.pi / 4},
    "identify": {"--w1": 0.5, "--delta-theta": math.pi / 4},
    "benchmark": {"--w1": 0.5, "--delta-theta": math.pi / 4, "--seed": 0, "--n-fingers": 1},
    "gen-synth": {"--seed": 0, "--n-fingers": 1},
    "describe": {},
    "embed-synth": {},
}


@pytest.mark.parametrize("command", list(COMMAND_TUNING))
def test_config_file_flag_is_unrecognized_and_writes_nothing(command, tmp_path, capsys):
    # the four values are set by their flags only
    argv = _command_argv(command, tmp_path)
    before = _listing(tmp_path)
    assert main([*argv, "--config", "x"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: fpfusion: unrecognized arguments: --config x\n")
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("command", list(COMMAND_TUNING))
def test_help_shows_the_default_of_each_tuning_flag(command, capsys):
    assert main([command, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())  # help wraps where it likes
    for flag, default in COMMAND_TUNING[command].items():
        metavar = flag[2:].replace("-", "_").upper()
        assert f"{flag} {metavar} " in text, flag
        assert f"(default {default!r})" in text.partition(f"{flag} {metavar} ")[2], flag
    assert text.count("(default ") == len(COMMAND_TUNING[command])


_ODD_VALUES = [
    "1e308", "-1e308", "5e-324", "-0.0", "-0", str(2**63), str(-(2**63)), "nan", "-nan",
    "inf", "-Infinity", "1e309", "", "abc", "0x10", "2.5",
]
_FLAG_VALUES = {
    "--w1": st.one_of(st.sampled_from(_ODD_VALUES), st.floats().map(repr)),
    "--delta-theta": st.one_of(st.sampled_from(_ODD_VALUES), st.floats().map(repr)),
    "--seed": st.one_of(st.sampled_from(_ODD_VALUES), st.integers(0, 2**64).map(str)),
    # a valid gallery size is 1-3, so a benchmark example runs in well under a
    # second; the odd sizes are those the parser or SynthConfig rejects
    "--n-fingers": st.one_of(
        st.integers(1, 3).map(str),
        st.sampled_from([v for v in _ODD_VALUES if v != str(2**63)] + ["0", "-1"]),
    ),
    # removed flags: each is an unrecognized argument, whatever its value
    "--config": st.sampled_from(["x", *_ODD_VALUES]),
    "--w2": st.sampled_from(["0.5", *_ODD_VALUES]),
    "--n-rel": st.sampled_from(["2", *_ODD_VALUES]),
}
# one flag as two arguments, or as one --flag=value argument (a value such as
# -1e308 reaches its type only so)
_FLAG_ARGS = st.sampled_from(sorted(_FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(_FLAG_VALUES[flag], st.booleans()).map(
        lambda v: [f"{flag}={v[0]}"] if v[1] else [flag, v[0]]
    )
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(list(COMMAND_TUNING)), flags=st.lists(_FLAG_ARGS, max_size=4))
@example(command="match", flags=[["--n-rel", "2"]])  # once printed argparse's usage lines too
def test_any_tuning_flags_run_or_are_one_line_error(command, flags):
    """Any command with up to four tuning, removed or unknown flags, each
    maybe repeated, at extreme, non-finite, non-numeric or empty values,
    exits 0, or 1 or 2 with one ``error:`` line and nothing written, and
    raises nothing, a numeric warning included."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _command_argv(command, root) + [a for flag in flags for a in flag]
        before = _listing(root)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        after = _listing(root)
    if code != EXIT_OK:
        assert code in (EXIT_USAGE, EXIT_DATA), code
        [line] = err.getvalue().splitlines()
        assert "error:" in line
        assert after == before

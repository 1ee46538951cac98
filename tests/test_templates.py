import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfusion.templates import (
    Minutia,
    MinutiaeTemplate,
    TemplateFormatError,
    load_template,
    rigid_transform,
    save_template,
)


def test_minutia_normalizes_theta():
    assert Minutia(0, 0, 2 * math.pi + 0.5).theta == pytest.approx(0.5)
    assert Minutia(0, 0, -0.5).theta == pytest.approx(2 * math.pi - 0.5)


def test_minutia_rejects_non_finite():
    with pytest.raises(ValueError):
        Minutia(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        Minutia(0, 0, float("inf"))


def test_load_basic(tmp_path):
    path = tmp_path / "a.mnt"
    path.write_text("10 20 1.57\n30 40 0.5\n")
    t = load_template(path)
    assert len(t) == 2
    assert t.minutiae[0].theta == pytest.approx(1.57)
    assert t.minutiae[1].theta == pytest.approx(0.5)
    assert (t.minutiae[0].x, t.minutiae[0].y) == (10, 20)


def test_load_header_and_comments(tmp_path):
    path = tmp_path / "b.mnt"
    path.write_text("# id=finger7 w=500 h=400\n# comment\n1 2 0.25 0.9\n")
    t = load_template(path)
    assert t.id == "finger7"
    assert (t.width, t.height) == (500, 400)
    assert t.minutiae[0].quality == pytest.approx(0.9)


@pytest.mark.parametrize(
    "header", ["# id=foo w=5", "# id=foo h=5 w=7", "# id=a b", "#id=", "#  id=f w=5 h=x"]
)
def test_load_malformed_header_names_lineno(tmp_path, header):
    path = tmp_path / "stem1.mnt"
    path.write_text(f"# comment\n{header}\n1 2 0.25\n")
    with pytest.raises(TemplateFormatError, match=r"stem1\.mnt:2: "):
        load_template(path)


def test_comment_mentioning_id_is_not_a_header(tmp_path):
    path = tmp_path / "stem2.mnt"
    path.write_text("# made from id=foo w=5\n1 2 0.25\n")
    assert load_template(path).id == "stem2"


def test_load_empty_file(tmp_path):
    path = tmp_path / "c.mnt"
    path.write_text("# only a comment\n")
    assert len(load_template(path)) == 0


def test_load_malformed_line_names_lineno(tmp_path):
    path = tmp_path / "d.mnt"
    path.write_text("10 20 abc\n")
    with pytest.raises(TemplateFormatError, match=":1:"):
        load_template(path)


def test_load_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "f.mnt"
    path.write_text("\n10 20 1.5\n   \n\t\n30 40 0.5\n\n")
    t = load_template(path)
    assert [(m.x, m.y) for m in t.minutiae] == [(10, 20), (30, 40)]


@pytest.mark.parametrize("row", ["10 20", "10 20 0.5 0.9 7"])
def test_load_wrong_field_count_names_lineno(tmp_path, row):
    path = tmp_path / "g.mnt"
    path.write_text(f"1 2 0.25\n{row}\n")
    with pytest.raises(TemplateFormatError, match=r"g\.mnt:2: expected 'x y theta \[quality\]'"):
        load_template(path)


def test_load_non_finite_theta(tmp_path):
    path = tmp_path / "e.mnt"
    path.write_text("10 20 nan\n")
    with pytest.raises(TemplateFormatError, match=":1:"):
        load_template(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_template(tmp_path / "nope.mnt")


def test_round_trip(tmp_path, rng):
    minutiae = tuple(
        Minutia(float(rng.uniform(0, 500)), float(rng.uniform(0, 500)),
                float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1)))
        for _ in range(20)
    )
    t = MinutiaeTemplate("rt", minutiae, 500, 500)
    path = tmp_path / "rt.mnt"
    save_template(t, path)
    back = load_template(path)
    assert back.id == t.id
    assert (back.width, back.height) == (500, 500)
    assert len(back) == len(t)
    for a, b in zip(t.minutiae, back.minutiae):
        assert a.x == pytest.approx(b.x, abs=1e-6)
        assert a.y == pytest.approx(b.y, abs=1e-6)
        assert a.theta == pytest.approx(b.theta, abs=1e-6)
        assert a.quality == pytest.approx(b.quality, abs=1e-6)


def test_save_unwritable_path(tmp_path):
    t = MinutiaeTemplate("x", (Minutia(1, 2, 3),))
    with pytest.raises(OSError):
        save_template(t, tmp_path / "missing_dir" / "x.mnt")


def test_rigid_transform_matches_oracle(rng):
    from conftest import random_template, rotate_template

    t = random_template(rng, n=10)
    alpha, tx, ty = 0.7, 12.0, -5.0
    ours = rigid_transform(t, alpha, tx, ty, center=(30.0, 40.0))
    oracle = rotate_template(t, alpha, tx, ty, center=(30.0, 40.0))
    assert np.allclose(ours.positions(), oracle.positions(), atol=1e-9)
    assert np.allclose(ours.thetas(), oracle.thetas(), atol=1e-9)


@pytest.mark.parametrize("dims", [(None, None), (500, 400)])
def test_round_trip_keeps_id_under_other_file_name(tmp_path, dims):
    t = MinutiaeTemplate("finger-7", (Minutia(1, 2, 3),), *dims)
    path = tmp_path / "renamed.mnt"
    save_template(t, path)
    back = load_template(path)
    assert back.id == "finger-7"
    assert (back.width, back.height) == dims


@pytest.mark.parametrize("tid", ["", "two words", "tab\tid", "new\nline"])
def test_save_rejects_id_the_header_cannot_hold(tmp_path, tid):
    with pytest.raises(ValueError, match="id"):
        save_template(MinutiaeTemplate(tid, (Minutia(1, 2, 3),)), tmp_path / "x.mnt")
    assert not (tmp_path / "x.mnt").exists()


@pytest.mark.parametrize("quality", [-0.1, 1.5, 5.0, float("nan")])
def test_minutia_rejects_quality_outside_unit_interval(quality):
    with pytest.raises(ValueError, match="quality"):
        Minutia(0, 0, 0, quality)


@pytest.mark.parametrize("quality", ["5.0", "nan"])
def test_load_quality_outside_unit_interval_names_lineno(tmp_path, quality):
    path = tmp_path / "q.mnt"
    path.write_text(f"1 2 0.5 0.9\n3 4 0.5 {quality}\n")
    with pytest.raises(TemplateFormatError, match=":2:.*quality"):
        load_template(path)


def test_arrays_built_once_and_read_only(rng):
    from conftest import random_template

    t = random_template(rng, n=6)
    assert t.positions() is t.positions() and t.thetas() is t.thetas()
    assert t.positions().shape == (6, 2) and t.thetas().shape == (6,)
    assert np.array_equal(t.thetas(), [m.theta for m in t.minutiae])
    with pytest.raises(ValueError):
        t.positions()[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.thetas()[0] = 1.0
    empty = MinutiaeTemplate("e", ())
    assert empty.positions().shape == (0, 2) and empty.thetas().shape == (0,)


def test_arrays_do_not_change_equality_or_hash(rng):
    from conftest import random_template

    t = random_template(rng, n=6)
    same = MinutiaeTemplate(t.id, list(t.minutiae), t.width, t.height)
    assert same == t and hash(same) == hash(t)
    assert "_xy" not in repr(t)


@pytest.mark.parametrize("dims", [(500, None), (None, 400), (-1, 400), (500, -2)])
def test_size_half_set_or_negative_rejected(dims):
    with pytest.raises(ValueError, match="template size"):
        MinutiaeTemplate("t", (), *dims)


@pytest.mark.parametrize(
    "positions",
    [[(1e308, 0.0), (-1e308, 5.0)], [(0.0, -1e308), (5.0, 1e308)], [(0.0, 0.0), (1.3e308, 1.3e308)]],
)
def test_span_that_overflows_rejected(positions):
    with pytest.raises(ValueError, match="span inf"):
        MinutiaeTemplate("t", tuple(Minutia(x, y, 0.0) for x, y in positions))


@pytest.mark.parametrize("positions", [[(1e308, -1e308)], [(1e200, 0.0), (-1e200, 0.0)]])
def test_far_positions_with_finite_span_accepted(positions):
    t = MinutiaeTemplate("t", tuple(Minutia(x, y, 0.0) for x, y in positions))
    assert t.positions().tolist() == [list(p) for p in positions]


def test_load_span_that_overflows_names_path(tmp_path):
    path = tmp_path / "far.mnt"
    path.write_text("1e308 0 0\n-1e308 5 1\n")
    with pytest.raises(TemplateFormatError, match=re.escape(f"{path}: minutia positions span inf")):
        load_template(path)


TWO_PI = 2 * math.pi
coordinate = st.floats(-1e4, 1e4)
angle = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(TWO_PI - 1e-6, TWO_PI + 1e-6),  # normalizes to either end of [0, 2pi)
    st.floats(-1e-6, 1e-6),
)
minutia = st.builds(Minutia, coordinate, coordinate, angle, st.floats(0.0, 1.0))
size = st.none() | st.integers(-3, 10**6)


@settings(max_examples=200, deadline=None)
@given(
    tid=st.text(min_size=1, max_size=12).filter(lambda s: re.fullmatch(r"\S+", s)),
    minutiae=st.lists(minutia, max_size=30),
    width=size,
    height=size,
)
def test_save_load_round_trip_property(tid, minutiae, width, height):
    if (width is None) != (height is None) or min(width or 0, height or 0) < 0:
        with pytest.raises(ValueError, match="template size"):
            MinutiaeTemplate(tid, minutiae, width, height)
        return
    t = MinutiaeTemplate(tid, minutiae, width, height)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "other-name.mnt"
        save_template(t, path)
        back = load_template(path)
    assert (back.id, back.width, back.height, len(back)) == (tid, width, height, len(t))
    for a, b in zip(t.minutiae, back.minutiae):
        assert 0.0 <= b.theta < TWO_PI and 0.0 <= b.quality <= 1.0
        assert abs(a.x - b.x) <= 1e-6 and abs(a.y - b.y) <= 1e-6
        assert abs(a.theta - b.theta) <= 1e-6 and abs(a.quality - b.quality) <= 1e-6

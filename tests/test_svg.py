"""Learning-curve SVG rendering."""

import hashlib
import re
import xml.etree.ElementTree as ET

import pytest

from memlab import EpochRecord, MetricsLog, emit_svg, render_svg


def make_log(rounds=1, epochs=10, with_val=False, labelings=None):
    log = MetricsLog()
    for r in range(1, rounds + 1):
        for e in range(1, epochs + 1):
            acc = min(1.0, 0.1 + 0.05 * e)
            log.append(EpochRecord(r, e, "train", 1.0 / e, acc, 0.1))
            if with_val:
                log.append(EpochRecord(r, e, "val", 1.2 / e, acc / 2, 0.1))
    if labelings:
        log.round_labelings.update(labelings)
    return log


def polylines(svg):
    root = ET.fromstring(svg.decode())
    ns = "{http://www.w3.org/2000/svg}"
    return root.findall(f".//{ns}polyline")


def test_empty_log_rejected():
    with pytest.raises(ValueError):
        render_svg(MetricsLog())


def test_single_round_one_train_polyline_with_all_points():
    svg = render_svg(make_log(rounds=1, epochs=10))
    lines = polylines(svg)
    assert len(lines) == 1
    assert lines[0].get("class") == "train round-1"
    assert len(lines[0].get("points").split()) == 10


def test_val_polyline_is_dashed():
    svg = render_svg(make_log(rounds=1, epochs=5, with_val=True))
    lines = {p.get("class"): p for p in polylines(svg)}
    assert set(lines) == {"train round-1", "val round-1"}
    assert lines["train round-1"].get("stroke-dasharray") is None
    assert lines["val round-1"].get("stroke-dasharray") is not None
    assert b"val (dashed)" in svg


def test_round_boundaries_count():
    svg = render_svg(make_log(rounds=4, epochs=6))
    assert svg.count(b'class="round-boundary"') == 3
    assert len(polylines(svg)) == 4


def test_well_formed_xml():
    svg = render_svg(make_log(rounds=3, epochs=4, with_val=True))
    root = ET.fromstring(svg.decode())
    assert root.tag.endswith("svg")


def test_byte_deterministic():
    assert render_svg(make_log(rounds=2, epochs=5)) == \
        render_svg(make_log(rounds=2, epochs=5))


def test_several_rounds_with_val_are_pinned():
    # no byte gate renders several legend entries together with the val key
    svg = render_svg(make_log(rounds=3, epochs=4, with_val=True, labelings={
        1: "random(seed=3)", 2: "reshuffled(seed=7, round=2)", 3: 'a<b & "c"'}))
    assert hashlib.sha256(svg).hexdigest() == (
        "8c524eda225af72c66fd1c94d025519f06e79770260bce79eb84f106367547b1")


def test_legend_uses_labeling_provenance():
    labelings = {1: "reshuffled(seed=7, round=1)", 2: "reshuffled(seed=7, round=2)"}
    svg = render_svg(make_log(rounds=2, epochs=3, labelings=labelings))
    assert b"reshuffled(seed=7, round=1)" in svg
    # logs read back from CSV have no provenance; rounds still get names
    plain = render_svg(make_log(rounds=2, epochs=3))
    assert b">round 1<" in plain and b">round 2<" in plain


def test_coordinates_have_two_decimals():
    svg = render_svg(make_log(rounds=1, epochs=3)).decode()
    points = polylines(svg.encode())[0].get("points")
    assert re.fullmatch(r"(\d+\.\d{2},\d+\.\d{2} ?)+", points)


def test_emit_writes_render_output(tmp_path):
    log = make_log(rounds=1, epochs=4)
    p = tmp_path / "plot.svg"
    emit_svg(log, p)
    assert p.read_bytes() == render_svg(log)

"""Span recorder, self-time computation and wrapper installation."""

import pytest

import nillab
import tracing
import worker
import workloads as wl
from nillab import catalog, cli, group, spectral
from tracing import END, NAME, PARENT, START


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, 0]


def test_self_time_on_nested_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("rec", 5.0, 9.0, 0),
        _span("rec", 5.5, 8.0, 3),
        _span("rec", 6.0, 7.0, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.0])
    stats = tracing.layer_stats(spans, tracing.self_times(spans))
    assert stats["rec"].calls == 3
    assert stats["rec"].self_s == pytest.approx(4.0)
    assert stats["rec"].total_s == pytest.approx(4.0 + 2.5 + 1.0)
    # self times of a tree add up to the root's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_outlying_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 8.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_recursive_seminorm_spans_nest_under_uniformity_seminorm():
    sys_ = catalog.catalog_build("skew_torus_nonergodic")
    f = spectral.Observable.character(2, (0, 1))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("root"):
        spectral.uniformity_seminorm(sys_, f, 2, (4, 4), 1024, seed=1)
    spans = tracer.spans
    names = [s[NAME] for s in spans]
    power = [s for s in spans if s[NAME] == "spectral._seminorm_power"]
    assert power and all(
        names[s[PARENT]] in ("spectral._seminorm_power", "spectral.uniformity_seminorm")
        for s in power)
    assert any(names[s[PARENT]] == "spectral._seminorm_power" for s in power)
    root = spans[0]
    assert sum(tracing.self_times(spans)) == pytest.approx(root[END] - root[START])


def test_wrappers_cover_from_imports_and_are_all_removed():
    originals = (group.bch, cli.catalog_build, nillab.multiply, spectral.Observable.__call__)
    tracer = tracing.Tracer()
    with tracer.installed():
        installed = tracing.installed_wrappers()
        assert "nillab.cli.catalog_build" in installed
        assert "nillab.spectral.Observable.__call__" in installed
        assert "nillab.scalars.ExtScalar.__add__" in installed
        assert cli.catalog_build is not originals[1]
    assert tracing.installed_wrappers() == []
    assert (group.bch, cli.catalog_build, nillab.multiply,
            spectral.Observable.__call__) == originals


def test_wrappers_are_removed_when_the_traced_call_raises():
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert tracing.installed_wrappers() == []


class _Probe(wl.Workload):
    """Records whether tracer wrappers were installed during each call."""

    name = "probe"

    def __init__(self):
        self.seen = []

    def sizes(self):
        return {}

    def setup(self, seed):
        return catalog.catalog_build("rot_torus")

    def call(self, state, span=wl._nullspan):
        self.seen.append(bool(tracing.installed_wrappers()))
        spectral.Observable.character(1, (1,))(state.numeric().sample_points(8, 0))
        return None

    def check(self, state, raw):
        out = wl.Outcome()
        out.record(True, "")
        return out


def test_untraced_loop_runs_unwrapped_code(monkeypatch, capsys):
    probe = _Probe()
    monkeypatch.setitem(wl.WORKLOADS, "probe", probe)
    assert worker.main(["--workload", "probe", "--seed", "0", "--seconds", "0",
                        "--trace", "1"]) == 0
    # one untraced call, then one traced call
    assert probe.seen == [False, True]
    assert tracing.installed_wrappers() == []
    assert '"spectral.Observable.call.calls": 1.0' in capsys.readouterr().out

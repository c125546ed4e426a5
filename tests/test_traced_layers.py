"""The benchmark's traced run fits log(time) of each layer against matrix size,
so every fitted layer must take measurable time at every sweep point. This
runs the first point of each size set under the tracer and checks that no
fitted layer reads zero, which would end the traced run in a math error."""

from pathlib import Path

from su11kit.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_fitted_layer_takes_time_on_its_size_set(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    first_points = {}
    for size_set, _, argvs in workloads.sweep():
        first_points.setdefault(size_set, argvs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for pass_id, argvs in enumerate(first_points.values()):
            tracer.pass_id = pass_id
            for argv in argvs:
                assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    spans = tracer.spans
    own = tracing.self_times(spans)
    groups = tracing.by_pass(spans)
    metrics = {size_set: tracing.layer_metrics(spans, own, groups[pass_id])
               for pass_id, size_set in enumerate(first_points)}
    for layer, size_set in tracing.EXPONENTS.items():
        assert metrics[size_set][f"{layer}_s"] > 0, (layer, size_set)

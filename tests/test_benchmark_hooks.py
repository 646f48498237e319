"""The benchmark's tracer (perfbench/tracer.py) wraps engine functions from
outside the engine, by module and attribute name, and reads what some of
them return.  A renamed function, a caller that reaches one through another
name, or a cell forward that stops returning (hs, cache) would leave its
metrics empty without an error; these tests fail instead."""

import sys
from pathlib import Path

import pytest

from temporal_augmenter import cli
from temporal_augmenter.synth import (
    make_heartbeat_dataset,
    make_radar_dataset,
    write_heartbeat_csv,
    write_radar_csv,
)
from temporal_augmenter.tensor_core import Rng

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402


def test_every_target_resolves_to_a_function_defined_there():
    for module, path in [target[1:] for target in tracer.SPAN_TARGETS] + [tracer.DRAWS_TARGET]:
        owner, attr = tracer.resolve(module, path)
        # install() saves and restores owner.__dict__[attr], not an inherited one
        assert callable(owner.__dict__.get(attr)), f"{module}.{path}"


@pytest.mark.parametrize("task", ["mitbih", "ionosphere"])  # pooled, general front-end
def test_traced_train_and_eval_record_the_cells_and_the_eval_timer(tmp_path, task):
    data = tmp_path / "data.csv"
    if task == "mitbih":
        write_heartbeat_csv(data, make_heartbeat_dataset(40, Rng(130)))
    else:
        write_radar_csv(data, make_radar_dataset(40, Rng(131)))
    config = tmp_path / "cfg.txt"
    config.write_text(f"task = {task}\ndata = {data}\nout = {tmp_path / 'run'}\nseed = 5\n"
                      f"epochs = 1\nbatch_size = 16\nconv_filters = 4\ndense_sizes = 6\n")
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.main(["train", "--config", str(config)]) == 0
        after_train = tracer.summarize(traced.spans)
        assert cli.main(["eval", str(tmp_path / "run" / "checkpoint.tackpt"), str(data)]) == 0
    finally:
        traced.restore()
    spans = tracer.summarize(traced.spans)
    for name in ("recurrent.gru_forward", "recurrent.gru_backward", "recurrent.lstm_forward",
                 "recurrent.lstm_backward", "model.forward.train", "model.forward.eval",
                 "model.backward", "optim.fit"):
        assert name in spans, name
    # eval's own call, the one `eval_samples_per_s` is timed over
    assert spans["optim.predict_probs"]["calls"] > after_train["optim.predict_probs"]["calls"]
    # the ReLU and dropout pair runs in every stream block, not only in the
    # head's one hidden layer, which calls each once per forward or backward
    forwards = spans["model.forward.train"]["calls"] + spans["model.forward.eval"]["calls"]
    backwards = spans["model.backward"]["calls"]
    for name, head_calls in (("layers.relu_forward", forwards),
                             ("layers.relu_backward", backwards),
                             ("layers.dropout_backward", backwards)):
        assert spans[name]["calls"] > head_calls, name
    for name in tracer.CACHE_SPANS:  # a train-mode cell cache holds arrays
        assert traced.counters[f"{name}.cache_bytes"] > 0, name
    assert traced.counters["tensor_core.Rng.draws"] > 0
